"""Round-based energy depletion simulation and the path delay constraint.

Each round replays a data-collection sweep along a route: every hop charges
the sender with transmission energy and the receiver with reception energy,
so interior nodes pay both, the first node only transmits and the last only
receives. Lifetime is the number of fully completed rounds before the first
node dies. A node dies when its round charge exceeds its residual; it spends
what it has (residual clamps to 0), the round is aborted without charging
the survivors, and the simulation stops. Every node starts at the config's
``initial_battery_j``; the residuals are one float64 array, from the first
round to the report.

The delay constraint is a function of a route's hop lengths alone, the
lengths a round already measures for its charges: :func:`path_delay` sums
each hop's propagation and processing time, and :func:`check_delay` says
whether that sum is within the deadline.

The ``rotate-start`` policy rebuilds the greedy route from start node
``round_index mod n`` each round, spreading the start/terminal roles across
the network; ``fixed-route`` replays one route every round. Rotating rounds
share one kNN graph of the field, whose slots settle most greedy steps; the
graph also keeps the greedy builder's cell grid of the field for every round.

A rotating round's route and plan (its charges and delay verdict) depend
only on the field, the graph and its start node, so a long run builds and
plans its rounds in two processes. Once round 0 has completed, a worker
forked from this process builds and plans the odd rounds and sends each
plan through a pipe, while this process builds and plans the even ones and
keeps the ledger (the death test, the residuals and the energy total) in
round order. The report is the same, byte for byte. A plan that raises in
the worker (``d**alpha`` overflows, say) is planned again here at its
turn, so it raises as it would in one process. The rounds stay in this
process when the rounds after round 0 hold fewer than
``_MIN_WORKER_NODE_ROUNDS`` node-rounds (the fork costs more than the
worker saves), when ``os.fork`` is missing or fails, when this process may
use one CPU only, when it runs another Python thread (a fork copies only
the calling thread, so a lock another thread holds would stay held in the
worker), or when SIGCHLD is ignored (the worker could not then be waited
for). The worker moves itself off the CPU this process last ran on. This
process pauses the cyclic garbage collector while the rounds run and gives
the caller back its setting when they end; the worker, forked inside the
pause, inherits it. A worker that dies raises ChildProcessError; the worker
is reaped however the run ends.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
from collections.abc import Callable, Iterator
from contextlib import suppress
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .energy import DelayParams, EnergyConfig, RadioParams, rx_energy, tx_energy
from .field import SensorField, hop_lengths
from .knn import KnnGraph, build_knn_graph
from .routes import Route, nn_route, validate_route

POLICY_FIXED = "fixed-route"
POLICY_ROTATE = "rotate-start"
_POLICIES = (POLICY_FIXED, POLICY_ROTATE)
# Neighbours per node in the graph rotating rounds share. At n=2000, 4 slots
# settle 88% of a route's steps and 8 settle 93%. On the lifetime-rotate
# benchmark (2-vCPU x86-64 VM, with the route worker), 8 took 7% less time
# per op than 4 in 9 of 10 pairs of runs, for 1.5% more peak memory.
_ROTATE_K = 8
# A route worker is forked only when n times the rounds after round 0 reaches
# this. Through cli.main on a 2-vCPU x86-64 VM, n from 150 to 2000, the
# median time with the worker over the time without it was, in two sweeps of
# 12 runs each: 1.16-1.25 at about 5,000 node-rounds (the fork, the reap and
# the pages both processes copy after it cost about 3 ms), 0.93-1.03 at
# 7,500, 0.89-0.99 at 10,000, 0.81-0.91 at 15,000, 0.73-0.81 at 20,000 and
# 0.68-0.73 at 40,000.
_MIN_WORKER_NODE_ROUNDS = 10_000
# A round's plan: each node's charge for the round, and whether its route meets the deadline.
Plan = tuple[np.ndarray, bool]


@dataclass
class SimReport:
    """Outcome of a lifetime run; field order is the order ``simulate`` prints."""

    rounds_completed: int
    first_death_round: int | None
    total_energy_j: float
    deadline_violations: int
    per_node_residual: list[float]


def _left_sum(total: float, terms: np.ndarray) -> float:
    """``total`` plus each of ``terms`` in turn: a Python ``+=`` loop's rounding, not ``np.sum``'s."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


def path_delay(lengths: np.ndarray, dp: DelayParams) -> float:
    """End-to-end delay of a route whose hops are ``lengths`` long.

    Per hop, propagation (d / prop_speed) plus processing, summed in hop order.
    """
    return _left_sum(0.0, lengths / dp.prop_speed + dp.per_hop_s)


def check_delay(lengths: np.ndarray, dp: DelayParams) -> bool:
    """Whether the end-to-end delay of hop lengths ``lengths`` is within d_max_s (boundary inclusive)."""
    return path_delay(lengths, dp) <= dp.d_max_s


def _round_charges(field: SensorField, order: np.ndarray, rp: RadioParams, lengths: np.ndarray) -> np.ndarray:
    """Per-node round charge for one sweep along the intp route ``order``, whose ``hop_lengths`` are ``lengths``.

    The same bits as ``tx_energy`` per sender and ``rx_energy`` per
    receiver: ``d**alpha`` stays a Python float power, numpy adds
    ``e_elec*bits`` to ``eps_amp*bits`` times it with the same two
    roundings, and a node sends at most once and receives at most once, so
    its charge is one sum of two terms.
    """
    lengths = lengths.tolist()
    bits = rp.packet_bits
    alpha = rp.alpha
    try:
        powers = np.array([d**alpha for d in lengths])
    except OverflowError:
        for d in lengths:
            tx_energy(rp, bits, d)  # raises the ValueError that names the first hop to overflow
        raise
    hops = len(lengths)
    charges = np.zeros(len(field))
    with np.errstate(over="ignore"):  # an infinite charge kills its node, as a Python float would
        charges[order[:hops]] = rp.e_elec * bits + rp.eps_amp * bits * powers
    # hop h's receiver is order[h + 1], and order[0] for a closed route's last hop
    charges[np.roll(order, -1)[:hops]] += rx_energy(rp, bits)
    return charges


def _use_worker(n: int, rounds_left: int) -> bool:
    """Whether to fork a route worker for the ``rounds_left`` rounds after round 0 on ``n`` nodes.

    See the module docstring for when it is not.
    """
    return (n * rounds_left >= _MIN_WORKER_NODE_ROUNDS
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and threading.active_count() == 1
            and signal.getsignal(signal.SIGCHLD) is not signal.SIG_IGN)


def _cpu_now() -> int | None:
    """The CPU this process last ran on (field 39 of Linux's ``/proc/self/stat``), or None where it cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _write_all(fd: int, data: np.ndarray) -> None:
    """Write the bytes of ``data`` to the pipe ``fd``, however many writes that takes."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _reap(pid: int) -> int:
    """Kill the worker ``pid`` if it still runs, wait for it and return its exit code."""
    os.kill(pid, signal.SIGKILL)  # a worker that has exited is a zombie until waited for, so pid is still its own
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _rotate_plans(field: SensorField, graph: KnnGraph | None, rounds: int,
                  plan: Callable[[np.ndarray], Plan]) -> Iterator[Plan]:
    """Round r's plan, of the greedy route from node ``r mod n``, for r = 0 .. rounds - 1.

    ``plan`` turns a route's intp order into the round's charges and delay
    verdict. Round 0 is built and planned here. When two or more rounds
    remain after it, ``_use_worker`` allows it and the fork succeeds, a
    forked worker builds and plans the odd rounds and writes each plan to a
    pipe as n + 1 float64 values: the charges, then 1.0 or 0.0 for the
    verdict, or NaN there when its plan raised. This process builds each
    even round before it waits for the odd round before that one, and plans
    each round it yields (an even one, or an odd one whose plan raised in
    the worker) only once the rounds before it have been taken, so a plan
    raises where it would in one process. The plans are the same either
    way. Closing the generator kills and reaps a worker that is still
    running, which may be rounds ahead; a worker that stops short raises
    ChildProcessError.
    """
    n = len(field)

    def build(r: int) -> np.ndarray:
        return np.array(nn_route(field, r % n, graph).order, dtype=np.intp)

    yield plan(build(0))  # a run that stops in its first round forks nothing
    pid = None
    if rounds - 1 >= 2 and _use_worker(n, rounds - 1):
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            parent_cpu = _cpu_now()
            pid = os.fork()
        except OSError:  # no pipe or process to spare (EMFILE, EAGAIN, ENOMEM): the rounds need neither
            for fd in fds:
                os.close(fd)
    if pid is None:
        for r in range(1, rounds):
            yield plan(build(r))
        return
    if pid == 0:  # the worker: it inherits round 0's grid index on the graph
        code = 1
        try:
            os.close(read_fd)
            if parent_cpu is not None:
                # Left alone, Linux at times keeps the worker on this
                # process's CPU for whole stretches of runs, and the worker
                # then slows the rounds down. The worker alone is moved.
                with suppress(OSError):
                    os.sched_setaffinity(0, os.sched_getaffinity(0) - {parent_cpu})
            for r in range(1, rounds, 2):
                order = build(r)
                try:
                    charges, within_deadline = plan(order)
                    message = np.append(charges, float(within_deadline))
                except BaseException:  # an overflow, say: this process plans the round again at its turn
                    message = np.full(n + 1, np.nan)
                _write_all(write_fd, message)
            code = 0
        finally:
            os._exit(code)  # no atexit handlers, and no flush of stdio buffers the parent holds too
    size = (n + 1) * np.dtype(np.float64).itemsize
    reaped = False
    try:
        os.close(write_fd)
        with open(read_fd, "rb") as pipe:
            for r in range(1, rounds, 2):
                own = build(r + 1) if r + 1 < rounds else None  # built before waiting on the worker
                data = pipe.read(size)
                if len(data) < size:
                    code, reaped = _reap(pid), True
                    how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                    raise ChildProcessError(f"the route worker {how} after sending {len(data)} of the "
                                            f"{size} bytes of round {r + 1}'s plan")
                message = np.frombuffer(data)
                # planned here again, a plan that raised in the worker raises at its round, as in one process
                yield plan(build(r)) if np.isnan(message[n]) else (message[:n], bool(message[n]))
                if own is not None:
                    yield plan(own)
    finally:
        if not reaped:
            _reap(pid)


def simulate_lifetime(
    field: SensorField,
    policy: str,
    cfg: EnergyConfig,
    max_rounds: int,
    route: Route | None = None,
) -> SimReport:
    """Run up to ``max_rounds`` collection rounds, stopping at the first death.

    Every node starts at ``cfg.initial_battery_j``; rounds are charged by
    ``cfg.radio`` and checked against ``cfg.delay``. ``fixed-route`` replays
    ``route`` (defaults to the greedy route from node 0); ``rotate-start``
    regenerates the greedy route with a rotating start and takes no
    ``route``, building and planning its rounds in two processes when it
    can (see the module docstring). Deadline violations are counted for
    completed rounds whose route misses d_max_s. Deterministic given its
    inputs.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    n = len(field)
    if n == 0:
        raise ValueError("the field has no nodes to simulate")
    rotate = policy == POLICY_ROTATE
    if rotate and route is not None:
        raise ValueError(f"route applies to {POLICY_FIXED} only; {POLICY_ROTATE} starts round r at node r mod n")

    def plan(order: np.ndarray, closed: bool = False) -> Plan:
        lengths = hop_lengths(field.coords, order, closed)  # one pass serves charges and delay
        charges = _round_charges(field, order, cfg.radio, lengths)
        return charges, check_delay(lengths, cfg.delay)

    if rotate:
        graph = build_knn_graph(field, min(_ROTATE_K, n - 1)) if n > 1 and max_rounds > 0 else None
        plans = _rotate_plans(field, graph, max_rounds, plan)
    else:
        route = route if route is not None else nn_route(field, 0)
        validate_route(field, route)
        plans = repeat(plan(np.asarray(route.order, dtype=np.intp), route.closed))

    residual = np.full(n, cfg.initial_battery_j)
    total = 0.0
    rounds_completed = 0
    first_death_round = None
    violations = 0
    gc_enabled = gc.isenabled()
    if rotate:
        # The rounds make no reference cycles, and at n=2000 the collector
        # ran about 30 times in 50 rounds; the caller's setting comes back.
        # The route worker is forked inside the pause, so it runs without the
        # collector too, which would otherwise touch, and so copy, every
        # page it inherits.
        gc.disable()
    try:
        for round_idx, (charges, within_deadline) in zip(range(max_rounds), plans):
            dying = np.flatnonzero(charges > residual)
            if len(dying):
                total = _left_sum(total, residual[dying])
                residual[dying] = 0.0
                first_death_round = round_idx + 1
                break
            residual -= charges
            total = _left_sum(total, charges)
            rounds_completed += 1
            if not within_deadline:
                violations += 1
    finally:
        if rotate:
            if gc_enabled:
                gc.enable()
            plans.close()  # reaps a route worker, however the loop ended
    return SimReport(
        rounds_completed=rounds_completed,
        first_death_round=first_death_round,
        total_energy_j=total,
        deadline_violations=violations,
        per_node_residual=residual.tolist(),
    )
