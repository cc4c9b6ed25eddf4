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
plans its rounds in two processes. After round 0, this process builds and
plans the odd rounds at their turn and keeps the ledger (the death test,
the residuals and the energy total) in round order, while a worker forked
from it builds and plans the even rounds and sends each plan through a
pipe. One rule covers every way the worker can fail: any round it does not
send (its plan raised, it was killed, or it could not be forked) is built
and planned here at its turn, along with every round after it. So the
report is the same, byte for byte, and a plan that raises does so at its
own round. No worker is forked when the rounds after round 0 hold fewer
than ``_MIN_WORKER_NODE_ROUNDS`` node-rounds (the fork costs more than the
worker saves), when ``os.fork`` is missing, when this process may use one
CPU only, when it runs another Python thread (a fork copies only the
calling thread, so a lock another thread holds would stay held in the
worker), or when SIGCHLD is ignored (the worker could not then be waited
for). The worker moves itself off the CPU this process last ran on, and is
reaped however the run ends. This process pauses the cyclic garbage
collector while the rounds run and gives the caller back its setting when
they end; the worker, forked inside the pause, inherits it.
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
# Neighbours per node in the graph rotating rounds share; the greedy
# builder's grid then holds about k nodes to a cell. At n=2000, 4 slots
# settle 88% of a route's steps and 8 settle 93%. Through cli.main, 50
# rounds on three uniform n=2000 fields with the route worker (2-vCPU x86-64
# VM), time per run against k=8, median and quartiles of paired runs:
#
#     k          4          10         12         16
#     time       1.13       1.00       0.97       1.00
#     quartiles  1.07-1.19  0.94-1.05  0.91-1.04  0.96-1.05
#
# 12 does not beat 8 beyond the spread, and its graph is half as large again.
# Measured again on the kernel in cells of k/2 (12 paired rounds): 12 took
# 1.00 (0.95-1.04) and 16 took 1.00 (0.95-1.11) of the time at k=8.
_ROTATE_K = 8
# A route worker is forked only when n times the rounds after round 0 reaches
# this. Through cli.main on a 2-vCPU x86-64 VM, n from 150 to 2000, the
# median time with the worker over the time without it was, in two sweeps of
# 12 runs each: 1.16-1.25 at about 5,000 node-rounds (the fork, the reap and
# the pages both processes copy after it cost about 3 ms), 0.93-1.03 at
# 7,500, 0.89-0.99 at 10,000, 0.81-0.91 at 15,000, 0.73-0.81 at 20,000 and
# 0.68-0.73 at 40,000.
_MIN_WORKER_NODE_ROUNDS = 10_000


@dataclass
class SimReport:
    """Outcome of a lifetime run; field order is the order ``simulate`` prints."""

    rounds_completed: int
    first_death_round: int | None
    total_energy_j: float
    deadline_violations: int
    per_node_residual: list[float]


def _left_sum(total: float, terms: np.ndarray) -> float:
    """``total`` plus each of ``terms`` in turn: a Python ``+=`` loop's rounding, not ``np.sum``'s, and its silent inf."""
    with np.errstate(over="ignore"):
        return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


def path_delay(lengths: np.ndarray, dp: DelayParams) -> float:
    """End-to-end delay of a route whose hops are ``lengths`` long.

    Per hop, propagation (d / prop_speed) plus processing, summed in hop order; inf beyond the float range.
    """
    with np.errstate(over="ignore"):
        return _left_sum(0.0, lengths / dp.prop_speed + dp.per_hop_s)


def check_delay(lengths: np.ndarray, dp: DelayParams) -> bool:
    """Whether the end-to-end delay of hop lengths ``lengths`` is within d_max_s (boundary inclusive)."""
    return path_delay(lengths, dp) <= dp.d_max_s


def _round_charges(order: np.ndarray, rp: RadioParams, lengths: np.ndarray) -> np.ndarray:
    """Per-node charge for one sweep along the intp route ``order``, whose ``hop_lengths`` are ``lengths``.

    Each hop charges its sender ``tx_energy`` and its receiver ``rx_energy``. A
    node sends and receives at most once, so its charge has a scalar sweep's bits.
    """
    hops = len(lengths)
    charges = np.zeros(len(order))
    charges[order[:hops]] = tx_energy(rp, rp.packet_bits, lengths)
    # hop h's receiver is order[h + 1], and order[0] for a closed route's last hop
    charges[np.roll(order, -1)[:hops]] += rx_energy(rp, rp.packet_bits)
    return charges


def _use_worker(n: int, rounds_left: int) -> bool:
    """Whether to fork a route worker for ``rounds_left`` rounds on ``n`` nodes; see the module docstring."""
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


def _alternate(work: Callable[[int], np.ndarray], first: int, stop: int, width: int,
               fork: bool) -> Iterator[np.ndarray]:
    """``work(i)``, an array of ``width`` float64 values, for i in ``range(first, stop)``, in order.

    This process computes items ``first``, ``first + 2`` and so on, each at
    its turn. When ``fork`` is set and the worker would have an item, a
    worker forked from this process computes the others and writes each to
    a pipe as it is done; it may be items ahead. Any item the worker does
    not send (it raised, was killed, or could not be forked) is computed
    here at its turn, with every item after it: on a short read this
    process kills and reaps the worker first. Closing the generator kills
    and reaps a worker that still runs.
    """
    pid = None
    if fork and stop - first >= 2:
        fds = ()
        try:
            fds = read_fd, write_fd = os.pipe()
            parent_cpu = _cpu_now()
            pid = os.fork()
        except OSError:  # no pipe or process to spare (EMFILE, EAGAIN, ENOMEM): the items need neither
            for fd in fds:
                os.close(fd)
    if pid == 0:  # the worker
        try:
            os.close(read_fd)
            if parent_cpu is not None:
                # Left alone, Linux at times keeps the worker on this
                # process's CPU for whole stretches of runs, and the worker
                # then slows the items down. The worker alone is moved.
                with suppress(OSError):
                    os.sched_setaffinity(0, os.sched_getaffinity(0) - {parent_cpu})
            with open(write_fd, "wb") as pipe:
                for i in range(first + 1, stop, 2):
                    pipe.write(work(i))
                    pipe.flush()
        finally:
            os._exit(0)  # no atexit handlers, and no flush of stdio buffers the parent holds too
    here = first  # the first item this process computes from then on
    if pid is not None:
        size = width * np.dtype(np.float64).itemsize
        try:
            os.close(write_fd)
            with open(read_fd, "rb") as pipe:
                for here in range(first, stop):
                    if (here - first) % 2:
                        data = pipe.read(size)
                        if len(data) < size:
                            break
                        yield np.frombuffer(data)
                    else:
                        yield work(here)
                else:
                    here = stop
        finally:
            os.kill(pid, signal.SIGKILL)  # an exited worker is a zombie until waited for, so pid is still its own
            os.waitpid(pid, 0)
    for i in range(here, stop):
        yield work(i)


def _rotate_plans(field: SensorField, graph: KnnGraph | None, rounds: int,
                  plan: Callable[[np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """Round r's plan, of the greedy route from node ``r mod n``, for r = 0 .. rounds - 1.

    ``plan`` turns a route's intp order into the round's plan. Round 0 is
    built and planned here, so a run that stops in its first round forks
    nothing, and a worker inherits round 0's grid index on the graph. The
    rounds after it go to :func:`_alternate`, which builds and plans the
    odd ones here and, where ``_use_worker`` allows it, the even ones in a
    forked worker. The plans are the same either way.
    """
    n = len(field)

    def work(r: int) -> np.ndarray:
        return plan(np.array(nn_route(field, r % n, graph).order, dtype=np.intp))

    yield work(0)
    yield from _alternate(work, 1, rounds, n + 1, _use_worker(n, rounds - 1))


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

    def plan(order: np.ndarray, closed: bool = False) -> np.ndarray:
        """The round's plan: each node's charge, then 1.0 if the route meets the deadline, else 0.0."""
        lengths = hop_lengths(field.coords, order, closed)  # one pass serves charges and delay
        return np.append(_round_charges(order, cfg.radio, lengths), float(check_delay(lengths, cfg.delay)))

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
        for round_idx, round_plan in zip(range(max_rounds), plans):
            charges = round_plan[:n]
            dying = np.flatnonzero(charges > residual)
            if len(dying):
                total = _left_sum(total, residual[dying])
                residual[dying] = 0.0
                first_death_round = round_idx + 1
                break
            residual -= charges
            total = _left_sum(total, charges)
            rounds_completed += 1
            if not round_plan[n]:
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
