"""Simulated-annealing route optimizer and an exact small-instance oracle.

The annealer keeps the best route ever seen (elitism), so its output is
never longer than the initial route. Moves are either a position swap or a
segment reversal (2-opt); both preserve the permutation property, and each
is scored in O(1) from the links it relinks. Each invocation owns a
self-contained PCG64 stream, so runs are deterministic given (field,
initial, schedule, seed) and safe to launch concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field import SensorField, distance_block
from .routes import Route, route_length, validate_route

MOVE_SWAP = "swap"
MOVE_TWO_OPT = "two_opt_reverse"
_MOVES = (MOVE_SWAP, MOVE_TWO_OPT)


@dataclass(frozen=True)
class AnnealSchedule:
    initial_temp: float
    cooling_factor: float
    iters_per_temp: int
    min_temp: float
    max_iters: int
    move_kind: str = MOVE_TWO_OPT

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError(f"cooling_factor must be in (0, 1), got {self.cooling_factor}")
        if not self.min_temp > 0.0:
            raise ValueError(f"min_temp must be positive, got {self.min_temp}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.iters_per_temp < 1:
            raise ValueError(f"iters_per_temp must be >= 1, got {self.iters_per_temp}")
        if self.initial_temp < 0.0:
            raise ValueError(f"initial_temp must be >= 0, got {self.initial_temp}")
        if self.move_kind not in _MOVES:
            raise ValueError(f"move_kind must be one of {_MOVES}, got {self.move_kind!r}")


def _mean_edge(field: SensorField, route: Route) -> float:
    """Mean hop length of ``route``; 1.0 when it has no hop."""
    n = len(route.order)
    edges = (n if route.closed else n - 1) if n > 1 else 0
    return route_length(field, route) / edges if edges else 1.0


def default_schedule(
    field: SensorField,
    initial: Route,
    move_kind: str = MOVE_TWO_OPT,
    max_iters: int | None = None,
) -> AnnealSchedule:
    """Textbook settings scaled to the instance.

    T0 is half the initial route's mean edge length, cooling is geometric at
    0.95 with 20*n proposals per level, and the run stops at 1e-3 * T0. The
    default iteration cap is exactly the budget needed to reach min_temp.
    """
    n = len(initial.order)
    t0 = max(0.5 * _mean_edge(field, initial), 1e-12)
    iters_per_temp = 20 * max(n, 1)
    levels = math.ceil(math.log(1e-3) / math.log(0.95))
    if max_iters is None:
        max_iters = levels * iters_per_temp
    return AnnealSchedule(
        initial_temp=t0,
        cooling_factor=0.95,
        iters_per_temp=iters_per_temp,
        min_temp=1e-3 * t0,
        max_iters=max_iters,
        move_kind=move_kind,
    )


def undersized_schedule(field: SensorField, initial: Route) -> AnnealSchedule:
    """Deliberately under-converged budget: 600*n proposals, cooled to greedy.

    This is the preset behind the bench harness's --paper-budget switch. At
    n=2000 from a random start it reliably leaves the anneal ~1.4-1.6x above
    the greedy constructor's length, reproducing the workbench's reference
    ordering (annealing worse than greedy) without being a strawman. The
    temperature starts low relative to typical move deltas and decays to
    near-greedy within the budget.
    """
    n = len(initial.order)
    t0 = max(0.05 * _mean_edge(field, initial), 1e-12)
    budget = 600 * max(n, 1)
    iters_per_temp = max(1, budget // 100)
    return AnnealSchedule(
        initial_temp=t0,
        cooling_factor=0.9,
        iters_per_temp=iters_per_temp,
        min_temp=1e-9 * t0,
        max_iters=budget,
        move_kind=MOVE_TWO_OPT,
    )


def _two_opt_delta(order: list[int], i: int, j: int, xs: list[float], ys: list[float], n: int, closed: bool) -> float:
    """Length change from reversing order[i..j]; O(1), interior edges keep length.

    The link before i exists when ``i > 0 or closed``, the link after j when
    ``j < n - 1 or closed``; a closed route wraps both. The wrap after j is a
    conditional rather than ``% n``, which CPython 3.11 does not specialise
    for ints; this runs once per proposal.
    """
    if closed and (j - i + 1) >= n:
        return 0.0
    oi = order[i]
    oj = order[j]
    delta = 0.0
    if i > 0 or closed:
        p = order[i - 1]
        dxa = xs[p] - xs[oj]
        dya = ys[p] - ys[oj]
        dxc = xs[p] - xs[oi]
        dyc = ys[p] - ys[oi]
        delta += math.sqrt(dxa * dxa + dya * dya) - math.sqrt(dxc * dxc + dyc * dyc)
    if j < n - 1 or closed:
        q = order[j + 1] if j < n - 1 else order[0]
        dxb = xs[oi] - xs[q]
        dyb = ys[oi] - ys[q]
        dxd = xs[oj] - xs[q]
        dyd = ys[oj] - ys[q]
        delta += math.sqrt(dxb * dxb + dyb * dyb) - math.sqrt(dxd * dxd + dyd * dyd)
    return delta


def _swap_delta(order: list[int], i: int, j: int, xs: list[float], ys: list[float], n: int, closed: bool) -> float:
    """Length change from exchanging order[i] and order[j], i < j; O(1).

    Neighbouring positions are a two-node reversal. Otherwise each node takes
    over the other's links: the outer ones change as in reversing
    order[i..j], and the inner neighbours order[i + 1] and order[j - 1] trade
    one node for the other. On a closed route this covers positions 0 and
    n - 1 too: reversing the whole cycle changes nothing, and their shared
    link stays.
    """
    if j == i + 1:
        return _two_opt_delta(order, i, j, xs, ys, n, closed)
    a = order[i]
    b = order[j]
    r = order[i + 1]
    s = order[j - 1]
    dxa = xs[b] - xs[r]
    dya = ys[b] - ys[r]
    dxc = xs[a] - xs[r]
    dyc = ys[a] - ys[r]
    dxb = xs[a] - xs[s]
    dyb = ys[a] - ys[s]
    dxd = xs[b] - xs[s]
    dyd = ys[b] - ys[s]
    inner = math.sqrt(dxa * dxa + dya * dya) - math.sqrt(dxc * dxc + dyc * dyc)
    inner += math.sqrt(dxb * dxb + dyb * dyb) - math.sqrt(dxd * dxd + dyd * dyd)
    return _two_opt_delta(order, i, j, xs, ys, n, closed) + inner


# Proposals are drawn _DRAW at a time. After _QUIET_STREAK rejections in a row
# the annealer scores them in numpy runs, the first _FIRST_RUN long and each
# later one twice the last, up to _LONGEST_RUN, until a run holds an accepted
# proposal. At n=2000, runs of 4096 or more cost more per proposal than runs
# of 1024.
_DRAW = 8192
_QUIET_STREAK = 48
_FIRST_RUN = 64
_LONGEST_RUN = 1024
# A 2-opt anneal of fewer than _TWO_OPT_BATCH_MIN_N nodes stays scalar. There
# the whole route's reversal, a zero-delta move that is always accepted, is
# one proposal in a few dozen, so most numpy runs end after a few proposals
# and cost more than they save: on a 2-vCPU x86-64 VM, ten 50,000-proposal
# open anneals took 4-27% longer batched at n = 6-10 and 4-6% less at n = 12.
# Swaps have no such move; batched swap anneals at n = 5-16 took 37-48% of
# the scalar time.
_TWO_OPT_BATCH_MIN_N = 11
# A move (i, j) relinks the nodes at route positions p = i - 1, a = i, b = j,
# q = j + 1 and, for a swap, r = i + 1 and s = j - 1: row 0 (i) or 1 (j) of
# the move, plus an offset.
_ENDS = {"p": (0, -1), "a": (0, 0), "b": (1, 0), "q": (1, 1), "r": (0, 1), "s": (1, -1)}


def _links(heads: str, tails: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows and offsets of each link's head, then of each link's tail."""
    rows, offsets = zip(*(_ENDS[e] for e in heads + tails))
    return np.array(rows), np.array(offsets)[:, None]


# _two_opt_delta's and _swap_delta's links, in their order: each new link,
# then the old link it replaces.
_TWO_OPT_LINKS = _links("ppab", "baqq")
_SWAP_LINKS = _links("ppabbaab", "baqqrrss")


def _batch_deltas(order: np.ndarray, ij: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                  closed: bool, two_opt: bool) -> np.ndarray:
    """``_two_opt_delta`` or ``_swap_delta`` of each column (i, j), i < j, of ``ij``.

    Each entry is the scalar function's value bit for bit: the same
    differences, squares, correctly rounded square roots and additions in
    the same order, with the links a position lacks adding exactly 0.0.
    """
    n = len(order)
    rows, offsets = _TWO_OPT_LINKS if two_opt else _SWAP_LINKS
    # mode="wrap" takes position -1 to the last node and n to the first
    nodes = np.take(order, ij[rows] + offsets, mode="wrap")
    links = len(nodes) // 2
    x = xs[nodes]
    y = ys[nodes]
    # in place on the head rows, so a run holds few temporaries
    dx = x[:links]
    dx -= x[links:]
    dx *= dx
    dy = y[:links]
    dy -= y[links:]
    dy *= dy
    dx += dy
    d = np.sqrt(dx, out=dx)
    change = d[0::2] - d[1::2]  # new minus old, per relinked pair
    i, j = ij
    if closed:
        delta = np.where(j - i + 1 >= n, 0.0, change[0] + change[1])
    else:
        delta = np.where(i > 0, change[0], 0.0) + np.where(j < n - 1, change[1], 0.0)
    if two_opt:
        return delta
    return np.where(j == i + 1, delta, delta + (change[2] + change[3]))


def _draw(rng: np.random.Generator, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next m proposals: moves (i, j), i < j, as a (2, m) array, u, and log(u) - 1e-9.

    Every proposal consumes (i, j, u), drawn in three calls per block, and
    (i, j) is uniform over distinct pairs.
    """
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n - 1, size=m)
    u = rng.random(m)
    j += j >= i
    with np.errstate(divide="ignore"):
        log_u = np.log(u) - 1e-9
    return np.stack((np.minimum(i, j), np.maximum(i, j))), u, log_u


def sa_route(
    field: SensorField,
    initial: Route,
    schedule: AnnealSchedule,
    seed: int,
    history: list[float] | None = None,
) -> Route:
    """Anneal the initial route; returns the best route seen.

    Accepts a candidate when its length delta is <= 0, otherwise with
    probability exp(-delta/T). T is multiplied by the cooling factor every
    ``iters_per_temp`` proposals; the loop stops when T falls below
    ``min_temp`` or the proposal budget runs out. When ``history`` is given,
    the best-seen length is appended after every proposal.

    Most proposals are rejected, in long quiet stretches. After
    ``_QUIET_STREAK`` rejections in a row (never, for a 2-opt anneal of
    fewer than ``_TWO_OPT_BATCH_MIN_N`` nodes), proposals are scored in numpy
    runs against the unchanged route until one is accepted; a run never
    crosses a cooling level or the end of a draw of ``_DRAW`` proposals.
    The result is the scalar loop's, bit for bit: the draws are the same,
    every delta is computed with the same IEEE operations, and numpy only
    picks candidates, with a test (``-delta/T > log(u) - 1e-9``) that
    admits every proposal the scalar test accepts. Each candidate is then
    decided by that scalar test, ``math.exp`` included.
    """
    schedule.validate()
    validate_route(field, initial)
    n = len(initial.order)
    order = list(initial.order)
    closed = initial.closed
    if schedule.max_iters == 0 or n < 2:
        return Route(order=order, closed=closed)

    xy = field.coords
    xs_arr = xy[:, 0]
    ys_arr = xy[:, 1]
    xs = xs_arr.tolist()
    ys = ys_arr.tolist()
    order_arr = np.array(order, dtype=np.intp)
    rng = np.random.Generator(np.random.PCG64(seed))
    cur_len = route_length(field, initial)
    best_len = cur_len
    best_order = list(order)
    two_opt = schedule.move_kind == MOVE_TWO_OPT
    move_delta = _two_opt_delta if two_opt else _swap_delta
    per_level = schedule.iters_per_temp
    temp = schedule.initial_temp
    it = 0
    pos = m = 0
    quiet = 0
    run = _FIRST_RUN
    streak = math.inf if two_opt and n < _TWO_OPT_BATCH_MIN_N else _QUIET_STREAK
    while it < schedule.max_iters and temp >= schedule.min_temp:
        if pos == m:
            m = min(_DRAW, schedule.max_iters - it)
            ij, u, log_u = _draw(rng, n, m)
            buf_i = ij[0].tolist()
            buf_j = ij[1].tolist()
            buf_u = u.tolist()
            pos = 0
        if quiet < streak:
            step = 1
            i = buf_i[pos]
            j = buf_j[pos]
            delta = move_delta(order, i, j, xs, ys, n, closed)
            accept = delta <= 0.0 or buf_u[pos] < math.exp(-delta / temp)
        else:
            step = min(run, m - pos, per_level - it % per_level)
            deltas = _batch_deltas(order_arr, ij[:, pos : pos + step], xs_arr, ys_arr, closed, two_opt)
            with np.errstate(over="ignore"):
                picks = np.flatnonzero(-deltas / temp > log_u[pos : pos + step])
            accept = False
            for c in picks.tolist():
                delta = float(deltas[c])
                if delta <= 0.0 or buf_u[pos + c] < math.exp(-delta / temp):
                    accept = True
                    step = c + 1
                    i = buf_i[pos + c]
                    j = buf_j[pos + c]
                    break
            run = min(2 * run, _LONGEST_RUN)
            if history is not None:
                history.extend([best_len] * (step - 1))
        pos += step
        it += step
        if accept:
            if two_opt:
                order[i : j + 1] = order[j : i - 1 if i else None : -1]
                order_arr[i : j + 1] = order_arr[i : j + 1][::-1]
            else:
                order[i], order[j] = order[j], order[i]
                order_arr[i], order_arr[j] = order[i], order[j]
            cur_len += delta
            if cur_len < best_len:
                best_len = cur_len
                best_order = order.copy()
            quiet = 0
            run = _FIRST_RUN
        else:
            quiet += step
        if it % per_level == 0:
            temp *= schedule.cooling_factor
        if history is not None:
            history.append(best_len)
    # cur_len drifts by at most ~1 ulp per accepted move; the exact final
    # comparison keeps the non-increase guarantee unconditional.
    best = Route(order=best_order, closed=closed)
    if route_length(field, best) <= route_length(field, initial):
        return best
    return Route(order=list(initial.order), closed=closed)


_BATCH = 200_000


def brute_force_optimal(field: SensorField, start: int | None = None) -> Route:
    """Exhaustive minimum-length open path; verification oracle.

    Enumerates permutations in lexicographic order (fixing ``start`` up front
    when given) so exact length ties resolve to the lexicographically first
    order. Refuses n > 10.
    """
    n = len(field)
    if n > 10:
        raise ValueError(f"exhaustive search refuses n={n} > 10")
    if start is not None and not 0 <= start < n:
        raise ValueError(f"start node {start} out of range for n={n}")
    if n == 1:
        return Route(order=[0])
    d = distance_block(field.coords, 0, n)
    if start is None:
        tail = list(range(n))
        prefix = None
    else:
        tail = [i for i in range(n) if i != start]
        prefix = start
    m = len(tail)
    best_val = np.inf
    best_perm: np.ndarray | None = None
    perms = itertools.permutations(tail)
    while True:
        batch = list(itertools.islice(perms, _BATCH))
        if not batch:
            break
        arr = np.fromiter(
            itertools.chain.from_iterable(batch), dtype=np.intp, count=len(batch) * m
        ).reshape(-1, m)
        if prefix is not None:
            arr = np.hstack([np.full((arr.shape[0], 1), prefix, dtype=np.intp), arr])
        lengths = d[arr[:, :-1], arr[:, 1:]].sum(axis=1)
        idx = int(np.argmin(lengths))
        if lengths[idx] < best_val:
            best_val = float(lengths[idx])
            best_perm = arr[idx].copy()
    assert best_perm is not None
    return Route(order=[int(v) for v in best_perm])
