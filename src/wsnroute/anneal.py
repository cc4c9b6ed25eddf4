"""Simulated-annealing route optimizer.

The annealer keeps the best route ever seen (elitism), so its output is
never longer than the initial route. Its one move is the segment reversal
(2-opt) of Croes (1958), which preserves the permutation property and is
scored in O(1) from the two links it relinks. Each invocation owns a
self-contained PCG64 stream, so runs are deterministic given (field,
initial, schedule, seed) and safe to launch concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import SensorField, hop_lengths
from .routes import Route, route_length, validate_route

# Decorrelates the SA initial permutation stream from the SA proposal stream.
_INIT_STREAM = 0xA5EED


@dataclass(frozen=True)
class AnnealSchedule:
    initial_temp: float
    cooling_factor: float
    iters_per_temp: int
    min_temp: float
    max_iters: int

    def __post_init__(self):
        for name in ("initial_temp", "min_temp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.cooling_factor < 1.0:
            raise ValueError(f"cooling_factor must be in (0, 1), got {self.cooling_factor}")
        if not self.min_temp > 0.0:
            raise ValueError(f"min_temp must be positive, got {self.min_temp}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.iters_per_temp < 1:
            raise ValueError(f"iters_per_temp must be >= 1, got {self.iters_per_temp}")
        if not self.initial_temp >= self.min_temp:  # a lower start would stop before the first proposal
            raise ValueError(f"initial_temp must be >= min_temp ({self.min_temp}), got {self.initial_temp}")


def random_initial_route(n: int, seed: int) -> Route:
    """Seeded random permutation used as the SA starting point."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _INIT_STREAM])))
    return Route(order=[int(v) for v in rng.permutation(n)])


def _mean_edge(field: SensorField, route: Route) -> float:
    """Mean hop length of ``route``; 1.0 when it has no hop."""
    n = len(route.order)
    edges = (n if route.closed else n - 1) if n > 1 else 0
    return route_length(field, route) / edges if edges else 1.0


def default_schedule(field: SensorField, initial: Route) -> AnnealSchedule:
    """Textbook settings scaled to the instance.

    T0 is half the initial route's mean edge length, cooling is geometric at
    0.95 with 20*n proposals per level, and the run stops at 1e-3 * T0. The
    iteration cap is exactly the budget needed to reach min_temp.
    """
    n = len(initial.order)
    t0 = max(0.5 * _mean_edge(field, initial), 1e-12)
    iters_per_temp = 20 * max(n, 1)
    levels = math.ceil(math.log(1e-3) / math.log(0.95))
    return AnnealSchedule(
        initial_temp=t0,
        cooling_factor=0.95,
        iters_per_temp=iters_per_temp,
        min_temp=1e-3 * t0,
        max_iters=levels * iters_per_temp,
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
    )


def _route_arrays(field: SensorField, route: Route) -> tuple[np.ndarray, np.ndarray]:
    """The annealer's route state, indexed by route position: ``order`` and ``xyl``.

    ``xyl`` is a (3, n + 1) array whose rows ``rx``, ``ry`` and ``lk`` hold
    the node coordinates in route order and, in ``lk[p]``, the length of the
    link from position p to p + 1. On a closed route ``lk[n - 1]`` is the
    link back to position 0; on an open one it is 0.0. Each row has a pad
    of 0.0 at position n.
    """
    n = len(route.order)
    order = np.array(route.order, dtype=np.intp)
    xyl = np.zeros((3, n + 1))
    xyl[:2, :n] = field.coords[order].T
    hops = hop_lengths(field.coords, order, route.closed)
    xyl[2, : len(hops)] = hops
    return order, xyl


def _two_opt_delta(i: int, j: int, x, y, lk, n: int, closed: bool) -> float:
    """Length change from reversing route positions i..j; O(1), interior links keep length.

    ``x``, ``y`` and ``lk`` are the rows ``rx``, ``ry`` and ``lk`` of
    ``_route_arrays``'s ``xyl``, read by position (memoryviews in the
    annealer). The link before i exists when ``i > 0 or closed``, the link
    after j when ``j < n - 1 or closed``; a closed route wraps both. The old
    links are read from ``lk``; only the new ones take a square root. The
    wraps are conditionals rather than ``% n``, which CPython 3.11 does not
    specialise for ints; this runs once per proposal.
    """
    if closed and (j - i + 1) >= n:
        return 0.0
    delta = 0.0
    if i > 0 or closed:
        p = i - 1 if i else n - 1
        dxa = x[p] - x[j]
        dya = y[p] - y[j]
        delta += math.sqrt(dxa * dxa + dya * dya) - lk[p]
    if j < n - 1 or closed:
        q = j + 1 if j < n - 1 else 0
        dxb = x[i] - x[q]
        dyb = y[i] - y[q]
        delta += math.sqrt(dxb * dxb + dyb * dyb) - lk[j]
    return delta


def _apply_move(order: np.ndarray, xyl: np.ndarray, views: tuple, i: int, j: int, closed: bool) -> None:
    """Reverse route positions i..j (2-opt) in place.

    ``order`` and ``xyl`` are ``_route_arrays``'s, and ``views`` the
    memoryviews of the rows of ``xyl``. The reversal reverses the links
    inside it, ``lk[i:j]``; then each of the two links it relinks gets its
    length again from the moved coordinates. The operands are those of
    ``_two_opt_delta`` up to sign, so ``lk`` stays equal to ``hop_lengths``
    of the new order, bit for bit.
    """
    x, y, lk = views
    n = len(order)
    stop = i - 1 if i else None
    order[i : j + 1] = order[j:stop:-1]
    xyl[:2, i : j + 1] = xyl[:2, j:stop:-1]
    xyl[2, i:j] = xyl[2, j - 1 : stop : -1]
    for p in (i - 1, j):
        if p < 0:
            if not closed:
                continue
            p = n - 1
        elif p == n - 1 and not closed:
            continue
        q = p + 1 if p < n - 1 else 0
        dx = x[p] - x[q]
        dy = y[p] - y[q]
        lk[p] = math.sqrt(dx * dx + dy * dy)


# Proposals are drawn _DRAW at a time. After _QUIET_STREAK rejections in a
# row the annealer scores proposals in numpy runs, the first _FIRST_RUN long
# and each later one twice the last, up to _LONGEST_RUN. A run whose accepted
# proposal lies _STAY or more into it is followed at once by a new run of
# _FIRST_RUN; an accept sooner than that hands the loop back to scalar
# proposals. At n=2000, runs of 4096 or more cost more per proposal than runs
# of 1024. The streak, the first run and the stay were tuned at n=2000 under
# --paper-budget, where a run costs about as much as ten scalar proposals;
# they move no output, only which path scores a proposal.
_DRAW = 8192
_QUIET_STREAK = 16
_FIRST_RUN = 128
_LONGEST_RUN = 1024
_STAY = 8


def _link_ends(ij: np.ndarray, n: int, closed: bool) -> np.ndarray:
    """Where the two links each move (i, j), i < j, of ``ij`` relinks are found in the flat ``xyl``.

    The links are ``_two_opt_delta``'s, in its order: the one before i and
    the one after j. Rows 0..1 of the result index the x of each new link's
    head, rows 2..3 its y, rows 4..7 the x and y of its tail, and rows 8..9
    the length of the old link it replaces, all in ``_route_arrays``'s
    ``xyl.reshape(-1)``. A closed route wraps position -1 to n - 1 and n to
    0. A link the move lacks is at the pad, position n, in every row, so
    that its new and old lengths are exactly 0.0: the links before an open
    route's start and after its end, and both links of a closed route's
    whole-cycle reversal.
    """
    i, j = ij
    p = i - 1
    q = j + 1
    if closed:
        p[p < 0] = n - 1
        q[q == n] = 0
        before = after = j - i + 1 >= n
    else:
        before = i == 0
        after = j == n - 1
    ends = np.array([[p, i], [j, q], [p, j]])
    ends[:, 0, before] = n
    ends[:, 1, after] = n
    heads, tails, old = ends
    w = n + 1
    return np.concatenate((heads, heads + w, tails, tails + w, old + 2 * w))


def _run_deltas(flat: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """``_two_opt_delta`` of each column of ``ends``, from ``_link_ends``.

    ``flat`` is ``_route_arrays``'s ``xyl.reshape(-1)``, with 0.0 at the
    pads. Each entry is the scalar function's value bit for bit: the same
    differences, squares, correctly rounded square roots, old link lengths
    and additions in the same order. A pad link adds 0.0 - 0.0, and x + 0.0
    is x, because a difference of a square root and a link length is never
    -0.0.
    """
    g = flat[ends]
    # in place on the head rows, so a run holds few temporaries
    d = g[:4]
    d -= g[4:8]
    d *= d
    s = d[:2]
    s += d[2:]
    np.sqrt(s, out=s)
    s -= g[8:]
    return s[0] + s[1]


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
    stats: dict | None = None,
) -> Route:
    """Anneal the initial route; returns the best route seen.

    Accepts a candidate when its length delta is <= 0, otherwise with
    probability exp(-delta/T). T is multiplied by the cooling factor every
    ``iters_per_temp`` proposals; the loop stops when T falls below
    ``min_temp`` or the proposal budget runs out. When ``stats`` is given,
    it receives the run's counters once the loop ends:
    ``proposals``, ``accepted``, ``uphill_accepted`` (accepted with delta
    > 0), ``scalar_scored`` and ``numpy_scored`` (the proposals decided by
    each path; they sum to ``proposals``), ``runs`` (numpy runs),
    ``final_temp``, and ``stop``: ``"min_temp"`` when T fell below
    ``min_temp``, else ``"budget"``.

    The route lives only in the position-indexed arrays of
    ``_route_arrays``: the order, the coordinates in route order and the
    link lengths, which every accept keeps up to date (``_apply_move``).
    Most proposals are rejected, in long quiet stretches. After
    ``_QUIET_STREAK`` rejections in a row, proposals are scored in numpy
    runs against the unchanged route; a run never crosses a cooling level or
    the end of a draw of ``_DRAW`` proposals. An accept ``_STAY`` or more
    proposals into a run starts the next run at once; a sooner one hands the
    loop back to scalar proposals, which read the arrays and the proposals
    through memoryviews. Runs read the positions of every link a move
    relinks, found once per draw.
    The result is the scalar loop's, bit for bit: the draws are the same,
    every delta is computed with the same IEEE operations, and numpy only
    picks candidates, with a test (``-delta/T > log(u) - 1e-9``) that admits
    every proposal the scalar test accepts. Each candidate is then decided
    by that scalar test, ``math.exp`` included.
    """
    validate_route(field, initial)
    n = len(initial.order)
    closed = initial.closed
    budget = schedule.max_iters if n > 1 else 0  # one node has no move
    order, xyl = _route_arrays(field, initial)
    flat = xyl.reshape(-1)
    views = x, y, lk = tuple(memoryview(row) for row in xyl)
    rng = np.random.Generator(np.random.PCG64(seed))
    cur_len = route_length(field, initial)
    best_len = cur_len
    best_order = order  # the live order while it is the best; a copy once an accept leaves it
    per_level = schedule.iters_per_temp
    temp = schedule.initial_temp
    it = accepted = uphill = numpy_scored = runs = 0
    pos = m = 0
    quiet = 0
    run = _FIRST_RUN
    # -delta / T overflows to -inf at tiny T; the candidate test wants that
    with np.errstate(over="ignore"):
        while it < budget and temp >= schedule.min_temp:
            if pos == m:
                m = min(_DRAW, budget - it)
                ij, u, log_u = _draw(rng, n, m)
                i_view, j_view, u_view = memoryview(ij[0]), memoryview(ij[1]), memoryview(u)
                ends = _link_ends(ij, n, closed)
                pos = 0
            if quiet < _QUIET_STREAK:
                step = 1
                i = i_view[pos]
                j = j_view[pos]
                delta = _two_opt_delta(i, j, x, y, lk, n, closed)
                accept = delta <= 0.0 or u_view[pos] < math.exp(-delta / temp)
            else:
                step = min(run, m - pos, per_level - it % per_level)
                deltas = _run_deltas(flat, ends[:, pos : pos + step])
                # deltas / -T is -delta / T bit for bit: the sign is set apart from the rounding
                picks = (deltas / -temp > log_u[pos : pos + step]).nonzero()[0]
                accept = False
                for c in picks.tolist():
                    delta = float(deltas[c])
                    if delta <= 0.0 or u_view[pos + c] < math.exp(-delta / temp):
                        accept = True
                        step = c + 1
                        i = i_view[pos + c]
                        j = j_view[pos + c]
                        break
                runs += 1
                numpy_scored += step
                run = min(2 * run, _LONGEST_RUN)
            pos += step
            it += step
            if accept:
                if best_order is order and not cur_len + delta < best_len:
                    best_order = order.copy()
                _apply_move(order, xyl, views, i, j, closed)
                cur_len += delta
                if cur_len < best_len:
                    best_len = cur_len
                    best_order = order
                accepted += 1
                uphill += delta > 0.0
                # a scalar step is 1, so only a late accept in a run stays batched
                quiet = _QUIET_STREAK if step > _STAY else 0
                run = _FIRST_RUN
            else:
                quiet += step
            if it % per_level == 0:
                temp *= schedule.cooling_factor
    if stats is not None:
        stats.update(
            proposals=it,
            accepted=accepted,
            uphill_accepted=uphill,
            scalar_scored=it - numpy_scored,
            numpy_scored=numpy_scored,
            runs=runs,
            final_temp=temp,
            stop="min_temp" if temp < schedule.min_temp else "budget",
        )
    # cur_len drifts by at most ~1 ulp per accepted move; the exact final
    # comparison keeps the non-increase guarantee unconditional.
    best = Route(order=best_order.tolist(), closed=closed)
    if route_length(field, best) <= route_length(field, initial):
        return best
    return Route(order=list(initial.order), closed=closed)

