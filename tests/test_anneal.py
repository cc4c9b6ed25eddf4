"""Annealer and exhaustive-oracle tests."""

import dataclasses
import math

import numpy as np
import pytest

from wsnroute import (
    AnnealSchedule,
    Route,
    SensorField,
    generate_uniform,
    nn_route,
    route_length,
    sa_route,
)
from wsnroute import anneal
from wsnroute.anneal import (
    _apply_move,
    _route_arrays,
    _two_opt_delta,
    default_schedule,
    undersized_schedule,
)
from wsnroute.bench import random_initial_route
from wsnroute.field import hop_lengths
from oracles import Point, brute_force_optimal


def tiny_schedule(max_iters=2000, initial_temp=1.0):
    return AnnealSchedule(
        initial_temp=initial_temp,
        cooling_factor=0.95,
        iters_per_temp=50,
        min_temp=1e-12,
        max_iters=max_iters,
    )


# --- the exhaustive oracle, pinned before anything relies on it ---


def test_oracle_collinear_monotone():
    pts = tuple(Point(float(x), 0.0) for x in (0, 2, 5, 9))
    f = SensorField(coords=pts, width=9, height=1)
    best = brute_force_optimal(f, start=0)
    assert best.order == [0, 1, 2, 3]
    assert route_length(f, best) == 9.0


def test_oracle_two_nodes():
    f = generate_uniform(2, 10, 10, seed=0)
    assert brute_force_optimal(f).order in ([0, 1], [1, 0])
    assert brute_force_optimal(f, start=1).order == [1, 0]


def test_oracle_beats_random_permutations():
    f = generate_uniform(8, 100, 100, seed=3)
    opt_len = route_length(f, brute_force_optimal(f))
    rng = np.random.default_rng(1)
    for _ in range(1000):
        perm = [int(v) for v in rng.permutation(8)]
        assert route_length(f, Route(order=perm)) >= opt_len


def test_oracle_fixed_start_stays_put():
    f = generate_uniform(7, 100, 100, seed=9)
    for start in range(7):
        assert brute_force_optimal(f, start=start).order[0] == start


def test_oracle_refuses_large_instances():
    f = generate_uniform(11, 10, 10, seed=0)
    with pytest.raises(ValueError):
        brute_force_optimal(f)


# --- schedule validation ---


def test_schedule_rejects_bad_values():
    ok = dict(initial_temp=1.0, cooling_factor=0.9, iters_per_temp=10, min_temp=1e-6, max_iters=10)
    AnnealSchedule(**ok)
    for bad in (
        dict(cooling_factor=0.0),
        dict(cooling_factor=1.0),
        dict(min_temp=0.0),
        dict(max_iters=-1),
        dict(iters_per_temp=0),
        dict(initial_temp=-1.0),
        dict(initial_temp=math.nan),
        dict(initial_temp=math.inf),
        dict(min_temp=math.inf),
        # below min_temp, a run would stop before its first proposal
        dict(initial_temp=0.0),
        dict(initial_temp=1e-300),
        dict(initial_temp=0.5e-6),
        dict(min_temp=2.0),
    ):
        with pytest.raises(ValueError):
            AnnealSchedule(**{**ok, **bad})
    AnnealSchedule(**{**ok, "initial_temp": ok["min_temp"]})  # one level of proposals


# --- move deltas ---


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_move_deltas_match_exact_length_change(n, closed):
    # every i < j: adjacent positions and, when closed, the 0 / n - 1 seam;
    # the numpy deltas of the annealer's quiet stretches equal the scalar ones bit for bit
    rng = np.random.default_rng(100 * n + closed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ij = np.array(pairs).T
    for _ in range(20):
        f = SensorField(coords=rng.random((n, 2)) * 1000, width=1000, height=1000)
        order = [int(v) for v in rng.permutation(n)]
        before = route_length(f, Route(order=order, closed=closed))
        _, xyl = _route_arrays(f, Route(order=order, closed=closed))
        x, y, lk = (memoryview(row) for row in xyl)
        batched = anneal._run_deltas(xyl.reshape(-1), anneal._link_ends(ij, n, closed)).tolist()
        for k, (i, j) in enumerate(pairs):
            reversed_ = order[:i] + order[i : j + 1][::-1] + order[j + 1 :]
            exact = route_length(f, Route(order=reversed_, closed=closed)) - before
            got = _two_opt_delta(i, j, x, y, lk, n, closed)
            assert got == pytest.approx(exact, abs=1e-9), (order, i, j)
            assert batched[k] == got, (order, i, j)


# The seed and the "True-" in each case id are those of the 2-opt cases from
# when this test also ran a position-swap move, so each case keeps its field and name.
@pytest.mark.parametrize("closed", [False, True], ids=["True-False", "True-True"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_accepted_moves_keep_link_lengths_exact(n, closed):
    # after every move the route arrays are those of the new order: the
    # coordinates, and each link's length bit for bit as hop_lengths gives it
    rng = np.random.default_rng(10 * n + 2 + closed)
    f = SensorField(coords=rng.random((n, 2)) * 1000, width=1000, height=1000)
    order = [int(v) for v in rng.permutation(n)]
    got_order, xyl = _route_arrays(f, Route(order=order, closed=closed))
    views = tuple(memoryview(row) for row in xyl)
    # the 0 / n - 1 seam first, then neighbours, then any pair
    moves = [(0, n - 1), (0, 1), (n - 2, n - 1)] + [tuple(sorted(rng.choice(n, 2, replace=False)))
                                                    for _ in range(200)]
    hops = n if closed else n - 1
    for i, j in moves:
        i, j = int(i), int(j)
        order[i : j + 1] = order[i : j + 1][::-1]
        _apply_move(got_order, xyl, views, i, j, closed)
        rx, ry, lk = xyl
        assert got_order.tolist() == order, (i, j)
        assert rx[:n].tolist() == f.coords[order, 0].tolist()
        assert ry[:n].tolist() == f.coords[order, 1].tolist()
        assert lk[:hops].tobytes() == hop_lengths(f.coords, order, closed).tobytes(), (order, i, j)
        assert (rx[n], ry[n], lk[n]) == (0.0, 0.0, 0.0)
        assert lk[n - 1] == 0.0 or closed


# --- annealer behavior ---


def test_zero_budget_returns_initial_unchanged():
    f = generate_uniform(12, 100, 100, seed=4)
    initial = random_initial_route(12, 4)
    stats = {}
    out = sa_route(f, initial, tiny_schedule(max_iters=0), seed=4, stats=stats)
    assert out.order == initial.order
    assert out is not initial
    assert stats == dict(proposals=0, accepted=0, uphill_accepted=0, scalar_scored=0, numpy_scored=0,
                         runs=0, final_temp=1.0, stop="budget")


def test_degenerate_greedy_history_non_increasing():
    # near-zero temperature: only improving moves are ever accepted
    f = generate_uniform(20, 100, 100, seed=6)
    initial = random_initial_route(20, 6)
    history: list[float] = []
    sched = AnnealSchedule(
        initial_temp=1e-12,
        cooling_factor=0.95,
        iters_per_temp=100,
        min_temp=1e-15,
        max_iters=3000,
    )
    sa_route(f, initial, sched, seed=6, history=history)
    assert history
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_elitism_never_worse_than_initial():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(5, 30))
        seed = int(rng.integers(2**32))
        f = generate_uniform(n, 500, 500, seed=seed)
        initial = random_initial_route(n, seed)
        out = sa_route(f, initial, tiny_schedule(), seed=seed)
        assert route_length(f, out) <= route_length(f, initial)


def test_deterministic_for_fixed_seed():
    f = generate_uniform(25, 100, 100, seed=8)
    initial = random_initial_route(25, 8)
    a = sa_route(f, initial, tiny_schedule(), seed=8)
    b = sa_route(f, initial, tiny_schedule(), seed=8)
    assert a.order == b.order


def test_moves_preserve_permutation():
    f = generate_uniform(15, 100, 100, seed=2)
    initial = random_initial_route(15, 2)
    out = sa_route(f, initial, tiny_schedule(), seed=2)
    assert sorted(out.order) == list(range(15))


def test_closed_route_annealing():
    f = generate_uniform(12, 100, 100, seed=14)
    initial = Route(order=random_initial_route(12, 14).order, closed=True)
    out = sa_route(f, initial, tiny_schedule(), seed=14)
    assert out.closed
    assert route_length(f, out) <= route_length(f, initial)


def test_finds_optimum_on_small_instance():
    f = generate_uniform(8, 1000, 1000, seed=1)
    initial = random_initial_route(8, 1)
    base = default_schedule(f, initial)
    sched = AnnealSchedule(
        initial_temp=base.initial_temp,
        cooling_factor=0.95,
        iters_per_temp=base.iters_per_temp,
        min_temp=1e-9 * base.initial_temp,
        max_iters=50000,
    )
    sa_len = route_length(f, sa_route(f, initial, sched, seed=1))
    opt_len = route_length(f, brute_force_optimal(f))
    assert math.isclose(sa_len, opt_len, rel_tol=1e-12)


def test_default_schedule_shape():
    f = generate_uniform(50, 1000, 1000, seed=7)
    initial = nn_route(f, 0)
    sched = default_schedule(f, initial)
    mean_edge = route_length(f, initial) / 49
    assert sched.initial_temp == pytest.approx(0.5 * mean_edge)
    assert sched.min_temp == pytest.approx(1e-3 * sched.initial_temp)
    assert sched.iters_per_temp == 1000


def test_undersized_schedule_caps_budget():
    f = generate_uniform(50, 1000, 1000, seed=7)
    initial = random_initial_route(50, 7)
    sched = undersized_schedule(f, initial)
    assert sched.max_iters == 600 * 50


# --- the batched annealer against the scalar loop it replaced ---


def _ref_two_opt_delta(order, i, j, xs, ys, n, closed):
    """Length change from reversing order[i..j], read through node-indexed coordinates."""
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


def _sa_reference(field, initial, schedule, seed, history=None, decisions=None):
    """``sa_route`` as a plain scalar loop: one proposal, one delta, one test.

    ``decisions``, when given, receives ``(delta, u, temp, accepted)`` for
    every proposal.
    """
    n = len(initial.order)
    order = list(initial.order)
    closed = initial.closed
    if schedule.max_iters == 0 or n < 2:
        return Route(order=order, closed=closed)
    xs = field.coords[:, 0].tolist()
    ys = field.coords[:, 1].tolist()
    rng = np.random.Generator(np.random.PCG64(seed))
    cur_len = route_length(field, initial)
    best_len = cur_len
    best_order = list(order)
    temp = schedule.initial_temp
    it = 0
    buf_i: list[int] = []
    buf_j: list[int] = []
    buf_u: list[float] = []
    pos = 0
    while it < schedule.max_iters and temp >= schedule.min_temp:
        if pos == len(buf_i):
            m = min(8192, schedule.max_iters - it)
            buf_i = rng.integers(0, n, size=m).tolist()
            buf_j = rng.integers(0, n - 1, size=m).tolist()
            buf_u = rng.random(m).tolist()
            pos = 0
        i = buf_i[pos]
        j = buf_j[pos]
        u = buf_u[pos]
        pos += 1
        if j >= i:
            j += 1
        if i > j:
            i, j = j, i
        delta = _ref_two_opt_delta(order, i, j, xs, ys, n, closed)
        accepted = delta <= 0.0 or u < math.exp(-delta / temp)
        if decisions is not None:
            decisions.append((delta, u, temp, accepted))
        if accepted:
            order[i : j + 1] = order[j : i - 1 if i else None : -1]
            cur_len += delta
            if cur_len < best_len:
                best_len = cur_len
                best_order = order.copy()
        it += 1
        if it % schedule.iters_per_temp == 0:
            temp *= schedule.cooling_factor
        if history is not None:
            history.append(best_len)
    best = Route(order=best_order, closed=closed)
    if route_length(field, best) <= route_length(field, initial):
        return best
    return Route(order=list(initial.order), closed=closed)


def _schedules(f, initial):
    """Schedules whose levels, draws and stops fall at awkward proposal counts."""
    n = len(initial.order)
    t0 = max(route_length(f, initial) / n, 1e-12)
    default = default_schedule(f, initial)
    cap = 30_000 if n > 30 else default.max_iters  # keeps larger fields quick; 30000 is not a multiple of 8192
    return {
        "default": dataclasses.replace(default, max_iters=cap),
        "undersized": undersized_schedule(f, initial),
        # dense acceptance: the numpy phase is entered and left again and again
        "hot": AnnealSchedule(initial_temp=5 * t0, cooling_factor=0.97, iters_per_temp=997,
                              min_temp=1e-6 * t0, max_iters=20_000),
        # levels of 3001 proposals; min_temp stops the run after 6 levels, 1622
        # proposals into the third draw and well short of max_iters
        "min-temp-stop": AnnealSchedule(initial_temp=0.05 * t0, cooling_factor=0.25,
                                        iters_per_temp=3001, min_temp=0.05 * t0 * 0.25**5,
                                        max_iters=50_000),
        # accepts a few hundred proposals apart once the route settles, so runs
        # accept _STAY or more proposals in and the next run follows at once
        "sparse": AnnealSchedule(initial_temp=0.02 * t0, cooling_factor=0.9, iters_per_temp=2000,
                                 min_temp=1e-9 * t0, max_iters=8000),
        # -delta/T overflows to -inf, which numpy would warn about
        "frozen": AnnealSchedule(initial_temp=1e-306, cooling_factor=0.5, iters_per_temp=500,
                                 min_temp=1e-315, max_iters=5000),
    }


def _assert_matches_reference(f, initial, sched, name):
    """``sa_route`` against ``_sa_reference`` under one schedule: the route, the history and every counter.

    Returns the proposals numpy scored, and how many of them it must have
    scored because they came after ``_QUIET_STREAK`` rejections in a row.
    """
    want_history: list[float] = []
    got_history: list[float] = []
    decisions = []
    stats = {}
    want = _sa_reference(f, initial, sched, seed=7, history=want_history, decisions=decisions)
    got = sa_route(f, initial, sched, seed=7, history=got_history, stats=stats)
    assert got == want, name
    assert got_history == want_history, name
    assert stats["proposals"] == len(decisions) == stats["scalar_scored"] + stats["numpy_scored"]
    assert stats["accepted"] == sum(d[3] for d in decisions)
    assert stats["uphill_accepted"] == sum(d[3] and d[0] > 0.0 for d in decisions)
    final = decisions[-1][2]  # the last proposal's T, cooled if it ended a level
    if len(decisions) % sched.iters_per_temp == 0:
        final *= sched.cooling_factor
    assert stats["final_temp"] == final, name
    assert stats["stop"] == ("min_temp" if final < sched.min_temp else "budget"), name
    # a proposal after _QUIET_STREAK rejections in a row is always scored in
    # numpy; any more come from runs that accepted late and stayed batched
    quiet = streak = 0
    for delta, u, temp, accepted in decisions:
        quiet += streak >= anneal._QUIET_STREAK
        streak = 0 if accepted else streak + 1
    assert stats["numpy_scored"] >= quiet, name
    return stats["numpy_scored"], quiet


# Case ids name the move, as they did when a position-swap move was also checked.
@pytest.mark.parametrize("closed", [False, True], ids=["two_opt_reverse-False", "two_opt_reverse-True"])
@pytest.mark.parametrize("n", [2, 3, 5, 30, 200])
def test_sa_route_matches_scalar_reference(n, closed):
    f = generate_uniform(n, 1000, 1000, seed=n)
    initial = Route(order=random_initial_route(n, n).order, closed=closed)
    numpy_scored = 0
    for name, sched in _schedules(f, initial).items():
        scored, quiet = _assert_matches_reference(f, initial, sched, name)
        if name == "sparse" and n >= 30:
            assert scored > quiet, name
        numpy_scored += scored
    if n >= 30:
        # smaller routes keep accepting zero-delta moves (a whole or nearly whole
        # reversal), so their quiet stretches are rare or never come
        assert numpy_scored > 50_000


def _adversarial_fields():
    rng = np.random.default_rng(66)
    lattice = np.array([(10.0 * x, 10.0 * y) for y in range(8) for x in range(8)])
    x = rng.choice(1000, 40, replace=False).astype(float)
    centres = np.array([(100.0, 100.0), (700.0, 200.0), (400.0, 800.0)])
    return {
        "lattice": lattice,
        "lattice-duplicates": np.concatenate((lattice, lattice[rng.integers(0, 64, 20)])),
        "collinear": np.stack((x, 0.5 * x), axis=1),
        "coincident": np.full((25, 2), 5.0),
        "clusters": np.round(centres[np.arange(30) % 3] + rng.normal(0.0, 20.0, (30, 2))),
    }


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("field", sorted(_adversarial_fields()))
def test_sa_route_matches_scalar_reference_on_adversarial_fields(field, closed):
    # exact length ties, zero-length links and zero deltas, which uniform fields never give
    xy = _adversarial_fields()[field]
    f = SensorField(coords=xy, width=1000, height=1000)
    n = len(xy)
    initial = Route(order=random_initial_route(n, n).order, closed=closed)
    numpy_scored = 0
    for name, sched in _schedules(f, initial).items():
        numpy_scored += _assert_matches_reference(f, initial, sched, f"{field} {name}")[0]
    # on coincident points every delta is 0.0 and every move accepted, so no stretch is quiet
    assert (numpy_scored == 0) == (field == "coincident")


# Each initial_temp puts one proposal, in a quiet stretch of the first level,
# where only the scalar test decides it as the scalar loop does. For "margin",
# -delta/T lies less than 1e-9 below log(u): numpy's candidate test admits a
# proposal that math.exp rejects. For "exp-ulp", u is the smaller of
# math.exp(-delta/T) and np.exp(-delta/T), which differ by one ulp. The
# temperatures were found by scaling T0 until a proposal of a scalar run
# landed there, and are pinned. Case ids name the move, as they did when a
# position-swap move was also checked.
_THRESHOLD_CASES = [
    ("margin", False, 7, 43.21804379152389),
    ("exp-ulp", False, 12, 44.116645893306725),
    ("margin", True, 0, 49.569086699185355),
    ("exp-ulp", True, 8, 46.87137967601134),
]


@pytest.mark.parametrize("kind, closed, seed, t0", _THRESHOLD_CASES,
                         ids=[f"{k}-two_opt_reverse-{c}-{s}-{t}" for k, c, s, t in _THRESHOLD_CASES])
def test_sa_route_decides_threshold_proposals_with_math_exp(kind, closed, seed, t0):
    f = generate_uniform(30, 1000, 1000, seed=30)
    initial = Route(order=random_initial_route(30, 30).order, closed=closed)
    sched = AnnealSchedule(initial_temp=t0, cooling_factor=0.5, iters_per_temp=4000,
                           min_temp=1e-30, max_iters=40_000)
    decisions = []
    want_history: list[float] = []
    want = _sa_reference(f, initial, sched, seed, history=want_history, decisions=decisions)
    hits = streak = 0
    for delta, u, temp, accepted in decisions:
        x = -delta / temp
        if streak >= anneal._QUIET_STREAK and delta > 0.0 and u > 0.0:
            if kind == "margin":
                hits += not accepted and x > np.log(u) - 1e-9
            else:
                hits += (u < math.exp(x)) != (u < np.exp(x))
        streak = 0 if accepted else streak + 1
    got_history: list[float] = []
    got = sa_route(f, initial, sched, seed, history=got_history)
    assert got == want
    assert got_history == want_history
    if kind == "exp-ulp" and not hits:
        pytest.skip("np.exp agrees with math.exp at the pinned proposal on this platform")
    assert hits == 1
