"""Annealer and exhaustive-oracle tests."""

import math

import numpy as np
import pytest

from wsnroute import (
    AnnealSchedule,
    Point,
    Route,
    SensorField,
    brute_force_optimal,
    generate_uniform,
    nn_route,
    route_length,
    sa_route,
)
from wsnroute.anneal import (
    MOVE_SWAP,
    MOVE_TWO_OPT,
    _swap_delta,
    _two_opt_delta,
    default_schedule,
    undersized_schedule,
)
from wsnroute.bench import random_initial_route


def tiny_schedule(max_iters=2000, move_kind=MOVE_TWO_OPT, initial_temp=1.0):
    return AnnealSchedule(
        initial_temp=initial_temp,
        cooling_factor=0.95,
        iters_per_temp=50,
        min_temp=1e-12,
        max_iters=max_iters,
        move_kind=move_kind,
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
        dict(move_kind="three_opt"),
    ):
        with pytest.raises(ValueError):
            AnnealSchedule(**{**ok, **bad})


# --- move deltas ---


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_move_deltas_match_exact_length_change(n, closed):
    # every i < j: adjacent positions and, when closed, the 0 / n - 1 seam
    rng = np.random.default_rng(100 * n + closed)
    for _ in range(20):
        f = SensorField(coords=rng.random((n, 2)) * 1000, width=1000, height=1000)
        xs = f.coords[:, 0].tolist()
        ys = f.coords[:, 1].tolist()
        order = [int(v) for v in rng.permutation(n)]
        before = route_length(f, Route(order=order, closed=closed))
        for i in range(n):
            for j in range(i + 1, n):
                reversed_ = order[:i] + order[i : j + 1][::-1] + order[j + 1 :]
                swapped = list(order)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                for delta, after in ((_two_opt_delta, reversed_), (_swap_delta, swapped)):
                    exact = route_length(f, Route(order=after, closed=closed)) - before
                    got = delta(order, i, j, xs, ys, n, closed)
                    assert got == pytest.approx(exact, abs=1e-9), (delta.__name__, order, i, j)


# --- annealer behavior ---


def test_zero_budget_returns_initial_unchanged():
    f = generate_uniform(12, 100, 100, seed=4)
    initial = random_initial_route(12, 4)
    out = sa_route(f, initial, tiny_schedule(max_iters=0), seed=4)
    assert out.order == initial.order
    assert out is not initial


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
        move_kind=MOVE_TWO_OPT,
    )
    sa_route(f, initial, sched, seed=6, history=history)
    assert history
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_elitism_never_worse_than_initial():
    rng = np.random.default_rng(31)
    for move in (MOVE_TWO_OPT, MOVE_SWAP):
        for _ in range(10):
            n = int(rng.integers(5, 30))
            seed = int(rng.integers(2**32))
            f = generate_uniform(n, 500, 500, seed=seed)
            initial = random_initial_route(n, seed)
            out = sa_route(f, initial, tiny_schedule(move_kind=move), seed=seed)
            assert route_length(f, out) <= route_length(f, initial)


def test_deterministic_for_fixed_seed():
    f = generate_uniform(25, 100, 100, seed=8)
    initial = random_initial_route(25, 8)
    a = sa_route(f, initial, tiny_schedule(), seed=8)
    b = sa_route(f, initial, tiny_schedule(), seed=8)
    assert a.order == b.order


def test_moves_preserve_permutation():
    for move in (MOVE_TWO_OPT, MOVE_SWAP):
        f = generate_uniform(15, 100, 100, seed=2)
        initial = random_initial_route(15, 2)
        out = sa_route(f, initial, tiny_schedule(move_kind=move), seed=2)
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
        move_kind=MOVE_TWO_OPT,
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
    assert sched.move_kind == MOVE_TWO_OPT


def test_undersized_schedule_caps_budget():
    f = generate_uniform(50, 1000, 1000, seed=7)
    initial = random_initial_route(50, 7)
    sched = undersized_schedule(f, initial)
    assert sched.max_iters == 600 * 50
