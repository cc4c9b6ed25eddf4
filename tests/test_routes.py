"""Greedy route construction and length accounting tests."""

import gc
import weakref

import numpy as np
import pytest

from wsnroute import (
    KnnGraph,
    Route,
    SensorField,
    build_knn_graph,
    generate_uniform,
    nn_route,
    route_length,
)
from wsnroute.routes import dump_route

import wsnroute.routes as routes_mod
from oracles import Point, brute_force_knn, brute_force_optimal, distance, points


def chain_field(xs):
    pts = tuple(Point(float(x), 0.0) for x in xs)
    return SensorField(coords=pts)


def test_nn_collinear_monotone_chain():
    f = chain_field([0, 1, 2, 3])
    r = nn_route(f, 0)
    assert r.order == [0, 1, 2, 3]
    assert not r.closed
    assert route_length(f, r) == 3.0


def test_nn_single_node():
    f = chain_field([0])
    r = nn_route(f, 0)
    assert r.order == [0]
    assert route_length(f, r) == 0.0


def test_nn_start_out_of_range():
    f = chain_field([0, 1])
    with pytest.raises(ValueError):
        nn_route(f, 2)
    with pytest.raises(ValueError):
        nn_route(f, -1)


def test_nn_tie_breaks_to_lowest_index():
    f = SensorField(coords=(Point(0, 0), Point(1, 0), Point(-1, 0)))
    assert nn_route(f, 0).order == [0, 1, 2]


def test_route_length_closed_adds_return_edge():
    f = chain_field([0, 1, 2, 3])
    assert route_length(f, Route([0, 1, 2, 3], closed=False)) == 3.0
    assert route_length(f, Route([0, 1, 2, 3], closed=True)) == 6.0


def test_route_length_reversal_invariant_open():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        f = generate_uniform(n, 100, 100, seed=int(rng.integers(2**32)))
        perm = [int(v) for v in rng.permutation(n)]
        fwd = route_length(f, Route(order=perm))
        rev = route_length(f, Route(order=perm[::-1]))
        assert fwd == pytest.approx(rev, rel=1e-12)


def test_route_length_rejects_non_permutations():
    f = chain_field([0, 1, 2])
    for bad in ([0, 1], [0, 1, 1], [0, 1, 3], [0, 1, 2, 2]):
        with pytest.raises(ValueError):
            route_length(f, Route(order=bad))


def test_every_greedy_step_is_locally_optimal():
    for seed in range(10):
        f = generate_uniform(30, 500, 500, seed=seed)
        order = nn_route(f, 0).order
        remaining = set(order)
        pts = points(f)
        for i in range(len(order) - 1):
            remaining.discard(order[i])
            step = distance(pts[order[i]], pts[order[i + 1]])
            best = min(distance(pts[order[i]], pts[v]) for v in remaining)
            assert step == best


def test_nn_never_beats_exhaustive_optimum():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(4, 10))
        f = generate_uniform(n, 100, 100, seed=int(rng.integers(2**32)))
        nn_len = route_length(f, nn_route(f, 0))
        opt_len = route_length(f, brute_force_optimal(f, start=0))
        assert nn_len >= opt_len


def test_accelerated_equals_plain_with_exhaustive_graph():
    f = generate_uniform(15, 100, 100, seed=5)
    graph = build_knn_graph(f, 14, 4)
    calls = []
    real = routes_mod._nearest_unvisited

    def counting(xy, cur, alive):
        calls.append(cur)
        return real(xy, cur, alive)

    routes_mod._nearest_unvisited = counting
    try:
        fast = nn_route(f, 0, graph)
    finally:
        routes_mod._nearest_unvisited = real
    assert fast.order == nn_route(f, 0).order
    assert calls == []  # k = n-1: the slots always contain an unvisited node


def test_accelerated_equals_plain_small_k():
    for seed in range(12):
        f = generate_uniform(80, 1000, 1000, seed=100 + seed)
        graph = build_knn_graph(f, 5, 17)
        assert nn_route(f, 0, graph).order == nn_route(f, 0).order


def test_accelerated_three_nodes_k1():
    f = SensorField(coords=(Point(0, 0), Point(1, 0), Point(3, 0)))
    graph = build_knn_graph(f, 1, 3)
    assert nn_route(f, 0, graph).order == nn_route(f, 0).order == [0, 1, 2]


def test_accelerated_rejects_size_mismatch():
    f = generate_uniform(10, 10, 10, seed=1)
    graph = build_knn_graph(generate_uniform(9, 10, 10, seed=1), 2, 3)
    with pytest.raises(ValueError):
        nn_route(f, 0, graph)


def test_nn_rejects_graph_of_another_field_of_the_same_size():
    # without the weight check this route differs from the scan's at 199 of 200 positions
    f = generate_uniform(200, 1000, 1000, seed=1)
    with pytest.raises(ValueError, match="another field"):
        nn_route(f, 0, build_knn_graph(generate_uniform(200, 1000, 1000, seed=2), 4, 64))
    # also once the graph has routed its own field
    own = generate_uniform(200, 1000, 1000, seed=2)
    graph = build_knn_graph(own, 4, 64)
    assert nn_route(own, 5, graph).order == nn_route(own, 5).order
    with pytest.raises(ValueError, match="another field"):
        nn_route(f, 0, graph)
    assert nn_route(own, 6, graph).order == nn_route(own, 6).order


def test_nn_rejects_a_hand_built_graph():
    # True distances to the wrong neighbours: node 0's row names node 2, so
    # the route would go 0, 2, 1 where the nearest node is 1.
    f = SensorField(coords=(Point(0, 0), Point(1, 0), Point(5, 0)))
    graph = KnnGraph([[2], [2], [1]], [[5.0], [4.0], [4.0]])
    assert graph.field is None
    with pytest.raises(ValueError, match="by hand"):
        nn_route(f, 0, graph)
    assert nn_route(f, 0, build_knn_graph(f, 1, 3)).order == [0, 1, 2]


@pytest.mark.parametrize("build", [build_knn_graph, lambda f, k, cs: brute_force_knn(f, k)], ids=["grid", "oracle"])
def test_every_builder_records_its_field(build):
    f = generate_uniform(30, 100, 100, seed=2)
    graph = build(f, 3, 7)
    assert graph.field is f
    # a field with the same coordinates routes through the graph; one with other coordinates does not
    twin = SensorField(coords=f.coords.copy())
    assert nn_route(twin, 4, graph).order == nn_route(f, 4).order
    xy = f.coords.copy()
    xy[0, 1] = np.nextafter(xy[0, 1], np.inf)  # one ulp of one coordinate
    with pytest.raises(ValueError, match="another field"):
        nn_route(SensorField(coords=xy), 4, graph)


def test_nn_index_lives_on_the_graph_and_nowhere_else(monkeypatch):
    built = []

    class Recorded(routes_mod._NnIndex):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(routes_mod, "_NnIndex", Recorded)
    f = generate_uniform(300, 1000, 1000, seed=4)
    nn_route(f, 0)
    assert len(built) == 1 and built[0]() is None  # a graph-free call keeps nothing
    graph = build_knn_graph(f, 4, 64)
    for start in (0, 7, 299):
        nn_route(f, start, graph)
    assert len(built) == 2 and built[1]() is not None  # one index for every call on this field
    nn_route(SensorField(coords=f.coords), 0, graph)
    assert len(built) == 3 and built[1]() is None  # another field object: rebuilt, the old one freed
    del graph
    gc.collect()
    assert built[2]() is None


def test_nn_route_counts_how_each_step_was_settled():
    # With the k=8 graph most steps take a slot; the rest search cells of 8
    # nodes, and a few of those hand over to the scan. The counts sum to n - 1.
    f = generate_uniform(2000, 20000, 20000, seed=1)
    graph = build_knn_graph(f, 8)
    stats = {}
    assert nn_route(f, 0, graph, stats).order == nn_route(f, 0, graph).order
    assert stats == {"slot_steps": 1853, "ring_searches": 139, "scans": 7}
    # Without a graph the route's own table of 4 nearest settles most steps,
    # and the stats also hold the table's build counts; no row is crowded.
    stats = {}
    nn_route(f, 0, None, stats)
    assert stats == {"settled": {1: 1906, 2: 94}, "tied": 0, "crowded": 0,
                     "slot_steps": 1741, "ring_searches": 250, "scans": 8}
    stats = {}
    nn_route(SensorField(coords=f.coords[:1]), 0, None, stats)
    assert stats == {"slot_steps": 0, "ring_searches": 0, "scans": 0}


def test_routes_are_permutations():
    for seed in range(5):
        f = generate_uniform(40, 100, 100, seed=seed)
        r = nn_route(f, seed % 40)
        assert sorted(r.order) == list(range(40))


def test_dump_route_one_id_per_line():
    assert dump_route(Route(order=[2, 0, 1])) == "2\n0\n1\n"
