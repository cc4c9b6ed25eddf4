"""Chunked kNN kernel tests against the brute-force oracle."""

import math
import random

import numpy as np
import pytest

from wsnroute import (
    DistanceChunk,
    Point,
    SensorField,
    brute_force_knn,
    build_knn_graph,
    dump_graph,
    generate_uniform,
    init_knn_state,
    knn_update_chunk,
)
from wsnroute.field import distance_block
from wsnroute.knn import maxk_knn_graph

INF = float("inf")


def field_of(coords):
    pts = tuple(Point(float(x), float(y)) for x, y in coords)
    w = max(p.x for p in pts)
    h = max(p.y for p in pts)
    return SensorField(coords=pts, width=max(w, 1.0), height=max(h, 1.0))


def neighbor_sets(graph):
    return [graph.neighbor_set(r) for r in range(graph.n)]


# --- oracle behavior pinned first; the chunked path must match it ---


def test_oracle_unit_square_corners():
    f = field_of([(0, 0), (1, 0), (0, 1), (1, 1)])
    g = brute_force_knn(f, 2)
    for r in range(4):
        weights = sorted(w for _, w in g.neighbor_set(r))
        assert weights == [1.0, 1.0]  # edge-adjacent corners, never the diagonal


def test_oracle_k_equals_n_minus_1_is_exhaustive():
    f = generate_uniform(7, 100, 100, seed=1)
    g = brute_force_knn(f, 6)
    for r in range(7):
        assert {t for t, _ in g.neighbor_set(r)} == set(range(7)) - {r}


def test_oracle_tie_prefers_lower_index():
    f = field_of([(0, 0), (1, 0), (-1, 0)])
    g = brute_force_knn(f, 1)
    assert g.neighbor_set(0) == {(1, 1.0)}


def test_oracle_rejects_bad_k():
    f = generate_uniform(5, 10, 10, seed=0)
    with pytest.raises(ValueError):
        brute_force_knn(f, 0)
    with pytest.raises(ValueError):
        brute_force_knn(f, 5)


# --- state initialization ---


def test_init_state_shape_and_sentinels():
    g, mk = init_knn_state(3, 1)
    assert g.weights == [INF, INF, INF]
    assert g.targets == [-1, -1, -1]
    assert mk.farthest == [0, 0, 0]


def test_init_state_large():
    g, mk = init_knn_state(2000, 10)
    assert len(g.weights) == 20000
    assert all(w == INF for w in g.weights)
    assert mk.farthest == [0] * 2000


def test_init_state_rejects_bad_k():
    with pytest.raises(ValueError):
        init_knn_state(3, 3)
    with pytest.raises(ValueError):
        init_knn_state(3, 0)


# --- kernel semantics ---


def single_chunk(f, cs=None):
    n = len(f)
    return DistanceChunk(distance_block(f.coords, 0, n).tolist(), 0, 0, cs or n)


def test_kernel_hand_traced_collinear():
    # nodes at x = 0, 1, 3; k=1; one 3x3 chunk
    f = field_of([(0, 0), (1, 0), (3, 0)])
    g, mk = init_knn_state(3, 1)
    knn_update_chunk(single_chunk(f), g, mk)
    assert g.neighbor_set(0) == {(1, 1.0)}
    assert g.neighbor_set(1) == {(0, 1.0)}
    assert g.neighbor_set(2) == {(1, 2.0)}


def test_kernel_no_improvement_leaves_state_unchanged():
    f = field_of([(0, 0), (1, 0), (3, 0)])
    g, mk = init_knn_state(3, 1)
    chunk = single_chunk(f)
    knn_update_chunk(chunk, g, mk)
    before = (list(g.weights), list(g.targets), list(mk.farthest))
    # every distance now >= the stored best, strict < admits nothing
    far = DistanceChunk([[v + 100.0 for v in row] for row in chunk.rows], 0, 0, 3)
    knn_update_chunk(far, g, mk)
    assert (g.weights, g.targets, mk.farthest) == before


def test_kernel_diagonal_zero_never_creates_edge():
    f = field_of([(0, 0), (5, 0)])
    g, mk = init_knn_state(2, 1)
    knn_update_chunk(single_chunk(f), g, mk)
    assert g.neighbor_set(0) == {(1, 5.0)}
    assert g.neighbor_set(1) == {(0, 5.0)}
    assert 0.0 not in g.weights


def test_kernel_tile_wider_than_field():
    # chunk_size 4 over a 3-node field: the tile has 3 rows and its column
    # window runs past the last column; nothing beyond node 2 may appear
    f = field_of([(0, 0), (1, 0), (3, 0)])
    g, mk = init_knn_state(3, 1)
    knn_update_chunk(single_chunk(f, cs=4), g, mk)
    assert g.neighbor_set(0) == {(1, 1.0)}
    assert g.neighbor_set(1) == {(0, 1.0)}
    assert g.neighbor_set(2) == {(1, 2.0)}
    assert all(0 <= t < 3 for t in g.targets)


def test_kernel_maxk_coherent_after_every_call():
    f = generate_uniform(60, 500, 500, seed=8)
    n, k, cs = 60, 4, 16
    g, mk = init_knn_state(n, k)
    n_chunks = -(-n // cs)
    xy = f.coords
    for split in range(n_chunks):
        rows = distance_block(xy, split * cs, min(split * cs + cs, n)).tolist()
        for chunk_i in range(n_chunks):
            knn_update_chunk(DistanceChunk(rows, split, chunk_i, cs), g, mk)
            for row in range(n):
                base = row * k
                row_w = g.weights[base : base + k]
                assert g.weights[base + mk.farthest[row]] == max(row_w)


# --- driver ---


def test_build_matches_oracle_and_is_chunk_size_independent():
    f = generate_uniform(50, 100, 100, seed=7)
    want = neighbor_sets(brute_force_knn(f, 5))
    for cs in (7, 50):
        assert neighbor_sets(build_knn_graph(f, 5, cs)) == want


def test_build_two_nodes():
    f = field_of([(0, 0), (2, 3)])
    for cs in (1, 2, 5):
        g = build_knn_graph(f, 1, cs)
        d = math.sqrt(13.0)
        assert g.neighbor_set(0) == {(1, d)}
        assert g.neighbor_set(1) == {(0, d)}


def test_build_sweep_small_fields():
    rng = np.random.default_rng(21)
    for n in (10, 37):
        f = generate_uniform(n, 1000, 1000, seed=int(rng.integers(2**32)))
        for k in (1, 3, 5):
            want = neighbor_sets(brute_force_knn(f, k))
            for cs in (1, 3, n):
                assert neighbor_sets(build_knn_graph(f, k, cs)) == want


def test_build_large_field_completes_with_finite_slots():
    f = generate_uniform(2000, 20000, 20000, seed=42)
    g = build_knn_graph(f, 10, 256)
    assert all(w < INF for w in g.weights)
    assert all(t >= 0 for t in g.targets)
    # spot-check a few rows against the oracle
    oracle = brute_force_knn(f, 10)
    for r in (0, 999, 1999):
        assert g.neighbor_set(r) == oracle.neighbor_set(r)


@pytest.mark.parametrize("k", [1, 2, 4, 5, 8])
def test_build_matches_oracle_on_integer_lattice(k):
    # A 12x12 unit lattice ties many candidates at the k-th radius; an
    # eviction must drop the highest target among them, as the oracle does.
    f = field_of([(x, y) for y in range(12) for x in range(12)])
    want = dump_graph(brute_force_knn(f, k))
    for build in (build_knn_graph, maxk_knn_graph):
        for cs in (1, 5, 13, 200):
            assert dump_graph(build(f, k, cs)) == want, f"{build.__name__} chunk_size={cs}"


def test_build_no_self_edges():
    f = generate_uniform(30, 100, 100, seed=2)
    g = build_knn_graph(f, 4, 8)
    for r in range(30):
        assert all(t != r for t, _ in g.neighbor_set(r))


def test_build_rejects_bad_args():
    f = generate_uniform(5, 10, 10, seed=0)
    with pytest.raises(ValueError):
        build_knn_graph(f, 5, 2)
    with pytest.raises(ValueError):
        build_knn_graph(f, 2, 0)


def test_shuffled_driver_order_gives_same_weights():
    # per-row slot contents depend only on the candidate multiset, so a
    # shuffled (split, chunk) enumeration must land on the same weights
    f = generate_uniform(40, 1000, 1000, seed=13)
    n, k, cs = 40, 3, 7
    n_chunks = -(-n // cs)
    xy = f.coords
    pairs = [(s, c) for s in range(n_chunks) for c in range(n_chunks)]
    random.Random(5).shuffle(pairs)
    g, mk = init_knn_state(n, k)
    for split, chunk_i in pairs:
        rows = distance_block(xy, split * cs, min(split * cs + cs, n)).tolist()
        knn_update_chunk(DistanceChunk(rows, split, chunk_i, cs), g, mk)
    want = neighbor_sets(brute_force_knn(f, k))
    # random reals: no exact distance ties, so full sets must agree too
    assert neighbor_sets(g) == want


def test_dump_sorted_and_matches_oracle_dump():
    f = generate_uniform(25, 100, 100, seed=4)
    chunked = dump_graph(build_knn_graph(f, 3, 6))
    oracle = dump_graph(brute_force_knn(f, 3))
    assert chunked == oracle
    rows = [line.split() for line in chunked.splitlines()]
    keys = [(int(s), float(w), int(t)) for s, t, w in rows]
    assert keys == sorted(keys)
