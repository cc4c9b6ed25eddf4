"""kNN graph builders against the brute-force oracle, and the finished-graph type."""

import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from wsnroute import (
    KnnGraph,
    SensorField,
    build_knn_graph,
    dump_graph,
    generate_uniform,
    grid,
)
from wsnroute.field import format_coord
from wsnroute.grid import CellGrid
from oracles import Point, brute_force_knn, neighbor_set


def field_of(coords):
    pts = tuple(Point(float(x), float(y)) for x, y in coords)
    return SensorField(coords=pts)


def same_slots(a, b):
    """Equal slot arrays; every builder orders a row by (weight, target)."""
    return np.array_equal(a.targets, b.targets) and np.array_equal(a.weights, b.weights)


BUILDERS = (build_knn_graph, lambda f, k, cs: brute_force_knn(f, k))


# --- oracle behavior pinned first; the chunked path must match it ---


def test_oracle_unit_square_corners():
    f = field_of([(0, 0), (1, 0), (0, 1), (1, 1)])
    g = brute_force_knn(f, 2)
    for r in range(4):
        weights = sorted(w for _, w in neighbor_set(g, r))
        assert weights == [1.0, 1.0]  # edge-adjacent corners, never the diagonal


def test_oracle_k_equals_n_minus_1_is_exhaustive():
    f = generate_uniform(7, 100, 100, seed=1)
    g = brute_force_knn(f, 6)
    for r in range(7):
        assert {t for t, _ in neighbor_set(g, r)} == set(range(7)) - {r}


def test_oracle_tie_prefers_lower_index():
    f = field_of([(0, 0), (1, 0), (-1, 0)])
    g = brute_force_knn(f, 1)
    assert neighbor_set(g, 0) == {(1, 1.0)}


def test_oracle_rejects_bad_k():
    f = generate_uniform(5, 10, 10, seed=0)
    with pytest.raises(ValueError):
        brute_force_knn(f, 0)
    with pytest.raises(ValueError):
        brute_force_knn(f, 5)


# --- the finished-graph type ---


def test_knn_graph_has_read_only_n_by_k_arrays():
    g = KnnGraph([[1], [0], [1]], [[1.0], [1.0], [2.0]])
    assert g.targets.shape == g.weights.shape == (3, 1)
    assert g.targets.dtype == np.intp and g.weights.dtype == np.float64
    with pytest.raises(ValueError):
        g.targets[0, 0] = 2
    with pytest.raises(ValueError):
        g.weights[0, 0] = 0.5


def test_knn_graph_rejects_unsorted_rows_and_bad_shapes():
    # Every row of the oracle reversed: the 3 nearest, out of (weight, target) order.
    oracle = brute_force_knn(generate_uniform(40, 1000, 1000, seed=13), 3)
    with pytest.raises(ValueError, match="ordered"):
        KnnGraph(oracle.targets[:, ::-1], oracle.weights[:, ::-1])
    # equal weights: the lower target must come first
    with pytest.raises(ValueError, match="ordered"):
        KnnGraph([[1, 2], [0, 2], [1, 0]], [[1.0, 1.0]] * 3)
    with pytest.raises(ValueError, match="shape"):
        KnnGraph(oracle.targets, oracle.weights[:, :2])
    with pytest.raises(ValueError, match="shape"):
        KnnGraph(oracle.targets.ravel(), oracle.weights.ravel())
    with pytest.raises(ValueError, match="node indices"):
        KnnGraph([[1], [-1]], [[1.0], [1.0]])
    with pytest.raises(ValueError, match="node indices"):
        KnnGraph([[1], [2]], [[1.0], [1.0]])


@pytest.mark.parametrize("weights", [
    # NaN compares false both ways, so the (weight, target) order check lets it through
    [[math.nan, 1.0], [1.0, 2.0], [1.0, 2.0]],
    [[1.0, math.inf], [1.0, 2.0], [1.0, 2.0]],
    [[-1.0, 1.0], [1.0, 2.0], [1.0, 2.0]],
], ids=["nan", "inf", "negative"])
def test_knn_graph_rejects_weights_that_are_no_distance(weights):
    with pytest.raises(ValueError, match="finite and non-negative"):
        KnnGraph([[1, 2], [0, 2], [0, 1]], weights)


# --- hand-traced cases, through every builder ---


def test_kernel_hand_traced_collinear():
    # nodes at x = 0, 1, 3; k=1; one 3x3 tile
    f = field_of([(0, 0), (1, 0), (3, 0)])
    for build in BUILDERS:
        g = build(f, 1, 3)
        assert neighbor_set(g, 0) == {(1, 1.0)}
        assert neighbor_set(g, 1) == {(0, 1.0)}
        assert neighbor_set(g, 2) == {(1, 2.0)}


def test_kernel_no_improvement_leaves_state_unchanged():
    # Node 1 sits between nodes 0 and 2, both 1 away. Node 2 ties node 0 and
    # does not displace it, whether the rows fall in one tile or in several.
    f = SensorField(coords=[(-1, 0), (0, 0), (1, 0)])
    for build in BUILDERS:
        for cs in (1, 2, 3):
            assert neighbor_set(build(f, 1, cs), 1) == {(0, 1.0)}


def test_kernel_diagonal_zero_never_creates_edge():
    f = field_of([(0, 0), (5, 0)])
    for build in BUILDERS:
        g = build(f, 1, 2)
        assert neighbor_set(g, 0) == {(1, 5.0)}
        assert neighbor_set(g, 1) == {(0, 5.0)}
        assert 0.0 not in g.weights


def test_kernel_tile_wider_than_field():
    # chunk_size 4 over a 3-node field: the tile has 3 rows; nothing beyond
    # node 2 may appear
    f = field_of([(0, 0), (1, 0), (3, 0)])
    for build in BUILDERS:
        g = build(f, 1, 4)
        assert neighbor_set(g, 0) == {(1, 1.0)}
        assert neighbor_set(g, 1) == {(0, 1.0)}
        assert neighbor_set(g, 2) == {(1, 2.0)}


# --- driver ---


def test_build_matches_oracle_and_is_chunk_size_independent():
    f = generate_uniform(50, 100, 100, seed=7)
    want = brute_force_knn(f, 5)
    for cs in (7, 50):
        assert same_slots(build_knn_graph(f, 5, cs), want), f"chunk_size={cs}"


def test_build_two_nodes():
    f = field_of([(0, 0), (2, 3)])
    for cs in (1, 2, 5):
        g = build_knn_graph(f, 1, cs)
        d = math.sqrt(13.0)
        assert neighbor_set(g, 0) == {(1, d)}
        assert neighbor_set(g, 1) == {(0, d)}


def test_build_sweep_small_fields():
    rng = np.random.default_rng(21)
    for n in (10, 37):
        f = generate_uniform(n, 1000, 1000, seed=int(rng.integers(2**32)))
        for k in (1, 3, 5):
            want = brute_force_knn(f, k)
            for cs in (1, 3, n):
                assert same_slots(build_knn_graph(f, k, cs), want), f"k={k} chunk_size={cs}"


def test_build_large_field_completes_with_finite_slots():
    f = generate_uniform(2000, 20000, 20000, seed=42)
    g = build_knn_graph(f, 10, 256)
    assert np.isfinite(g.weights).all()
    # spot-check a few rows against the oracle
    oracle = brute_force_knn(f, 10)
    for r in (0, 999, 1999):
        assert neighbor_set(g, r) == neighbor_set(oracle, r)


@pytest.mark.parametrize("k", [1, 2, 4, 5, 8])
def test_build_matches_oracle_on_integer_lattice(k, monkeypatch):
    # A 12x12 unit lattice ties many candidates at the k-th radius; a row
    # must keep the lowest targets among them, as the oracle does.
    # A far outlier leaves its square without other nodes, so its row is
    # searched again at wider squares, in tiles with the lattice's rows.
    radii = []
    squares = CellGrid.squares

    def spy(grid, cells, r, width):
        radii.append(r)
        return squares(grid, cells, r, width)

    monkeypatch.setattr(CellGrid, "squares", spy)
    lattice = [(x, y) for y in range(12) for x in range(12)]
    for f in (field_of(lattice), field_of(lattice + [(90, 70)])):
        radii.clear()
        oracle = brute_force_knn(f, k)
        want = dump_graph(oracle)
        for cs in (1, 5, 13, 200):
            g = build_knn_graph(f, k, cs)
            assert dump_graph(g) == want, f"n={len(f)} chunk_size={cs}"
            assert same_slots(g, oracle), f"n={len(f)} chunk_size={cs}"
    assert max(radii) >= 4  # the outlier's square holds no other node before r = 4


LATTICE = [(x, y) for y in range(12) for x in range(12)]


def kernel_field(kind):
    rng = np.random.default_rng(9)
    if kind == "lattice":
        return field_of(LATTICE)
    if kind == "duplicates":  # every node at one of three places
        return SensorField(coords=[(0, 0), (7, 7), (7, 0)] * 30)
    if kind == "collinear":  # a slope that rounds
        return SensorField(coords=[(0.1 * t, 0.3 * t) for t in range(-40, 40)])
    if kind == "clusters":
        return SensorField(coords=rng.integers(0, 400, (4, 2))[rng.integers(0, 4, 150)]
                           + rng.integers(-3, 4, (150, 2)))
    return field_of(LATTICE + [(90, 70)])  # "outlier"


@pytest.mark.parametrize("kind", ["lattice", "duplicates", "collinear", "clusters", "outlier"])
def test_kernel_in_cells_of_half_k_matches_the_oracle(kind, monkeypatch):
    # The kernel buckets the nodes into cells of about k/2 nodes, so more
    # rows are searched again at wider squares; every chunk size, whether it
    # splits a block of tiles or not, gives the oracle's rows.
    sizes = []
    init = CellGrid.__init__

    def spy(grid, xy, per_cell):
        sizes.append(per_cell)
        init(grid, xy, per_cell)

    monkeypatch.setattr(CellGrid, "__init__", spy)
    f = kernel_field(kind)
    for k in (1, 2, 3, 4, 5, 8):
        oracle = brute_force_knn(f, k)
        for cs in (1, 5, 13, 200, 256):
            sizes.clear()
            targets, weights = grid.knn_rows(f.coords, k, cs)
            assert sizes == [k / 2]
            assert np.array_equal(targets, oracle.targets), f"k={k} chunk_size={cs}"
            assert np.array_equal(weights, oracle.weights), f"k={k} chunk_size={cs}"


def test_kernel_blocks_of_one_tile_match_the_oracle(monkeypatch):
    # With a block budget below one tile's table, every tile builds its own.
    monkeypatch.setattr(grid, "_BLOCK", 1)
    f = generate_uniform(300, 1000, 1000, seed=6)
    for k, cs in ((1, 7), (4, 64), (10, 300)):
        assert same_slots(build_knn_graph(f, k, cs), brute_force_knn(f, k)), f"k={k} chunk_size={cs}"


def test_build_counts_the_rows_settled_at_each_radius_and_the_tied_rows():
    # A uniform field settles nearly every row at r = 1 and has no ties.
    stats = {}
    f = generate_uniform(2000, 20000, 20000, 1)
    graph = build_knn_graph(f, 10, stats=stats)
    assert stats == {"settled": {1: 1963, 2: 37}, "tied": 0}
    assert same_slots(build_knn_graph(f, 10, 7), graph)
    # On the lattice nearly every row ties. The outlier's square holds no
    # other node before r = 4; the radii in between are skipped, not measured.
    want = {1: (144, 19), 2: (140, 13), 4: (44, 9), 5: (100, 8), 8: (8, 6)}
    for k, (tied, far) in want.items():
        stats = {}
        build_knn_graph(field_of(LATTICE + [(90, 70)]), k, stats=stats)
        assert stats["tied"] == tied
        assert sum(stats["settled"].values()) == 145 and stats["settled"][1] == 144
        assert max(stats["settled"]) == far >= 4 and stats["settled"][far] == 1
        assert len(stats["settled"]) < far
        stats = {}
        build_knn_graph(field_of(LATTICE), k, stats=stats)
        assert stats["tied"] == tied and sum(stats["settled"].values()) == 144


def one_radius_at_a_time(g, cells, k, r):
    """The radius skip as a loop of one radius a step: the least r with some square of over k nodes."""
    while (wide := g.square_counts(cells, r)).max() <= k:
        r += 1
    return r, wide


def test_bisected_radius_skip_measures_the_radii_a_step_at_a_time_loop_does(monkeypatch):
    # The kernel doubles the radius past the first square of k + 1 nodes and
    # bisects back to it; a loop that tries one radius at a time measures
    # the same radii, settles the same rows and builds the same graph.
    rng = np.random.default_rng(4)
    far = np.concatenate([rng.random((299, 2)) * 100, [(20000.0, 20000.0)]])
    fields = [field_of(LATTICE + [(90, 70)]), field_of(far), field_of(far[::-1] * [1, 0.001])]
    for f in fields:
        for k in (1, 4, 8):
            g = CellGrid(f.coords, k / 2)
            for r in (1, 2, 3, 7, 40):
                cells = g.cell[[len(f) - 1]]
                got, want = grid._first_radius(g, cells, k, r), one_radius_at_a_time(g, cells, k, r)
                assert got[0] == want[0] and np.array_equal(got[1], want[1]), f"k={k} r={r}"
            for crowd in (None, 64):
                bisected = {}
                targets, weights = grid.knn_rows(f.coords, k, 256, crowd, bisected)
                with monkeypatch.context() as m:
                    m.setattr(grid, "_first_radius", one_radius_at_a_time)
                    stepped = {}
                    assert all(map(np.array_equal, grid.knn_rows(f.coords, k, 256, crowd, stepped),
                                   (targets, weights)))
                assert bisected == stepped and max(bisected["settled"]) >= 4, f"k={k} crowd={crowd}"


INF = math.inf
# (k, rows); each case holds rows tied at their k-th weight and rows that are not
SELECT_CASES = {
    "k=3": (3, [
        [5, 1, 3, 3, 9, 3],  # a tie straddles the k-th slot
        [2, 7, 2, 1, 8, 9],  # ties inside the first k
        [INF, 4, INF, INF, 2, INF],  # fewer than k finite entries
        [7, 7, 7, 7, 7, 7],  # all entries equal
        [6, 5, 4, 3, 2, 1],
        [0, INF, 0, 3, INF, 1],
    ]),
    "k=1": (1, [
        [3, 1, 2, 1],
        [3, 0.5, 2, 1],
        [INF, INF, INF, INF],
        [0, 0, 0, 0],
    ]),
    "k=m-1": (4, [
        [4, 3, 2, 1, 0],
        [1, 1, 1, 1, 2],  # k equal entries, none past them
        [2, 1, 1, 1, 1],
        [1, 2, 2, 1, 2],
        [1, 2, 3, INF, INF],
    ]),
}


def tied_rows(d, k):
    """Whether each row's k-th and (k+1)-th smallest weights are equal."""
    s = np.sort(d, axis=1)
    return s[:, k - 1] == s[:, k]


@pytest.mark.parametrize("case", list(SELECT_CASES))
def test_select_equals_the_stable_sort_and_takes_both_paths(case):
    k, rows = SELECT_CASES[case]
    d = np.array(rows, dtype=np.float64)
    best = grid._select(d.copy(), k)
    assert np.array_equal(best, np.argsort(d, axis=1, kind="stable")[:, :k])
    assert set(tied_rows(d, k).tolist()) == {False, True}


def test_select_equals_the_stable_sort_on_tie_heavy_matrices():
    rng = np.random.default_rng(5)
    paths = set()
    for _ in range(200):
        m = int(rng.integers(2, 12))
        k = int(rng.integers(1, m))
        d = rng.integers(0, 4, (int(rng.integers(1, 9)), m)).astype(np.float64)
        d[rng.random(d.shape) < 0.2] = INF
        best = grid._select(d.copy(), k)
        assert np.array_equal(best, np.argsort(d, axis=1, kind="stable")[:, :k]), (d, k)
        paths.update(tied_rows(d, k).tolist())
    assert paths == {False, True}


def test_every_builder_orders_rows_by_weight_then_target():
    # Collinear duplicates tie at every radius, so only the target decides
    # the order within a row.
    f = field_of([(x % 4, 0) for x in range(12)])
    for build in BUILDERS:
        g = build(f, 7, 5)
        for r in range(g.targets.shape[0]):
            row = list(zip(g.weights[r].tolist(), g.targets[r].tolist()))
            assert row == sorted(row)


def test_build_no_self_edges():
    f = generate_uniform(30, 100, 100, seed=2)
    g = build_knn_graph(f, 4, 8)
    for r in range(30):
        assert all(t != r for t, _ in neighbor_set(g, r))


def test_build_rejects_bad_args():
    f = generate_uniform(5, 10, 10, seed=0)
    for k, cs in ((5, 2), (0, 2), (2, 0)):
        with pytest.raises(ValueError):
            build_knn_graph(f, k, cs)


def test_dump_sorted_and_matches_oracle_dump():
    f = generate_uniform(25, 100, 100, seed=4)
    chunked = dump_graph(build_knn_graph(f, 3, 6))
    oracle = dump_graph(brute_force_knn(f, 3))
    assert chunked == oracle
    rows = [line.split() for line in chunked.splitlines()]
    keys = [(int(s), float(w), int(t)) for s, t, w in rows]
    assert keys == sorted(keys)


def reference_dump(graph):
    """The per-line dump that formats every slot's weight on its own: the oracle."""
    lines = [
        f"{source} {t} {format_coord(w)}"
        for source, (ts, ws) in enumerate(zip(graph.targets.tolist(), graph.weights.tolist()))
        for t, w in zip(ts, ws)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: build_knn_graph(generate_uniform(300, 1000, 1000, seed=3), 10, 64), id="uniform"),
    # 3-4-5 triangle: every weight is integral and written without the dot
    pytest.param(lambda: brute_force_knn(field_of([(0, 0), (3, 0), (0, 4)]), 2), id="triangle-345"),
    pytest.param(lambda: build_knn_graph(field_of([(x, y) for y in range(6) for x in range(6)]), 5, 7),
                 id="lattice"),
    # equal weights whose bits differ are formatted apart
    pytest.param(lambda: KnnGraph([[1], [0], [1]], [[-0.0], [0.0], [1e16]]), id="signed-zeros"),
    # weights below 1, in [1, 2^53) with and without a fraction, and at or past 2^53
    pytest.param(lambda: KnnGraph([[1, 2], [0, 2], [3, 0], [2, 1]],
                                  [[0.25, 7.0], [0.5, 12345.678], [2.0**53 - 1, 2.0**53], [3e15 + 0.5, 1e300]]),
                 id="mixed-magnitudes"),
    # dumps nothing
    pytest.param(lambda: KnnGraph(np.empty((4, 0), dtype=np.intp), np.empty((4, 0))), id="zero-slots"),
])
def test_dump_matches_the_per_line_dump(graph):
    g = graph()
    assert dump_graph(g) == reference_dump(g)


def test_dump_lines_span_assembly_blocks(monkeypatch):
    monkeypatch.setattr("wsnroute.numtext._BLOCK", 7)
    g = build_knn_graph(generate_uniform(60, 100, 100, seed=8), 4, 16)
    assert dump_graph(g) == reference_dump(g)


def test_dump_to_a_stream_writes_the_returned_text(monkeypatch):
    monkeypatch.setattr("wsnroute.numtext._BLOCK", 7)
    g = build_knn_graph(generate_uniform(60, 100, 100, seed=8), 4, 16)
    out = io.StringIO()
    assert dump_graph(g, out) is None
    assert out.getvalue() == dump_graph(g) == reference_dump(g)


def test_dump_to_a_stream_holds_no_copy_of_the_text():
    g = build_knn_graph(generate_uniform(20000, 20000, 20000, seed=1), 10)
    with open(os.devnull, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            dump_graph(g, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # The text is 5.9 MB. Written a block at a time, the dump peaked at 9.1 MB;
    # returned as one str, with its formatter's temporaries, at 16.5 MB.
    assert peak < 12_000_000
