"""Property tests: the fast kNN and greedy paths against their oracles.

Fields are small integer lattices, tight clusters around a few centres, and
lattices with a step of 0.1, 1/3 or 1e-170 or an offset of 1e9. The kNN
build also sees grids one or two cells wide, nodes at a few places only,
points on one line, and a lattice with one far outlier. Duplicate
points, collinear runs and exact distance ties (where the lowest-index rule
decides) are common; on the scaled and offset lattices rounding moves points
and cell walls by an ulp, or flushes a squared distance to 0, which a cell
grid's cover bound must allow for. Examples
are derandomized and no example database is kept, so every run draws the
same cases. Greedy NN is also checked on three fixed 600-node fields, where
it either searches its grid or hands a step over to a scan of the live
nodes. With a kNN graph from any of the three builders it takes the first
unvisited slot of a row first. A failing property is reported with its
falsifying example under this repository's warning filters.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wsnroute import (
    SensorField,
    build_knn_graph,
    generate_uniform,
    nn_route,
)
from wsnroute import routes
from wsnroute.field import distances_from
from wsnroute.grid import CellGrid
from oracles import brute_force_knn

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

lattice_points = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=40
)


def as_field(points) -> SensorField:
    return SensorField(coords=[(float(x), float(y)) for x, y in points])


@st.composite
def clustered_fields(draw) -> SensorField:
    centres = draw(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                            min_size=1, max_size=4))
    members = draw(st.lists(
        st.tuples(st.sampled_from(centres), st.integers(-4, 4), st.integers(-4, 4)),
        min_size=2, max_size=40,
    ))
    return SensorField(coords=[(cx + dx / 4, cy + dy / 4) for (cx, cy), dx, dy in members])


# Lattices with a step that is not a power of two, or offset by 1e9: cell
# walls and coordinates round differently, and a point may sit within an ulp
# of a wall. At a step of 1e-170 the squared distances underflow to 0. Without
# its slack, the grid's cover bound fails on such fields.
scaled_lattices = st.builds(
    lambda points, step, offset: SensorField(
        coords=[(offset + step * x, offset + step * y) for x, y in points]),
    lattice_points, st.sampled_from([1.0, 0.1, 1 / 3, 1e-170]), st.sampled_from([0.0, 1e9, -1e9]),
)

fields = st.one_of(lattice_points.map(as_field), clustered_fields(), scaled_lattices)


@st.composite
def thin_fields(draw) -> SensorField:
    # Two anchors 300 apart against x in 0..15 keep the grid one or two cells wide.
    points = [(0, 0), (0, 300)] + draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 300)),
                                                max_size=58))
    if draw(st.booleans()):
        points = [(y, x) for x, y in points]
    return SensorField(coords=[(float(x), float(y)) for x, y in points])


# Every node at one of a few places.
duplicate_fields = st.builds(
    lambda places, picks: SensorField(coords=[places[i % len(places)] for i in picks]),
    st.lists(st.tuples(st.integers(-5, 5).map(float), st.integers(-5, 5).map(float)), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=2, max_size=40),
)

# Points on one line, axis-parallel, diagonal or at a slope that rounds.
collinear_fields = st.builds(
    lambda ts, step: SensorField(coords=[(step[0] * t, step[1] * t) for t in ts]),
    st.lists(st.integers(-30, 30), min_size=2, max_size=40),
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.1, 0.3)]),
)


@st.composite
def outlier_fields(draw) -> SensorField:
    # A far outlier stretches the grid, so its own square holds no other node
    # and its row is searched again at r >= 2.
    points = draw(lattice_points)
    far = draw(st.sampled_from([(1e3, 0.0), (-700.0, 2e3), (5e5, 5e5)]))
    return SensorField(coords=[(float(x), float(y)) for x, y in points] + [far])


knn_fields = st.one_of(fields, thin_fields(), duplicate_fields, collinear_fields, outlier_fields())


def scan_nn_route(f: SensorField, start: int) -> list[int]:
    """Greedy oracle: every step scans all nodes and masks the visited ones."""
    visited = np.zeros(len(f), dtype=bool)
    order = [start]
    visited[start] = True
    for _ in range(len(f) - 1):
        d = distances_from(f.coords, order[-1])
        d[visited] = np.inf
        order.append(int(np.argmin(d)))
        visited[order[-1]] = True
    return order


@SETTINGS
@given(f=knn_fields, data=st.data())
def test_knn_build_matches_oracle_at_every_chunk_size(f, data):
    n = len(f)
    k = data.draw(st.integers(1, n - 1), label="k")
    oracle = brute_force_knn(f, k)
    for cs in (1, 3, 7, 64):
        g = build_knn_graph(f, k, cs)
        # the same slots in the same order: rows sorted by (weight, target)
        assert np.array_equal(g.targets, oracle.targets), f"chunk_size={cs}"
        assert np.array_equal(g.weights, oracle.weights), f"chunk_size={cs}"


@st.composite
def many_cell_fields(draw) -> SensorField:
    # Enough nodes for tens of cells, so that a tile spans cells whose squares
    # differ in size: short squares are padded, and each row needs its own
    # cell's cover bound. Lattice points near the origin tie and repeat, and
    # the pads' +inf keeps them out of every row; a skewed field crowds some
    # cells and leaves others sparse.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(30, 300), label="n")
    kind = draw(st.sampled_from(["lattice", "uniform", "skewed", "clusters", "outlier", "thin"]), label="kind")
    xy = rng.integers(0, 40, (n, 2)).astype(float)
    if kind == "uniform":
        xy = rng.random((n, 2)) * 100
    elif kind == "skewed":
        xy = rng.random((n, 2)) ** 3 * 100
    elif kind == "clusters":
        xy = rng.integers(0, 400, (4, 2))[rng.integers(0, 4, n)] + rng.integers(-3, 4, (n, 2))
    elif kind == "outlier":
        xy[-1] = (900.0, -700.0)
    elif kind == "thin":
        xy[:, 0] %= 3
        xy[:, 1] *= 10
    return SensorField(coords=xy)


@settings(SETTINGS, max_examples=100)
@given(f=many_cell_fields(), data=st.data())
def test_grid_build_matches_oracle_on_many_cell_fields(f, data):
    n = len(f)
    k = data.draw(st.integers(1, 12), label="k")
    oracle = brute_force_knn(f, k)
    for cs in (1, 2, 7, n + 1):
        g = build_knn_graph(f, k, cs)
        assert np.array_equal(g.targets, oracle.targets), f"chunk_size={cs}"
        assert np.array_equal(g.weights, oracle.weights), f"chunk_size={cs}"


@SETTINGS
@given(f=fields, data=st.data())
def test_nn_route_matches_scan_oracle(f, data):
    start = data.draw(st.integers(0, len(f) - 1), label="start")
    assert nn_route(f, start).order == scan_nn_route(f, start)


# With five points to a cell, node 2 lies on a wall of node 1's cell, 0.2
# away, and that wall's rounded position is 0.20000000000000004 away.
ON_A_WALL = SensorField(coords=[(3 * 0.1, -1 * 0.1), (0.0, 0.0), (0.0, 2 * 0.1)])


@example(f=ON_A_WALL)
@SETTINGS
@given(f=scaled_lattices)
def test_grid_cover_never_exceeds_an_outside_distance(f):
    dist = [distances_from(f.coords, q) for q in range(len(f))]
    for per_cell in (1, 2, 5):
        grid = CellGrid(f.coords, per_cell)
        for r in range(4):
            bounds = grid.cover(f.coords[:, 0], f.coords[:, 1], grid.cx, grid.cy, grid.walls(r))
            for q in range(len(f)):
                outside = (np.abs(grid.cx - grid.cx[q]) > r) | (np.abs(grid.cy - grid.cy[q]) > r)
                assert (dist[q][outside] >= bounds[q]).all()


@example(f=ON_A_WALL)
@SETTINGS
@given(f=scaled_lattices)
def test_nn_index_stores_every_nodes_grid_covers(f):
    # Greedy NN reads node i's cover for ring r at i * (_PAD + 1) + r; each
    # must be the grid's own bound, bit for bit.
    ix = routes._NnIndex(f, None)
    grid = CellGrid(f.coords, routes._NN_PER_CELL)
    for r in range(routes._PAD + 1):
        want = grid.cover(f.coords[:, 0], f.coords[:, 1], grid.cx, grid.cy, grid.walls(r)).tolist()
        assert [ix.covers[i * (routes._PAD + 1) + r] for i in range(len(f))] == want


def nn_test_field(kind: str) -> SensorField:
    if kind == "uniform":
        return generate_uniform(600, 1000, 1000, seed=3)
    if kind == "duplicates":  # every cell that holds a node holds 200
        return SensorField(coords=[(0, 0), (7, 7), (7, 0)] * 200)
    rng = np.random.default_rng(8)
    centres = rng.random((3, 2)) * 10000
    return SensorField(coords=centres[rng.integers(0, 3, 600)] + rng.normal(0, 5, (600, 2)))


@pytest.mark.parametrize("kind, lo, hi", [("uniform", 0, 30), ("duplicates", 300, 599),
                                          ("clustered", 100, 599)])
def test_nn_grid_search_and_full_scan_handover_match_a_scan(kind, lo, hi, monkeypatch):
    # Most uniform steps end in the ring search; most duplicate steps hand
    # over to the scan of the live nodes. Either way the route is the scan's.
    f = nn_test_field(kind)
    scans = []
    real = routes._nearest_unvisited

    def counting(xy, cur, alive):
        scans.append(cur)
        return real(xy, cur, alive)

    monkeypatch.setattr(routes, "_nearest_unvisited", counting)
    for start in (0, 299):
        assert nn_route(f, start).order == scan_nn_route(f, start)
    assert lo <= len(scans) / 2 <= hi


def test_nn_scans_over_a_shrinking_live_array_match_a_scan(monkeypatch):
    # Every handover compacts the live array to the unvisited nodes, so a
    # route's scans see fewer nodes each time, and ties among duplicates
    # still go to the lowest index.
    f = nn_test_field("duplicates")
    sizes = []
    real = routes._nearest_unvisited

    def recording(xy, cur, alive):
        sizes.append(len(alive))
        return real(xy, cur, alive)

    monkeypatch.setattr(routes, "_nearest_unvisited", recording)
    for start in range(0, 600, 23):
        sizes.clear()
        assert nn_route(f, start).order == scan_nn_route(f, start)
        assert len(sizes) >= 300 and sizes == sorted(set(sizes), reverse=True)


BUILDERS = (build_knn_graph, lambda f, k, cs: brute_force_knn(f, k))


@SETTINGS
@given(f=fields, data=st.data())
def test_accelerated_nn_matches_greedy_from_any_start(f, data):
    # Most steps take a kNN slot; those whose slots are all visited search
    # the grid, and a few hand over to the full scan.
    n = len(f)
    k = data.draw(st.integers(1, n - 1), label="k")
    start = data.draw(st.integers(0, n - 1), label="start")
    want = scan_nn_route(f, start)
    for build in BUILDERS:
        assert nn_route(f, start, build(f, k, 7)).order == want


@SETTINGS
@given(f=fields, data=st.data())
def test_nn_with_few_slots_matches_scan_oracle(f, data):
    # At k <= 3 most steps find every slot visited, so the grid search and
    # the scan decide them.
    n = len(f)
    k = data.draw(st.integers(1, min(3, n - 1)), label="k")
    start = data.draw(st.integers(0, n - 1), label="start")
    want = scan_nn_route(f, start)
    for build in BUILDERS:
        assert nn_route(f, start, build(f, k, 7)).order == want


@SETTINGS
@given(f=thin_fields(), data=st.data())
def test_nn_on_thin_grids_from_corner_starts_matches_scan_oracle(f, data):
    # Every ring of a cell on the grid's edge reaches into its empty padding,
    # so these searches hand steps over to the scan soonest.
    grid = CellGrid(f.coords, routes._NN_PER_CELL)
    assert min(grid.nx, grid.ny) <= 2
    s = f.coords[:, 0] + f.coords[:, 1]
    t = f.coords[:, 0] - f.coords[:, 1]
    corners = [int(np.argmin(s)), int(np.argmax(s)), int(np.argmin(t)), int(np.argmax(t))]
    start = data.draw(st.sampled_from(corners), label="start")
    k = data.draw(st.integers(1, min(3, len(f) - 1)), label="k")
    want = scan_nn_route(f, start)
    assert nn_route(f, start).order == want
    for build in BUILDERS:
        assert nn_route(f, start, build(f, k, 7)).order == want


def test_nn_routes_alternating_over_fields_and_graphs_match_scan_oracle():
    # Each graph keeps the index of the field it last routed; calls that
    # alternate between fields, graphs and no graph must not mix them up.
    fields = [generate_uniform(300, 1000, 1000, seed=s) for s in (21, 22)]
    graphs = [build_knn_graph(f, 4, 64) for f in fields]
    twin = SensorField(coords=fields[0].coords)
    calls = [(0, 0), (1, 1), (0, None), (0, 0), (1, None), (1, 1), (0, 0)]
    for step, (i, g) in enumerate(calls):
        start = 37 * step % 300
        graph = None if g is None else graphs[g]
        assert nn_route(fields[i], start, graph).order == scan_nn_route(fields[i], start)
    assert nn_route(twin, 5, graphs[0]).order == scan_nn_route(twin, 5)
    assert nn_route(fields[0], 6, graphs[0]).order == scan_nn_route(fields[0], 6)


FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(5, 5))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # On failure hypothesis's pytest plugin imports libcst to suggest a patch;
    # under error::DeprecationWarning libcst's own warning would end the
    # session in an INTERNALERROR that hides the example.
    shutil.copy(Path(__file__).parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_fails.py"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=60)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
