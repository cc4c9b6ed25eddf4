"""Property tests: the fast kNN and greedy paths against their oracles.

Fields are small integer lattices, tight clusters around a few centres, and
lattices with a step of 0.1, 1/3 or 1e-170 or an offset of 1e9. Duplicate
points, collinear runs and exact distance ties (where the lowest-index rule
decides) are common; on the scaled and offset lattices rounding moves points
and cell walls by an ulp, or flushes a squared distance to 0, which a cell
grid's cover bound must allow for. Examples
are derandomized and no example database is kept, so every run draws the
same cases. Greedy NN is also checked on three fixed 600-node fields, where
it either searches its grid or hands a step over to a full scan. With a kNN
graph from any of the three builders it takes the first unvisited slot of a
row first.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wsnroute import (
    SensorField,
    brute_force_knn,
    build_knn_graph,
    generate_uniform,
    nn_route,
    nn_route_accelerated,
)
from wsnroute import routes
from wsnroute.field import distances_from
from wsnroute.grid import CellGrid
from wsnroute.knn import maxk_knn_graph

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

lattice_points = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=40
)


def as_field(points) -> SensorField:
    return SensorField(coords=[(float(x), float(y)) for x, y in points], width=6.0, height=6.0)


@st.composite
def clustered_fields(draw) -> SensorField:
    centres = draw(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                            min_size=1, max_size=4))
    members = draw(st.lists(
        st.tuples(st.sampled_from(centres), st.integers(-4, 4), st.integers(-4, 4)),
        min_size=2, max_size=40,
    ))
    return SensorField(coords=[(cx + dx / 4, cy + dy / 4) for (cx, cy), dx, dy in members],
                       width=2000.0, height=2000.0)


# Lattices with a step that is not a power of two, or offset by 1e9: cell
# walls and coordinates round differently, and a point may sit within an ulp
# of a wall. At a step of 1e-170 the squared distances underflow to 0. Without
# its slack, the grid's cover bound fails on such fields.
scaled_lattices = st.builds(
    lambda points, step, offset: SensorField(
        coords=[(offset + step * x, offset + step * y) for x, y in points], width=6.0, height=6.0),
    lattice_points, st.sampled_from([1.0, 0.1, 1 / 3, 1e-170]), st.sampled_from([0.0, 1e9, -1e9]),
)

fields = st.one_of(lattice_points.map(as_field), clustered_fields(), scaled_lattices)


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
@given(f=fields, data=st.data())
def test_knn_build_matches_oracle_at_every_chunk_size(f, data):
    n = len(f)
    k = data.draw(st.integers(1, n - 1), label="k")
    oracle = brute_force_knn(f, k)
    for build in (build_knn_graph, maxk_knn_graph):
        for cs in (1, 3, 7, 64):
            g = build(f, k, cs)
            # the same slots in the same order: rows sorted by (weight, target)
            assert (g.targets, g.weights) == (oracle.targets, oracle.weights), f"{build.__name__} chunk_size={cs}"


@SETTINGS
@given(f=fields, data=st.data())
def test_nn_route_matches_scan_oracle(f, data):
    start = data.draw(st.integers(0, len(f) - 1), label="start")
    assert nn_route(f, start).order == scan_nn_route(f, start)


# With five points to a cell, node 2 lies on a wall of node 1's cell, 0.2
# away, and that wall's rounded position is 0.20000000000000004 away.
@example(f=SensorField(coords=[(3 * 0.1, -1 * 0.1), (0.0, 0.0), (0.0, 2 * 0.1)], width=1.0, height=1.0))
@SETTINGS
@given(f=scaled_lattices)
def test_grid_cover_never_exceeds_an_outside_distance(f):
    dist = [distances_from(f.coords, q) for q in range(len(f))]
    for per_cell in (1, 2, 5):
        grid = CellGrid(f.coords, per_cell)
        for q, (x, y) in enumerate(f.coords.tolist()):
            cx, cy = int(grid.cx[q]), int(grid.cy[q])
            for r in range(4):
                outside = (np.abs(grid.cx - cx) > r) | (np.abs(grid.cy - cy) > r)
                assert (dist[q][outside] >= grid.cover(x, y, cx, cy, r)).all()


def nn_test_field(kind: str) -> SensorField:
    if kind == "uniform":
        return generate_uniform(600, 1000, 1000, seed=3)
    if kind == "duplicates":  # every cell that holds a node holds 200
        return SensorField(coords=[(0, 0), (7, 7), (7, 0)] * 200, width=7, height=7)
    rng = np.random.default_rng(8)
    centres = rng.random((3, 2)) * 10000
    return SensorField(coords=centres[rng.integers(0, 3, 600)] + rng.normal(0, 5, (600, 2)),
                       width=10000, height=10000)


@pytest.mark.parametrize("kind, lo, hi", [("uniform", 0, 30), ("duplicates", 300, 599),
                                          ("clustered", 100, 599)])
def test_nn_grid_search_and_full_scan_handover_match_a_scan(kind, lo, hi, monkeypatch):
    # Most uniform steps end in the ring search; most duplicate steps hand
    # over to the full scan. Either way the route is the scan's.
    f = nn_test_field(kind)
    scans = []
    real = routes._nearest_unvisited

    def counting(xy, cur, visited):
        scans.append(cur)
        return real(xy, cur, visited)

    monkeypatch.setattr(routes, "_nearest_unvisited", counting)
    for start in (0, 299):
        assert nn_route(f, start).order == scan_nn_route(f, start)
    assert lo <= len(scans) / 2 <= hi


BUILDERS = (build_knn_graph, maxk_knn_graph, lambda f, k, cs: brute_force_knn(f, k))


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
    assert nn_route_accelerated(f, build_knn_graph(f, k, 7), start).order == want


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
