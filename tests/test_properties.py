"""Property tests: the fast kNN and greedy paths against their oracles.

Fields are small integer lattices, so duplicate points, collinear runs and
exact distance ties (where the lowest-index rule decides) are common.
Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

from hypothesis import given, settings, strategies as st

from wsnroute import (
    SensorField,
    brute_force_knn,
    build_knn_graph,
    nn_route,
    nn_route_accelerated,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

lattice_points = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=40
)


def as_field(points) -> SensorField:
    return SensorField(coords=[(float(x), float(y)) for x, y in points], width=6.0, height=6.0)


@SETTINGS
@given(points=lattice_points, data=st.data())
def test_knn_build_matches_oracle_at_every_chunk_size(points, data):
    f = as_field(points)
    n = len(f)
    k = data.draw(st.integers(1, n - 1), label="k")
    oracle = brute_force_knn(f, k)
    want = [oracle.neighbor_set(r) for r in range(n)]
    for cs in (1, 3, 7, 64):
        g = build_knn_graph(f, k, cs)
        assert [g.neighbor_set(r) for r in range(n)] == want, f"chunk_size={cs}"


@SETTINGS
@given(points=lattice_points, data=st.data())
def test_accelerated_nn_matches_greedy_from_any_start(points, data):
    f = as_field(points)
    n = len(f)
    k = data.draw(st.integers(1, n - 1), label="k")
    start = data.draw(st.integers(0, n - 1), label="start")
    graph = build_knn_graph(f, k, 7)
    assert nn_route_accelerated(f, graph, start).order == nn_route(f, start).order
