"""Brute-force oracles and point helpers the tests check the package against.

None of this runs in a subcommand. Every distance here uses the package's
canonical expression, ``sqrt(dx*dx + dy*dy)``, so an oracle's values match
the fast paths' bit for bit.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from wsnroute.field import SensorField
from wsnroute.knn import KnnGraph, _built, _check_k
from wsnroute.routes import Route


class Point(NamedTuple):
    x: float
    y: float


def points(field: SensorField) -> tuple[Point, ...]:
    """The field's coordinates as ``Point`` tuples."""
    return tuple(Point(x, y) for x, y in field.coords.tolist())


def distance(p: Point, q: Point) -> float:
    """Euclidean distance; the scalar form of the package's canonical metric."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.sqrt(dx * dx + dy * dy)


def distance_block(xy: np.ndarray) -> np.ndarray:
    """The (n, n) matrix of distances between every pair of points.

    Uses the canonical metric expression so entries match :func:`distance`
    bit-for-bit.
    """
    dx = xy[:, 0][:, None] - xy[:, 0][None, :]
    dy = xy[:, 1][:, None] - xy[:, 1][None, :]
    return np.sqrt(dx * dx + dy * dy)


def neighbor_set(graph: KnnGraph, row: int) -> set[tuple[int, float]]:
    """The row's neighbors as (target, weight) pairs."""
    return set(zip(graph.targets[row].tolist(), graph.weights[row].tolist()))


def brute_force_knn(field: SensorField, k: int) -> KnnGraph:
    """Per row, sort all candidates by (distance, target).

    Fixes the tie rule ``build_knn_graph`` must match: among equal distances
    the lower target index is kept. The graph records ``field``, as a
    builder's does.
    """
    n = len(field)
    _check_k(n, k)
    d = distance_block(field.coords)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    weights = np.take_along_axis(d, order, axis=1)
    return _built(field, order, weights)


_BATCH = 200_000


def brute_force_optimal(field: SensorField, start: int | None = None) -> Route:
    """Exhaustive minimum-length open path.

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
    d = distance_block(field.coords)
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
