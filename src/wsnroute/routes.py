"""Greedy nearest-neighbor route construction and route length accounting.

Routes are open Hamiltonian paths by default (``closed=False``); the closed
flag adds the return edge to the length. The greedy builder always picks the
nearest unvisited node, breaking exact distance ties by lowest index, which
keeps it consistent with the kNN module's tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import SensorField, distances_from, hop_lengths
from .knn import KnnGraph


@dataclass
class Route:
    """An ordering of node indices; a permutation of 0..n-1."""

    order: list[int]
    closed: bool = dc_field(default=False)


def validate_route(field: SensorField, route: Route) -> None:
    """Raise ValueError unless route.order is a permutation of 0..n-1."""
    n = len(field)
    if len(route.order) != n:
        raise ValueError(f"route visits {len(route.order)} nodes, field has {n}")
    seen = bytearray(n)
    for v in route.order:
        if not 0 <= v < n or seen[v]:
            raise ValueError(f"route is not a permutation of 0..{n - 1} (offender: {v})")
        seen[v] = 1


def route_length(field: SensorField, route: Route) -> float:
    """Sum of consecutive-pair distances, plus the closing edge iff closed."""
    validate_route(field, route)
    return float(np.sum(hop_lengths(field.coords, route.order, route.closed)))


def _nearest_unvisited(xy: np.ndarray, cur: int, visited: np.ndarray) -> int:
    d = distances_from(xy, cur)
    d[visited] = np.inf
    return int(np.argmin(d))  # first occurrence: lowest index wins ties


def nn_route(field: SensorField, start: int = 0) -> Route:
    """Greedy construction: repeatedly hop to the nearest unvisited node."""
    n = len(field)
    if not 0 <= start < n:
        raise ValueError(f"start node {start} out of range for n={n}")
    xy = field.coords
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    order = [start]
    cur = start
    for _ in range(n - 1):
        cur = _nearest_unvisited(xy, cur, visited)
        visited[cur] = True
        order.append(cur)
    return Route(order=order, closed=False)


def nn_route_accelerated(field: SensorField, graph: KnnGraph, start: int = 0) -> Route:
    """Greedy construction consulting the kNN graph first.

    The current node's k slots are scanned for the nearest unvisited target;
    only when all k are already visited does the step fall back to a full
    scan. Produces exactly the same route as :func:`nn_route`.
    """
    n = len(field)
    if graph.n != n:
        raise ValueError(f"graph built for n={graph.n}, field has n={n}")
    if not 0 <= start < n:
        raise ValueError(f"start node {start} out of range for n={n}")
    xy = field.coords
    k = graph.k
    targets = graph.targets
    weights = graph.weights
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    order = [start]
    cur = start
    for _ in range(n - 1):
        base = cur * k
        best_t = -1
        best_w = np.inf
        for s in range(k):
            t = targets[base + s]
            if t >= 0 and not visited[t]:
                w = weights[base + s]
                if w < best_w or (w == best_w and t < best_t):
                    best_w = w
                    best_t = t
        if best_t >= 0:
            cur = best_t
        else:
            cur = _nearest_unvisited(xy, cur, visited)
        visited[cur] = True
        order.append(cur)
    return Route(order=order, closed=False)


def dump_route(route: Route) -> str:
    """Text dump, one node index per line."""
    return "\n".join(str(v) for v in route.order) + "\n"
