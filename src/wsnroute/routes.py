"""Greedy nearest-neighbor route construction and route length accounting.

Routes are open Hamiltonian paths by default (``closed=False``); the closed
flag adds the return edge to the length. The greedy builder always picks the
nearest unvisited node, breaking exact distance ties by lowest index, which
keeps it consistent with the kNN module's tie rule. It finds that node by a
ring search over a cell grid from which visited nodes are deleted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import SensorField, distances_from, hop_lengths
from .grid import CellGrid
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


# Greedy NN buckets about this many nodes to a grid cell. A step's ring
# search gives up once it would look at more than _STEP_CELLS cells or
# _STEP_POINTS live nodes, and the step takes the full numpy scan instead, so
# a clustered or duplicate-heavy field costs about what a scan per step does.
_NN_PER_CELL = 2
_STEP_CELLS = 64
_STEP_POINTS = 64


def _nearest_live(grid: CellGrid, live: list[list[int]], xs: list[float], ys: list[float],
                  cur: int, cx: int, cy: int) -> int:
    """Nearest live node to ``cur`` by ring search (lowest index among ties), or -1 over budget."""
    x, y = xs[cur], ys[cur]
    best, best_d = -1, math.inf
    cells = points = 0
    r = 0
    while True:
        ring = grid.ring(cx, cy, r)
        cells += len(ring)
        for c in ring:
            points += len(live[c])
        if cells > _STEP_CELLS or points > _STEP_POINTS:
            return -1
        for c in ring:
            for j in live[c]:
                dx = xs[j] - x
                dy = ys[j] - y
                d = math.sqrt(dx * dx + dy * dy)
                if d < best_d or (d == best_d and j < best):
                    best, best_d = j, d
        if best_d < grid.cover(x, y, cx, cy, r):
            return best
        r += 1


def nn_route(field: SensorField, start: int = 0) -> Route:
    """Greedy construction: repeatedly hop to the nearest unvisited node.

    Each step searches a cell grid ring by ring over the nodes not yet
    visited, which are deleted from their cells as the route reaches them;
    a step whose search grows past a fixed budget scans every node instead.
    """
    n = len(field)
    if not 0 <= start < n:
        raise ValueError(f"start node {start} out of range for n={n}")
    xy = field.coords
    grid = CellGrid(xy, _NN_PER_CELL)
    live = grid.members()
    pos = [0] * n  # each live node's position in its cell's list
    for nodes in live:
        for p, i in enumerate(nodes):
            pos[i] = p
    cell_x, cell_y = grid.cx.tolist(), grid.cy.tolist()
    xs, ys = xy[:, 0].tolist(), xy[:, 1].tolist()
    nx = grid.nx
    visited = np.zeros(n, dtype=bool)
    order = [start]
    cur = start
    for _ in range(n - 1):
        visited[cur] = True
        cx, cy = cell_x[cur], cell_y[cur]
        nodes = live[cy * nx + cx]
        last = nodes.pop()
        if last != cur:  # the cell's last node fills the deleted one's place
            nodes[pos[cur]] = last
            pos[last] = pos[cur]
        nxt = _nearest_live(grid, live, xs, ys, cur, cx, cy)
        cur = nxt if nxt >= 0 else _nearest_unvisited(xy, cur, visited)
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
