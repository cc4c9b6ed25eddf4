"""Greedy nearest-neighbor route construction and route length accounting.

Routes are open Hamiltonian paths by default (``closed=False``); the closed
flag adds the return edge to the length. The greedy builder always picks the
nearest unvisited node, breaking exact distance ties by lowest index, which
keeps it consistent with the kNN module's tie rule. It finds that node in
the current node's kNN slots when a graph is given, else by a ring search
over a cell grid from which visited nodes are deleted, else by a full scan.
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


def nn_route(field: SensorField, start: int = 0, graph: KnnGraph | None = None) -> Route:
    """Greedy construction: repeatedly hop to the nearest unvisited node.

    Visited nodes are deleted from a cell grid as the route reaches them.
    A step takes the first unvisited target in the current node's row of
    ``graph``, when one is given: rows are ordered by (weight, target), so
    that target is the nearest unvisited node. Without a graph, or when
    every slot of the row is visited, the step searches the grid ring by
    ring, and a search that grows past a fixed budget scans every node
    instead. ``graph`` must be a kNN graph of this field.
    """
    n = len(field)
    if graph is not None and graph.n != n:
        raise ValueError(f"graph built for n={graph.n}, field has n={n}")
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
    slots = graph.targets.tolist() if graph is not None else [[]] * n  # each node's targets
    seen = bytearray(n)
    visited = np.frombuffer(seen, dtype=np.bool_)  # the scan's view of seen
    order = [start]
    cur = start
    for _ in range(n - 1):
        seen[cur] = 1
        cx, cy = cell_x[cur], cell_y[cur]
        nodes = live[cy * nx + cx]
        last = nodes.pop()
        if last != cur:  # the cell's last node fills the deleted one's place
            nodes[pos[cur]] = last
            pos[last] = pos[cur]
        nxt = -1
        for t in slots[cur]:
            if not seen[t]:
                nxt = t
                break
        if nxt < 0:
            nxt = _nearest_live(grid, live, xs, ys, cur, cx, cy)
            if nxt < 0:
                nxt = _nearest_unvisited(xy, cur, visited)
        cur = nxt
        order.append(cur)
    return Route(order=order, closed=False)


def dump_route(route: Route) -> str:
    """Text dump, one node index per line."""
    return "\n".join(str(v) for v in route.order) + "\n"
