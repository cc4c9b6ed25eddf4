"""Greedy nearest-neighbor route construction and route length accounting.

Routes are open Hamiltonian paths by default (``closed=False``); the closed
flag adds the return edge to the length. The greedy builder always picks the
nearest unvisited node, breaking exact distance ties by lowest index, which
keeps it consistent with the kNN module's tie rule. It finds that node in
the current node's kNN slots when a graph is given, else by a ring search
over a cell grid from which visited nodes are deleted, else by a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

import numpy as np

from .field import SensorField, hop_lengths
from .grid import CellGrid

if TYPE_CHECKING:  # annotations only, so that `nn` loads no kNN code
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


def _nearest_unvisited(xy: np.ndarray, cur: int, alive: np.ndarray) -> int:
    """The node of ``alive``, ascending unvisited node indices, nearest to ``cur``."""
    dx = xy[alive, 0] - xy[cur, 0]
    dy = xy[alive, 1] - xy[cur, 1]
    return int(alive[np.argmin(np.sqrt(dx * dx + dy * dy))])  # first occurrence: lowest index wins ties


# Greedy NN buckets about this many nodes to a grid cell. A step's ring
# search gives up once it would look at more than _STEP_CELLS cells or
# _STEP_POINTS live nodes, and the step scans the live nodes instead, so a
# clustered or duplicate-heavy field costs about what a scan per step does.
_NN_PER_CELL = 2
_STEP_CELLS = 64
_STEP_POINTS = 64
# Empty cells on each side of the grid, 3. A search counts the (2r+1)**2
# cells of its square by ring r, on the grid or not, so it reaches ring 3 at
# most: (2*4+1)**2 > _STEP_CELLS. With this padding every ring of every cell
# lies inside the cell array, at fixed offsets from the cell.
_PAD = (math.isqrt(_STEP_CELLS) - 1) // 2


class _NnIndex:
    """What greedy NN reads of one field and its kNN graph, built once.

    ``cells`` is the grid's cells with ``_PAD`` empty cells on each side:
    a list of node indices, ascending, per cell that holds nodes and one
    shared empty tuple for every other cell. ``cell[i]`` is node i's padded
    cell id and ``pos[i]`` its place in that list. Ring r around padded cell
    c is ``c + o`` for each ``o`` in ``rings[r]``, and a memoryview holds the
    grid's cover bound of node i's ring r at ``covers[i * (_PAD + 1) + r]``.
    Nothing here is written after construction: a route copies ``pos`` and
    the lists it deletes from. Construction raises ValueError unless
    ``graph`` was built from a field with this one's coordinates.
    """

    def __init__(self, field: SensorField, graph: KnnGraph | None):
        xy = field.coords
        n = len(xy)
        if graph is not None and (graph.field is None or not np.array_equal(graph.field.coords, xy)):
            raise ValueError("graph was built from another field, or by hand; build it from this field")
        self.field = field
        grid = CellGrid(xy, _NN_PER_CELL)
        nx, ny = grid.nx, grid.ny
        w = nx + 2 * _PAD
        self.rings = [
            [dy * w + dx for dy in range(-r, r + 1) for dx in range(-r, r + 1) if max(abs(dx), abs(dy)) == r]
            for r in range(_PAD + 1)
        ]
        # A cell without nodes is the shared empty tuple: no route deletes from it.
        self.cells: list = [()] * (w * (ny + 2 * _PAD))
        self.pos = [0] * n
        for c, nodes in enumerate(grid.members()):
            if nodes:
                cy, cx = divmod(c, nx)
                self.cells[(cy + _PAD) * w + cx + _PAD] = nodes
                for p, i in enumerate(nodes):
                    self.pos[i] = p
        self.cell = ((grid.cy + _PAD) * w + grid.cx + _PAD).tolist()
        self.xs, self.ys = xy[:, 0].tolist(), xy[:, 1].tolist()
        covers = [grid.cover(xy[:, 0], xy[:, 1], grid.cx, grid.cy, grid.walls(r)) for r in range(_PAD + 1)]
        self.covers = memoryview(np.stack(covers, axis=1).ravel())
        self.slots = graph.targets.tolist() if graph is not None else [()] * n  # each node's targets


def _nn_index(field: SensorField, graph: KnnGraph | None) -> _NnIndex:
    """The index of ``field`` and ``graph``, kept on the graph for later calls with the same field."""
    if graph is None:
        return _NnIndex(field, None)
    index = getattr(graph, "_nn_index", None)
    if index is None or index.field is not field:
        index = _NnIndex(field, graph)
        object.__setattr__(graph, "_nn_index", index)  # the graph is frozen; the index dies with it
    return index


def _nearest_live(ix: _NnIndex, live: list, cur: int) -> int:
    """Nearest live node to ``cur`` by ring search (lowest index among ties), or -1 over budget."""
    xs, ys = ix.xs, ix.ys
    x, y, c = xs[cur], ys[cur], ix.cell[cur]
    best, best_d = -1, math.inf
    points = 0
    for r, offs in enumerate(ix.rings):
        for o in offs:
            nodes = live[c + o]
            if not nodes:
                continue
            points += len(nodes)
            if points > _STEP_POINTS:
                return -1
            for j in nodes:
                dx = xs[j] - x
                dy = ys[j] - y
                d = math.sqrt(dx * dx + dy * dy)
                if d < best_d or (d == best_d and j < best):
                    best, best_d = j, d
        if best_d < ix.covers[cur * (_PAD + 1) + r]:  # best_d is inf, below no cover, until a node is found
            return best
    return -1


def nn_route(field: SensorField, start: int = 0, graph: KnnGraph | None = None) -> Route:
    """Greedy construction: repeatedly hop to the nearest unvisited node.

    Visited nodes are deleted from a cell grid as the route reaches them.
    A step takes the first unvisited target in the current node's row of
    ``graph``, when one is given: rows are ordered by (weight, target), so
    that target is the nearest unvisited node. Without a graph, or when
    every slot of the row is visited, the step searches the grid ring by
    ring, and a search that grows past a fixed budget scans the unvisited
    nodes instead. ``graph`` must be built from this field, or from one
    with the same coordinates: ValueError otherwise. The grid, slot
    lists, ring offsets and cover bounds are built once per (field, graph)
    and kept on the graph, so repeated calls on one field share them.
    """
    n = len(field)
    if not 0 <= start < n:
        raise ValueError(f"start node {start} out of range for n={n}")
    ix = _nn_index(field, graph)
    xy = field.coords
    live = [nodes[:] for nodes in ix.cells]  # a tuple's [:] is itself; only lists are copied
    cell, slots, pos = ix.cell, ix.slots, ix.pos.copy()
    todo = bytearray(b"\x01") * n  # 1 while the node is unvisited
    unvisited = np.frombuffer(todo, dtype=np.bool_)  # the scan's view of todo
    alive = np.arange(n)  # a superset of the unvisited nodes, ascending; each scan compacts it
    keep = np.empty(n, dtype=np.bool_)  # one mask buffer; numpy caches each small array size it frees
    order = [start]
    cur = start
    for _ in range(n - 1):
        todo[cur] = 0
        nodes = live[cell[cur]]
        last = nodes.pop()
        if last != cur:  # the cell's last node fills the deleted one's place
            nodes[pos[cur]] = last
            pos[last] = pos[cur]
        for nxt in slots[cur]:
            if todo[nxt]:
                break
        else:
            nxt = _nearest_live(ix, live, cur)
            if nxt < 0:
                alive = alive[np.take(unvisited, alive, out=keep[:len(alive)], mode="clip")]
                nxt = _nearest_unvisited(xy, cur, alive)
        cur = nxt
        order.append(cur)
    return Route(order=order, closed=False)


def dump_route(route: Route) -> str:
    """Text dump, one node index per line."""
    return "\n".join(str(v) for v in route.order) + "\n"
