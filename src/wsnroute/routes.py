"""Greedy nearest-neighbor route construction and route length accounting.

Routes are open Hamiltonian paths by default (``closed=False``); the closed
flag adds the return edge to the length. The greedy builder always picks the
nearest unvisited node, breaking exact distance ties by lowest index, which
keeps it consistent with the kNN module's tie rule. It finds that node in
the current node's kNN slots, of a given graph or else of a small table the
route builds with the kNN kernel, else by a ring search over a cell grid
from which visited nodes are deleted, else by a scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

import numpy as np

from .field import SensorField, hop_lengths
from .grid import CellGrid, knn_rows

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


# Without a graph, a route builds its own table of each node's _OWN_K
# nearest (fewer when n - 1 is less) with the kNN kernel, 256 rows to a tile,
# and searches cells of about max(k, 2) nodes, as with a graph of k slots.
# Route time, the table's build included, against k=4 (medians and quartiles
# of paired runs, 6 uniform fields x 8 rounds, 2-vCPU x86-64 VM):
#
#     k             3          5          6          8
#     n=2000        1.02       1.02       1.03       1.08
#     quartiles     1.00-1.06  1.00-1.04  1.01-1.06  1.04-1.14
#     n=5000        1.04       1.01       1.03       1.08
#     quartiles     1.03-1.06  0.98-1.02  1.00-1.04  1.05-1.11
#
# The k=4 route took 0.85-0.89 as long as the route in cells of 2 without a table.
_OWN_K = 4
# A step's ring search gives up once it would look past ring _PAD or at more
# than _STEP_POINTS live nodes, and the step scans the live nodes instead,
# so a clustered or duplicate-heavy field costs about what a scan per step
# does. Rings 0 to 3 are the 7x7 square of cells, the most within a budget
# of 64 cells: ring 4 would make 81. In cells of k=8 nodes, as above with 15
# paired runs, more points cut a few scans but no time beyond the runs' spread:
#
#     _STEP_POINTS      64    96         128
#     scans per route   7.6   6.7        6.4
#     route time        1     0.99       0.98
#     quartiles               0.95-1.05  0.93-1.06
_STEP_POINTS = 64
# With _PAD empty cells on each side of the grid, every ring a search
# reaches lies inside the cell array, at fixed offsets from the cell.
_PAD = 3


class _NnIndex:
    """What greedy NN reads of one field and its kNN graph, built once.

    ``cells`` is the grid's cells with ``_PAD`` empty cells on each side:
    a list of node indices, ascending, per cell that holds nodes and one
    shared empty tuple for every other cell. ``cell[i]`` is node i's padded
    cell id and ``pos[i]`` its place in that list. Ring r around padded cell
    c is ``c + o`` for each ``o`` in ``rings[r]``, and a memoryview holds the
    grid's cover bound of node i's ring r at ``covers[i * (_PAD + 1) + r]``.
    ``targets`` is the graph's rows, or without a graph the route's own
    table, in which a row whose square is crowded names only its own node;
    ``slots[i]`` is row i as a list. Nothing here is written after
    construction: a route copies ``pos`` and the lists it deletes from.
    Construction raises ValueError unless ``graph`` was built from a field
    with this one's coordinates.
    """

    def __init__(self, field: SensorField, graph: KnnGraph | None, stats: dict | None = None):
        xy = field.coords
        n = len(xy)
        if graph is not None and (graph.field is None or not np.array_equal(graph.field.coords, xy)):
            raise ValueError("graph was built from another field, or by hand; build it from this field")
        self.field = field
        if graph is not None:
            self.targets = graph.targets
        elif n > 1:
            # A row whose square holds more nodes than a ring search may look
            # at is not measured: on a crowded field that would cost more than
            # the scans it saves. The row names only its own node, which every
            # step from it has visited, so its steps search and scan.
            self.targets = knn_rows(xy, min(_OWN_K, n - 1), 256, _STEP_POINTS, stats)[0]
        else:
            self.targets = np.empty((n, 0), dtype=np.intp)
        # A step searches the grid only once its k slots are visited, so its
        # answer lies past the k-th neighbour: cells of about k nodes reach it
        # in fewer rings than cells of 2, which are mostly empty by then.
        grid = CellGrid(xy, max(self.targets.shape[1], 2))
        w = grid.nx + 2 * _PAD
        self.rings = [[dy * w + dx for dy in range(-r, r + 1) for dx in range(-r, r + 1) if max(abs(dx), abs(dy)) == r]
                      for r in range(_PAD + 1)]
        self.cell = ((grid.cy + _PAD) * w + grid.cx + _PAD).tolist()
        # A cell without nodes is the shared empty tuple: no route deletes from it.
        self.cells: list = [()] * (w * (grid.ny + 2 * _PAD))
        order, start = grid.order.tolist(), grid.start.tolist()
        for c in np.flatnonzero(np.diff(grid.start)).tolist():  # the cells that hold nodes
            self.cells[self.cell[order[start[c]]]] = order[start[c]:start[c + 1]]
        pos = np.empty(n, dtype=np.intp)
        pos[grid.order] = np.arange(n) - grid.start[grid.cell[grid.order]]
        self.pos = pos.tolist()
        self.xs, self.ys = xy[:, 0].tolist(), xy[:, 1].tolist()
        covers = [grid.cover(xy[:, 0], xy[:, 1], grid.cx, grid.cy, grid.walls(r)) for r in range(_PAD + 1)]
        self.covers = memoryview(np.stack(covers, axis=1).ravel())
        self.slots = self.targets.tolist()  # each node's targets


def _nn_index(field: SensorField, graph: KnnGraph | None, stats: dict | None) -> _NnIndex:
    """The index of ``field`` and ``graph``, kept on the graph for later calls with the same field."""
    if graph is None:
        return _NnIndex(field, None, stats)
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


def nn_route(field: SensorField, start: int = 0, graph: KnnGraph | None = None, stats: dict | None = None) -> Route:
    """Greedy construction: repeatedly hop to the nearest unvisited node.

    Visited nodes are deleted from a cell grid as the route reaches them.
    A step takes the first unvisited target in the current node's row of
    ``graph``, or without one of the route's own table of its ``_OWN_K``
    nearest: rows are ordered by (weight, target), so that target is the
    nearest unvisited node. A row of the table whose square is crowded
    names only its own node, already visited. When every slot of the row is
    visited, the step searches the grid ring by ring, and a search that
    grows past a fixed budget scans the unvisited nodes instead. ``graph``
    must be built from this field, or from one with the same coordinates:
    ValueError otherwise. The grid, slot lists, ring offsets and cover
    bounds are built once per (field, graph) and kept on the graph, so
    repeated calls on one field share them.
    When ``stats`` is given, it receives how the route's n - 1 steps were
    settled: ``slot_steps`` by a slot, ``ring_searches`` by the grid search
    and ``scans`` by the scan; a route that builds its own table also gets
    the kernel's ``settled``, ``tied`` and ``crowded``, the rows that name
    only their own node.
    """
    n = len(field)
    if not 0 <= start < n:
        raise ValueError(f"start node {start} out of range for n={n}")
    ix = _nn_index(field, graph, stats)
    xy = field.coords
    live = [nodes[:] for nodes in ix.cells]  # a tuple's [:] is itself; only lists are copied
    cell, slots, pos = ix.cell, ix.slots, ix.pos.copy()
    todo = bytearray(b"\x01") * n  # 1 while the node is unvisited
    unvisited = np.frombuffer(todo, dtype=np.bool_)  # the scan's view of todo
    alive = np.arange(n)  # a superset of the unvisited nodes, ascending; each scan compacts it
    keep = np.empty(n, dtype=np.bool_)  # one mask buffer; numpy caches each small array size it frees
    order = [start]
    cur = start
    scans = 0
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
                scans += 1
                alive = alive[np.take(unvisited, alive, out=keep[:len(alive)], mode="clip")]
                nxt = _nearest_unvisited(xy, cur, alive)
        cur = nxt
        order.append(cur)
    if stats is not None:
        # Step i takes a slot exactly when its node's row names a node the
        # route reaches after step i. Counted from the finished route, the
        # slot steps and the grid searches cost the steps nothing.
        at = np.empty(n, dtype=np.intp)  # each node's place in the route
        at[order] = np.arange(n)
        later = at[ix.targets[order[:-1]]] > np.arange(n - 1)[:, None]
        slot_steps = int(np.count_nonzero(later.any(axis=1)))
        stats.update(slot_steps=slot_steps, ring_searches=n - 1 - slot_steps - scans, scans=scans)
    return Route(order=order, closed=False)


def dump_route(route: Route) -> str:
    """Text dump, one node index per line."""
    return "\n".join(str(v) for v in route.order) + "\n"
