"""k-nearest-neighbor graphs: the cell-grid build and the graph dump.

Every builder returns a finished :class:`KnnGraph`: two read-only (n, k)
arrays whose row i holds node i's k nearest other nodes, ordered by
(weight, target), and the field they were measured on.

:func:`build_knn_graph` buckets the nodes into a uniform cell grid of about
k nodes to a cell (:mod:`wsnroute.grid`). A tile is the next chunk_size
pending rows in cell order, across cells, each against every node in the
square of cells around its own cell, index-ascending; each row keeps its k
nearest by selection, then a stable order of those k. A row tied at its k-th
distance takes its tied entries in column order, by a running count, so no
row is sorted whole. A row whose k-th distance does not fall strictly inside
its cell's cover bound is searched again over a wider square, so the result
is exact. On a uniform field the work is O(n k) plus O(n k log k) for the
kept slots, rather than O(n²).

Tie rule: among equal distances the lowest column index wins. Two things
define it: the brute-force oracle of the tests (``tests/oracles.py``), which
stably sorts every row of the full distance matrix, and :func:`_select`
inside :func:`build_knn_graph`, which equals that sort's first k columns.
The two builds give the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import SensorField, format_coords, join_lines
from .grid import CellGrid

_INF = float("inf")


@dataclass(frozen=True, eq=False)
class KnnGraph:
    """A finished kNN graph: row i of ``targets`` and ``weights`` is node i's k nearest.

    Both are copied on construction into read-only (n, k) arrays, intp and
    float64. Every target is a node index, and every row is ordered by
    (weight, target), so the first slot whose target passes a test is the
    nearest node that does; among exact distance ties the lowest target
    index is kept. Every weight is finite and not below 0. Construction
    raises ValueError otherwise. ``field`` is the field a builder measured
    the rows on; it is None on a graph constructed by hand, which nothing
    checks to hold a field's nearest nodes, and which ``nn_route`` refuses.
    """

    targets: np.ndarray
    weights: np.ndarray
    field: SensorField | None = dc_field(default=None, init=False, repr=False)

    def __post_init__(self):
        targets = np.array(self.targets, dtype=np.intp)
        weights = np.array(self.weights, dtype=np.float64)
        if targets.ndim != 2 or targets.shape != weights.shape:
            raise ValueError(f"targets {targets.shape} and weights {weights.shape} must be one (n, k) shape")
        if targets.size and not (0 <= targets.min() and targets.max() < len(targets)):
            raise ValueError(f"targets must be node indices in 0..{len(targets) - 1}")
        if not np.isfinite(weights).all() or (weights < 0).any():  # NaN would pass the order check
            raise ValueError("weights must be finite and non-negative")
        w0, w1 = weights[:, :-1], weights[:, 1:]
        if ((w0 > w1) | ((w0 == w1) & (targets[:, :-1] > targets[:, 1:]))).any():
            raise ValueError("graph rows must be ordered by (weight, target)")
        for name, arr in (("targets", targets), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _built(field: SensorField, targets: np.ndarray, weights: np.ndarray) -> KnnGraph:
    """The finished graph of ``field``'s rows, recording the field it was measured on."""
    graph = KnnGraph(targets, weights)
    object.__setattr__(graph, "field", field)
    return graph


def _check_k(n: int, k: int) -> None:
    if k < 1 or k > n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")


def build_knn_graph(field: SensorField, k: int, chunk_size: int) -> KnnGraph:
    """The kNN graph from cell-grid tiles; at most ``chunk_size`` query rows per tile.

    A tile is the next ``chunk_size`` pending rows in cell order, across
    cells, starting at r = 1. Each row is measured against every node in the
    square of cells within r of its own cell, index-ascending, and keeps its
    k nearest by selection, then a stable order of those k; a row tied at
    its k-th weight takes its tied entries in column order. Either way ties
    go to the lowest index. A row whose k-th weight is not strictly inside
    its cell's cover bound could have a nearer node outside the square and
    is searched again at r + 1. The graph equals the brute-force oracle's
    for every chunk_size.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    n = len(field)
    _check_k(n, k)
    # Node n is the pad of a square's row: at +inf, so its distances are +inf
    # and sort after every real candidate.
    xs = np.append(field.coords[:, 0], _INF)
    ys = np.append(field.coords[:, 1], _INF)
    grid = CellGrid(field.coords, k)
    targets = np.empty((n, k), dtype=np.intp)
    weights = np.empty((n, k))
    pending = grid.order
    r = 1
    while len(pending):
        walls = grid.walls(r)
        missed = []
        for lo in range(0, len(pending), chunk_size):
            q = pending[lo:lo + chunk_size]
            done, targets[q], weights[q] = _tile(grid, xs, ys, q, k, r, walls)
            missed.append(q[~done])
        pending = np.concatenate(missed)
        r += 1
    return _built(field, targets, weights)


def _tile(grid: CellGrid, xs: np.ndarray, ys: np.ndarray, q: np.ndarray, k: int, r: int,
          walls: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``q``, in cell order, against the squares of cells within ``r`` of their own cells.

    Returns whether each row is settled, and each row's k nearest candidates
    and their weights; the slots of a row that is not settled are garbage.
    """
    n = len(xs) - 1
    cell = grid.cell[q]
    first = np.flatnonzero(np.diff(cell, prepend=-1))
    sq = grid.squares(cell[first], r, k + 1)
    u = np.repeat(np.arange(len(first)), np.diff(first, append=len(q)))  # each row's square
    qx, qy = xs[q], ys[q]
    # In place, so a tile holds two (rows, m) arrays at a time.
    d = np.take(xs[sq], u, axis=0)
    np.subtract(qx[:, None], d, out=d)
    d *= d
    dy = np.take(ys[sq], u, axis=0)
    np.subtract(qy[:, None], dy, out=dy)
    dy *= dy
    d += dy
    del dy
    np.sqrt(d, out=d)
    # Each row's own node, found in the sorted squares made disjoint by a row offset.
    keys = sq + (np.arange(len(sq)) * (n + 1))[:, None]
    d[np.arange(len(q)), np.searchsorted(keys.ravel(), u * (n + 1) + q) - u * sq.shape[1]] = _INF
    best = _select(d, k)
    w = np.take_along_axis(d, best, axis=1)
    # A square of k or fewer other nodes leaves +inf at the k-th slot, never inside a bound.
    done = w[:, -1] < grid.cover(qx, qy, grid.cx[q], grid.cy[q], walls)
    return done, sq[u[:, None], best], w


def _select(d: np.ndarray, k: int) -> np.ndarray:
    """Each row's k smallest columns of ``d``, ordered by (weight, column).

    Equals ``np.argsort(d, axis=1, kind="stable")[:, :k]`` for rows of more
    than k columns. Selection puts each row's k smallest entries first and
    its (k+1)-th next. A row keeps its entries below its (k+1)-th weight:
    exactly k of them, unless its k-th and (k+1)-th weights are equal (a tie
    at the k-th slot, or a row padded with +inf). Such a tied row keeps its
    entries below the k-th weight, then its first entries equal to it, in
    column order, up to k. Every row's k columns, index-ascending, are then
    ordered by a stable sort of just their k weights.
    """
    part = np.partition(d, k, axis=1)
    kth = part[:, :k].max(axis=1)
    nxt = part[:, k:k + 1].copy()
    del part  # so the mask below can take its place
    keep = d < nxt
    tied = np.flatnonzero(kth == nxt[:, 0])
    if len(tied):
        eq = d[tied] == kth[tied, None]
        short = k - np.count_nonzero(keep[tied], axis=1)
        # an int32 count moves half the bytes of an intp one
        keep[tied] |= eq & (np.cumsum(eq, axis=1, dtype=np.int32) <= short[:, None])
    at = np.flatnonzero(keep).reshape(-1, k)  # each row's k slots, as flat indices into d
    return np.take_along_axis(at % d.shape[1], np.argsort(d.take(at), axis=1, kind="stable"), axis=1)


def dump_graph(graph: KnnGraph) -> str:
    """Text dump, one ``source target weight`` line per slot, row by row.

    Rows are ordered by (weight, target), so the lines are sorted by
    (source, weight, target). Node ids and the distinct weights, told apart
    by their bits, are each formatted once into a byte table by
    :func:`~wsnroute.field.format_coords` (mutual neighbours share a weight),
    and the lines are gathered from those tables a block at a time.
    """
    n, k = graph.targets.shape
    bits, slot_weight = np.unique(graph.weights.view(np.int64).ravel(), return_inverse=True)
    ids = format_coords(np.arange(n, dtype=np.float64))
    ws = format_coords(bits.view(np.float64))
    del bits  # not held through the join
    return join_lines([(ids, k), b" ", (ids, graph.targets.ravel()), b" ", (ws, slot_weight), b"\n"], n * k)
