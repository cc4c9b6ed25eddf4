"""k-nearest-neighbor graphs: a cell-grid build, the paper's Maxk kernel, and a brute-force oracle.

Every builder returns a finished :class:`KnnGraph`: two read-only (n, k)
arrays whose row i holds node i's k nearest other nodes, ordered by
(weight, target).

:func:`build_knn_graph` buckets the nodes into a uniform cell grid of about
k nodes to a cell (:mod:`wsnroute.grid`). A tile is the next chunk_size
pending rows in cell order, across cells, each against every node in the
square of cells around its own cell; each row keeps its k nearest by a
stable sort over index-ascending columns. A row whose k-th distance does not
fall strictly inside its cell's cover bound is searched again over a wider
square, so the result is exact. On a uniform field the work is O(n k log k)
rather than O(n²).

:func:`maxk_knn_graph` is the paper's driver, kept as the reference kernel:
it folds every tile of the full distance matrix into per-row slots. A tile
is a column window of a split's distance rows, read by slicing the rows
themselves; a last split or window narrower than the chunk size simply has
fewer rows or columns, so no entry is ever padded. A per-row index of the
farthest occupied slot (Maxk) makes the eviction check O(1); only when a
slot is overwritten is the row rescanned for its new farthest. The slots
are sorted by (weight, target) once every tile is folded in.

Tie rule: among equal distances the lowest column index wins. The grid
build gets it from the stable sort. The Maxk kernel scans candidates in
ascending column order with a strict ``<`` comparison, so a later candidate
never displaces an equal earlier one; and among slots that share the row's
largest weight the farthest is the one with the highest target, so an
eviction at the k-th radius drops the highest index. The brute-force oracle
encodes the same rule, and all three builds give the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import SensorField, distance_block, format_coords
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
    raises ValueError otherwise.
    """

    targets: np.ndarray
    weights: np.ndarray

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

    @property
    def n(self) -> int:
        return self.targets.shape[0]

    @property
    def k(self) -> int:
        return self.targets.shape[1]

    def neighbor_set(self, row: int) -> set[tuple[int, float]]:
        """The row's neighbors as (target, weight) pairs."""
        return set(zip(self.targets[row].tolist(), self.weights[row].tolist()))


def _check_k(n: int, k: int) -> None:
    if k < 1 or k > n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")


def build_knn_graph(field: SensorField, k: int, chunk_size: int) -> KnnGraph:
    """The kNN graph from cell-grid tiles; at most ``chunk_size`` query rows per tile.

    A tile is the next ``chunk_size`` pending rows in cell order, across
    cells, starting at r = 1. Each row is measured against every node in the
    square of cells within r of its own cell, index-ascending, and keeps its
    k nearest by a stable sort, so ties go to the lowest index. A row whose
    k-th weight is not strictly inside its cell's cover bound could have a
    nearer node outside the square and is searched again at r + 1. The graph
    equals :func:`brute_force_knn`'s for every chunk_size.
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
    return KnnGraph(targets, weights)


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
    best = np.argsort(d, axis=1, kind="stable")[:, :k]
    w = np.take_along_axis(d, best, axis=1)
    # A square of k or fewer other nodes leaves +inf at the k-th slot, never inside a bound.
    done = w[:, -1] < grid.cover(qx, qy, grid.cx[q], grid.cy[q], walls)
    return done, sq[u[:, None], best], w


def maxk_knn_graph(field: SensorField, k: int, chunk_size: int) -> KnnGraph:
    """The paper's driver: the Maxk kernel over every (split, chunk) tile pair, row-major.

    Distance rows are computed from coordinates one split at a time; the
    full matrix is never materialized. Each row's tile columns are visited
    in ascending order, the diagonal excluded. An entry strictly smaller
    than the row's farthest slot overwrites that slot, and the farthest is
    found again: the largest weight, and among equal weights the highest
    target. The rows are sorted by (weight, target) at the end, which gives
    :func:`build_knn_graph`'s graph for every chunk_size. This is the
    reference kernel; its cost is O(n²) steps of Python.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    n = len(field)
    _check_k(n, k)
    xy = field.coords
    cs = chunk_size
    tgt = [-1] * (n * k)
    w = [_INF] * (n * k)
    far = [0] * n  # each row's farthest slot
    for r0 in range(0, n, cs):
        rows = distance_block(xy, r0, min(r0 + cs, n)).tolist()
        for c0 in range(0, n, cs):
            for row, vals in enumerate(rows, r0):
                base = row * k
                mi = far[row]
                wmax = w[base + mi]
                for col, d in enumerate(vals[c0:c0 + cs], c0):
                    if d < wmax and col != row:
                        tgt[base + mi] = col
                        w[base + mi] = d
                        mi = 0
                        wmax = w[base]
                        for s in range(1, k):
                            ws = w[base + s]
                            if ws > wmax or (ws == wmax and tgt[base + s] > tgt[base + mi]):
                                wmax = ws
                                mi = s
                far[row] = mi
    targets = np.array(tgt).reshape(n, k)
    weights = np.array(w).reshape(n, k)
    rank = np.lexsort((targets, weights))
    return KnnGraph(np.take_along_axis(targets, rank, axis=1), np.take_along_axis(weights, rank, axis=1))


def brute_force_knn(field: SensorField, k: int) -> KnnGraph:
    """Verification oracle: per row, sort all candidates by (distance, target).

    Fixes the tie rule the chunked path must match: among equal distances
    the lower target index is kept.
    """
    n = len(field)
    _check_k(n, k)
    d = distance_block(field.coords, 0, n)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1, kind="stable")[:, :k]
    weights = np.take_along_axis(d, order, axis=1)
    return KnnGraph(order, weights)


def dump_graph(graph: KnnGraph) -> str:
    """Text dump, one ``source target weight`` line per slot, row by row.

    Rows are ordered by (weight, target), so the lines are sorted by
    (source, weight, target). Each node id and each distinct weight, told
    apart by its bits, is formatted once; mutual neighbours share a weight.
    """
    n, k = graph.targets.shape
    bits, slot_weight = np.unique(graph.weights.view(np.int64).ravel(), return_inverse=True)
    ids = [f"{i} " for i in range(n)]
    ws = [f"{w}\n" for w in format_coords(bits.view(np.float64))]
    parts = [""] * (3 * n * k)
    parts[0::3] = map(ids.__getitem__, np.repeat(np.arange(n), k).tolist())
    parts[1::3] = map(ids.__getitem__, graph.targets.ravel().tolist())
    parts[2::3] = map(ws.__getitem__, slot_weight.tolist())
    return "".join(parts)
