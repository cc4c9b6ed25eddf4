"""k-nearest-neighbor graphs: a cell-grid build, the paper's Maxk kernel, and a brute-force oracle.

:func:`build_knn_graph` buckets the nodes into a uniform cell grid of about
k nodes to a cell (:mod:`wsnroute.grid`). A tile is one cell's rows, at most
chunk_size at a time, against every node in the cells around it; each row
keeps its k nearest by a stable sort over index-ascending columns. A row
whose k-th distance does not fall strictly inside the grid's cover bound is
searched again over a wider square, so the result is exact. On a uniform
field the work is O(n k log k) rather than O(n²).

:func:`maxk_knn_graph` is the paper's driver, kept as the reference kernel:
it folds every tile of the full distance matrix into per-row slots. A tile
is a column window of a split's distance rows, read by slicing the rows
themselves; a last split or window narrower than the chunk size simply has
fewer rows or columns, so no entry is ever padded. A per-row index of the
farthest occupied slot (``MaxkState``) makes the eviction check O(1); only
when a slot is overwritten is the row rescanned for its new farthest. Rows
are independent: distinct rows may be updated concurrently, but two updates
touching the same row must be serialized (in practice: parallelize over
splits only).

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
from typing import NamedTuple

import numpy as np

from .field import SensorField, distance_block, format_coord
from .grid import CellGrid

_INF = float("inf")


class DistanceChunk(NamedTuple):
    """Tile (split, chunk) of the distance matrix.

    ``rows`` are the split's full distance rows, for nodes
    ``split * chunk_size`` onward, as ``distance_block(...).tolist()``
    returns them. The tile is their column window starting at
    ``chunk * chunk_size``, chunk_size wide or up to the last column.
    """

    rows: list[list[float]]
    split: int
    chunk: int
    chunk_size: int


@dataclass
class KnnGraph:
    """Per-row neighbor slots stored as flat row-major parallel arrays.

    Slot ``(row, s)`` lives at flat index ``row * k + s``; its source is
    ``row``. Untouched slots hold weight +inf and target -1. After a
    complete build every row holds the k nearest other nodes (lowest target
    index wins among exact distance ties), ordered by (weight, target), so
    the first slot whose target passes a test is the nearest node that
    does. All three builders return rows in that order; the Maxk kernel's
    working rows are unordered until :func:`maxk_knn_graph` sorts them.
    """

    n: int
    k: int
    targets: list[int]
    weights: list[float]

    def neighbor_set(self, row: int) -> set[tuple[int, float]]:
        """The row's finished neighbors as (target, weight) pairs."""
        base = row * self.k
        return {
            (self.targets[base + s], self.weights[base + s])
            for s in range(self.k)
            if self.targets[base + s] >= 0
        }


@dataclass
class MaxkState:
    """Per-row slot index of the current largest weight in the graph row."""

    farthest: list[int]


def _check_k(n: int, k: int) -> None:
    if k < 1 or k > n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")


def init_knn_state(n: int, k: int) -> tuple[KnnGraph, MaxkState]:
    """Fresh slot arrays: every weight +inf, every target -1, Maxk all 0."""
    _check_k(n, k)
    size = n * k
    graph = KnnGraph(n=n, k=k, targets=[-1] * size, weights=[_INF] * size)
    return graph, MaxkState(farthest=[0] * n)


def knn_update_chunk(chunk: DistanceChunk, graph: KnnGraph, maxk: MaxkState) -> None:
    """Fold one distance tile into the graph state, in place.

    For each row, the tile's columns are visited in ascending order and the
    diagonal is excluded. An entry strictly smaller than the row's current
    farthest slot overwrites that slot, after which the farthest index is
    recomputed: the largest weight, and among equal weights the highest
    target.
    """
    cs = chunk.chunk_size
    col_base = chunk.chunk * cs
    col_end = col_base + cs
    w = graph.weights
    tgt = graph.targets
    far = maxk.farthest
    k = graph.k
    for row, vals in enumerate(chunk.rows, chunk.split * cs):
        base = row * k
        mi = far[row]
        wmax = w[base + mi]
        for col, d in enumerate(vals[col_base:col_end], col_base):
            if d < wmax and col != row:
                slot = base + mi
                tgt[slot] = col
                w[slot] = d
                mi = 0
                wmax = w[base]
                for s in range(1, k):
                    ws = w[base + s]
                    if ws > wmax or (ws == wmax and tgt[base + s] > tgt[base + mi]):
                        wmax = ws
                        mi = s
        far[row] = mi


def build_knn_graph(field: SensorField, k: int, chunk_size: int) -> KnnGraph:
    """The kNN graph from cell-grid tiles; at most ``chunk_size`` query rows per tile.

    A tile is one cell's rows against every node in the square of cells
    within r of it, index-ascending, starting at r = 1. Each row keeps its k
    nearest by a stable sort, so ties go to the lowest index. A row whose
    k-th weight is not strictly inside the square's cover bound could have a
    nearer node outside it and is searched again at r + 1. The graph equals
    :func:`brute_force_knn`'s for every chunk_size.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    n = len(field)
    _check_k(n, k)
    xy = field.coords
    grid = CellGrid(xy, k)
    targets = np.empty((n, k), dtype=np.intp)
    weights = np.empty((n, k))
    pending = grid.order
    r = 1
    while len(pending):
        missed = []
        for rows in np.split(pending, np.flatnonzero(np.diff(grid.cell[pending])) + 1):
            cx, cy = int(grid.cx[rows[0]]), int(grid.cy[rows[0]])
            cols = grid.square(cx, cy, r)
            if len(cols) <= k:  # fewer than k nodes besides the row's own
                missed.append(rows)
                continue
            px, py = xy[cols, 0], xy[cols, 1]
            for lo in range(0, len(rows), chunk_size):
                q = rows[lo:lo + chunk_size]
                qx, qy = xy[q, 0], xy[q, 1]
                dx = qx[:, None] - px[None, :]
                dy = qy[:, None] - py[None, :]
                d = np.sqrt(dx * dx + dy * dy)
                d[np.arange(len(q)), np.searchsorted(cols, q)] = np.inf
                best = np.argsort(d, axis=1, kind="stable")[:, :k]
                w = np.take_along_axis(d, best, axis=1)
                done = w[:, -1] < grid.cover(qx, qy, cx, cy, r)
                targets[q[done]] = cols[best[done]]
                weights[q[done]] = w[done]
                missed.append(q[~done])
        pending = np.concatenate(missed)
        r += 1
    return KnnGraph(n=n, k=k, targets=targets.ravel().tolist(), weights=weights.ravel().tolist())


def maxk_knn_graph(field: SensorField, k: int, chunk_size: int) -> KnnGraph:
    """The paper's driver: the Maxk kernel over every (split, chunk) tile pair, row-major.

    Distance rows are computed from coordinates one split at a time; the
    full matrix is never materialized. The finished graph is independent
    of chunk_size and equals :func:`build_knn_graph`'s once each row is
    sorted by (weight, target) at the end. This is the reference kernel;
    its cost is O(n²) steps of Python.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    n = len(field)
    graph, maxk = init_knn_state(n, k)
    xy = field.coords
    n_chunks = -(-n // chunk_size)
    cs = chunk_size
    for split in range(n_chunks):
        r0 = split * cs
        rows = distance_block(xy, r0, min(r0 + cs, n)).tolist()
        for chunk_i in range(n_chunks):
            knn_update_chunk(DistanceChunk(rows, split, chunk_i, cs), graph, maxk)
    targets = np.array(graph.targets).reshape(n, k)
    weights = np.array(graph.weights).reshape(n, k)
    rank = np.lexsort((targets, weights))
    graph.targets = np.take_along_axis(targets, rank, axis=1).ravel().tolist()
    graph.weights = np.take_along_axis(weights, rank, axis=1).ravel().tolist()
    return graph


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
    return KnnGraph(n=n, k=k, targets=order.ravel().tolist(), weights=weights.ravel().tolist())


def dump_graph(graph: KnnGraph) -> str:
    """Text dump, one ``source target weight`` line, sorted by (source, weight, target)."""
    edges = []
    for row in range(graph.n):
        base = row * graph.k
        for s in range(graph.k):
            if graph.targets[base + s] >= 0:
                edges.append((row, graph.weights[base + s], graph.targets[base + s]))
    edges.sort()
    lines = [f"{s} {t} {format_coord(w)}" for s, w, t in edges]
    return "\n".join(lines) + ("\n" if lines else "")
