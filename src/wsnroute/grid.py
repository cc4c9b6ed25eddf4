"""Uniform cell grid over a field's points, shared by the kNN build and greedy NN.

Square cells of side ``h`` tile the points' bounding box, sized so that a
cell holds about ``per_cell`` points on a uniform field. Nodes are stored in
cell order (row-major cell id, ascending node index within a cell) with the
offset where each cell starts, so the cells of one grid row are one slice.

Searches look at the (2r+1)² square of cells centred on a query's cell and
use :meth:`CellGrid.cover` to decide whether that square holds the answer:
every point outside the square is at least ``cover`` away from the query,
under the package's canonical distance expression as actually rounded. The
walls of every square of one radius are one table, :meth:`CellGrid.walls`,
and ``cover`` bounds whole arrays of points: a kNN tile's rows, or every node.
"""

from __future__ import annotations

import math

import numpy as np

_INF = float("inf")
# Relative slack, against the magnitude of the coordinates plus one cell
# side, taken off every cover bound. Each rounding on the way to a cell
# index, a cell wall or a distance errs by at most 2**-53 of a value within a
# few times that magnitude; 2**-40 covers dozens of them with room to spare.
_SLACK = 2.0**-40
# Squares of distances under about 2**-500 fall below the normal floats or
# flush to 0, so such a distance can round to anything down to 0. This
# absolute part of the slack takes every bound that small to 0 or below.
_TINY = 2.0**-499


def _walls(origin: float, h: float, count: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high walls, along one axis, of the square within ``r`` of each of ``count`` cells."""
    c = np.arange(count)
    low = np.where(c > r, origin + (c - r) * h, -_INF)
    high = np.where(c + r < count - 1, origin + (c + r + 1) * h, _INF)
    return low, high


class CellGrid:
    """Nodes of ``xy`` bucketed into square cells, about ``per_cell`` to a cell.

    ``cx``/``cy`` give each node's cell column and row and ``cell`` its cell
    id ``cy * nx + cx``; ``order`` lists the nodes in cell order and
    ``start[c]:start[c + 1]`` is cell ``c``'s slice of it.
    """

    def __init__(self, xy: np.ndarray, per_cell: float):
        n = len(xy)
        # One column at a time: xy.min(axis=0) on an (n, 2) array is about 10x slower.
        xs, ys = xy[:, 0], xy[:, 1]
        x0, y0, x1, y1 = float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
        sx, sy = x1 - x0, y1 - y0
        cells = max(n / per_cell, 1.0)
        # The second term caps the cell count of a thin box at about 3 * cells.
        h = max(math.sqrt(sx * sy / cells), max(sx, sy) / cells)
        if not h > 0.0:
            h = 1.0  # the points coincide, or span too little to divide: one cell
        self.h = h
        self.x0, self.y0 = x0, y0
        self.nx = int(sx / h) + 1
        self.ny = int(sy / h) + 1
        self.slack = _SLACK * (max(abs(x0), abs(x1), abs(y0), abs(y1)) + h) + _TINY
        # Rounding may put the maximum just past the last wall; clip it back in.
        self.cx = np.minimum(((xs - x0) / h).astype(np.intp), self.nx - 1)
        self.cy = np.minimum(((ys - y0) / h).astype(np.intp), self.ny - 1)
        self.cell = self.cy * self.nx + self.cx
        self.order = np.argsort(self.cell, kind="stable")
        self.start = np.concatenate(([0], np.cumsum(np.bincount(self.cell, minlength=self.nx * self.ny))))

    def walls(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The walls of the square of cells within ``r`` of each cell: ``(left, right, bottom, top)``.

        ``left``/``right`` are indexed by cell column and ``bottom``/``top``
        by cell row. A side of the square at the grid's edge has nothing
        beyond it, and its wall is at -inf or +inf.
        """
        left, right = _walls(self.x0, self.h, self.nx, r)
        bottom, top = _walls(self.y0, self.h, self.ny, r)
        return left, right, bottom, top

    def cover(self, x, y, cx, cy, walls):
        """Lower bound on the distance from (x, y), in cell (cx, cy), to any
        point outside the square of cells whose ``walls`` are given.

        ``walls`` is :meth:`walls` of the square's radius, and ``x``/``y``/
        ``cx``/``cy`` are arrays of points and their cells. With all four
        walls at infinity the bound is +inf. The bound never exceeds a
        rounded distance.
        """
        left, right, bottom, top = walls
        return np.minimum(np.minimum(x - left[cx], right[cx] - x), np.minimum(y - bottom[cy], top[cy] - y)) - self.slack

    def squares(self, cells: np.ndarray, r: int, width: int) -> np.ndarray:
        """The nodes in the square of cells within ``r`` of each of ``cells``, one row per cell.

        Each row lists its square's nodes index-ascending and is padded on
        the right with ``n``, the number of nodes, to the longest square or
        to ``width`` columns, whichever is more.
        """
        nx, ny, start = self.nx, self.ny, self.start
        cx, cy = cells % nx, cells // nx
        lo, hi = np.maximum(cx - r, 0), np.minimum(cx + r, nx - 1) + 1
        # Grid row y of a square is order[start[y*nx + lo]:start[y*nx + hi]]; a row past
        # the grid's edge is empty.
        y = cy[:, None] + np.arange(-r, r + 1)
        row = np.clip(y, 0, ny - 1) * nx
        a = start[row + lo[:, None]]
        lens = np.where((y >= 0) & (y < ny), start[row + hi[:, None]] - a, 0)
        counts = lens.sum(axis=1)
        lens = lens.ravel()
        # Every slice, one after another in one run, is scattered into the rows.
        run = np.arange(counts.sum())
        nodes = self.order[run + np.repeat(a.ravel() - (np.cumsum(lens) - lens), lens)]
        out = np.full((len(cells), max(counts.max(), width)), len(self.order))
        out[np.repeat(np.arange(len(cells)), counts), run - np.repeat(np.cumsum(counts) - counts, counts)] = nodes
        out.sort(axis=1)
        return out

    def members(self) -> list[list[int]]:
        """Each cell's nodes as a list, index-ascending, by cell id."""
        order, start = self.order.tolist(), self.start.tolist()
        return [order[start[c]:start[c + 1]] for c in range(self.nx * self.ny)]
