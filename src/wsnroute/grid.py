"""Uniform cell grid over a field's points, shared by the kNN build and greedy NN.

Square cells of side ``h`` tile the points' bounding box, sized so that a
cell holds about ``per_cell`` points on a uniform field. Nodes are stored in
cell order (row-major cell id, ascending node index within a cell) with the
offset where each cell starts, so the cells of one grid row are one slice.

Searches look at the (2r+1)² square of cells centred on a query's cell and
use :meth:`CellGrid.cover` to decide whether that square holds the answer:
every point outside the square is at least ``cover`` away from the query,
under the package's canonical distance expression as actually rounded.
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


class CellGrid:
    """Nodes of ``xy`` bucketed into square cells, about ``per_cell`` to a cell.

    ``cx``/``cy`` give each node's cell column and row and ``cell`` its cell
    id ``cy * nx + cx``; ``order`` lists the nodes in cell order and
    ``start[c]:start[c + 1]`` is cell ``c``'s slice of it.
    """

    def __init__(self, xy: np.ndarray, per_cell: float):
        n = len(xy)
        (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
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
        self.cx = np.minimum(((xy[:, 0] - x0) / h).astype(np.intp), self.nx - 1)
        self.cy = np.minimum(((xy[:, 1] - y0) / h).astype(np.intp), self.ny - 1)
        self.cell = self.cy * self.nx + self.cx
        self.order = np.argsort(self.cell, kind="stable")
        self.start = np.concatenate(([0], np.cumsum(np.bincount(self.cell, minlength=self.nx * self.ny))))

    def cover(self, x, y, cx: int, cy: int, r: int):
        """Lower bound on the distance from (x, y), in cell (cx, cy), to any
        point outside the square of cells within ``r`` of that cell.

        ``x``/``y`` may be floats or arrays of points sharing the cell. A side
        of the square at the grid's edge has nothing beyond it; with all four
        there the bound is +inf. The bound never exceeds a rounded distance.
        """
        h = self.h
        left = self.x0 + (cx - r) * h if cx > r else -_INF
        right = self.x0 + (cx + r + 1) * h if cx + r < self.nx - 1 else _INF
        bottom = self.y0 + (cy - r) * h if cy > r else -_INF
        top = self.y0 + (cy + r + 1) * h if cy + r < self.ny - 1 else _INF
        low = np.minimum if isinstance(x, np.ndarray) else min
        return low(low(x - left, right - x), low(y - bottom, top - y)) - self.slack

    def square(self, cx: int, cy: int, r: int) -> np.ndarray:
        """Nodes in the cells within ``r`` of cell (cx, cy), index-ascending."""
        nx, start = self.nx, self.start
        lo, hi = max(cx - r, 0), min(cx + r, nx - 1) + 1
        rows = range(max(cy - r, 0), min(cy + r, self.ny - 1) + 1)
        return np.sort(np.concatenate([self.order[start[y * nx + lo]:start[y * nx + hi]] for y in rows]))

    def members(self) -> list[list[int]]:
        """Each cell's nodes as a list, index-ascending, by cell id."""
        order, start = self.order.tolist(), self.start.tolist()
        return [order[start[c]:start[c + 1]] for c in range(self.nx * self.ny)]
