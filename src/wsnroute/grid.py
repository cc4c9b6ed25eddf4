"""Uniform cell grid over a field's points, and the exact kNN kernel on it.

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

:func:`knn_rows` is the exact kNN kernel of ``build_knn_graph`` and of the
greedy route's own table, in cells of about k/2 nodes. A row keeps the k
nearest nodes of the square around its cell, and is searched again over a
wider square until its k-th distance is strictly inside the square's cover
bound; on a uniform field that is O(n k) work plus O(n k log k) for the kept
slots. Among equal distances the lowest index wins, as in the brute-force
oracle of the tests (``tests/oracles.py``), which stably sorts every row of
the full distance matrix; :func:`_select` equals that sort's first k columns.
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
        counts = np.bincount(self.cell, minlength=self.nx * self.ny)
        self.start = np.concatenate(([0], np.cumsum(counts)))
        # sums[y, x]: the nodes in cell rows below y and columns below x
        self.sums = np.zeros((self.ny + 1, self.nx + 1), dtype=counts.dtype)
        counts.reshape(self.ny, self.nx).cumsum(0).cumsum(1, out=self.sums[1:, 1:])

    def walls(self, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The walls of the square of cells within ``r`` of each cell: ``(left, right, bottom, top)``.

        ``left``/``right`` are indexed by cell column and ``bottom``/``top``
        by cell row. A side of the square at the grid's edge has nothing
        beyond it, and its wall is at -inf or +inf.
        """
        walls = []
        for origin, count in ((self.x0, self.nx), (self.y0, self.ny)):
            c = np.arange(count)
            walls += [np.where(c > r, origin + (c - r) * self.h, -_INF),
                      np.where(c + r < count - 1, origin + (c + r + 1) * self.h, _INF)]
        return tuple(walls)

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

    def square_counts(self, cells: np.ndarray, r: int) -> np.ndarray:
        """The number of nodes in the square of cells within ``r`` of each of ``cells``."""
        s, cx, cy = self.sums, cells % self.nx, cells // self.nx
        x0, x1 = np.maximum(cx - r, 0), np.minimum(cx + r + 1, self.nx)
        y0, y1 = np.maximum(cy - r, 0), np.minimum(cy + r + 1, self.ny)
        return s[y1, x1] - s[y0, x1] - s[y1, x0] + s[y0, x0]


# Most rows times columns in one block of tiles, whose table of squares holds
# at most that many entries; a wider tile is a block of its own. At n=5000,
# k=4 and k=10, 2**16 to 2**18 built the rows in the same time within 5%,
# and 2**14 about 10% slower.
_BLOCK = 1 << 16


def knn_rows(xy: np.ndarray, k: int, chunk_size: int, crowd: int | None = None,
             stats: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each node's k nearest other nodes: ``(targets, weights)``, at most ``chunk_size`` rows a tile.

    Row i of the (n, k) ``targets`` and ``weights`` is node i's k nearest,
    ordered by (weight, target), lowest index first among ties, the same for
    every chunk_size. With ``crowd``, a row whose square holds more than
    ``crowd`` nodes is not measured: it names its own node, at weight 0, in
    every slot. When ``stats`` is given, it receives ``settled``, a
    dict from each radius measured to the rows settled there, ``tied``, the
    rows whose k-th and (k+1)-th weights are equal, and, with ``crowd``,
    ``crowded``, the rows left out. Radii at which no pending row's square
    holds k other nodes are skipped, not measured.
    """
    n = len(xy)
    # Node n is the pad of a square's row: at +inf, so its distances are +inf
    # and sort after every real candidate.
    xs = np.append(xy[:, 0], _INF)
    ys = np.append(xy[:, 1], _INF)
    grid = CellGrid(xy, k / 2)
    targets = np.empty((n, k), dtype=np.intp)
    weights = np.empty((n, k))
    settled, tied, crowded = {}, ([0] if stats is not None else None), 0
    pending = grid.order
    r = 1
    while len(pending):
        cells = grid.cell[pending]
        r, wide = _first_radius(grid, cells, k, r)  # wide: each row's square, its own node included
        if crowd is not None:
            far = wide > crowd
            rows = pending[far]
            targets[rows], weights[rows] = rows[:, None], 0.0
            crowded += len(rows)
            pending, wide = pending[~far], wide[~far]
        walls = grid.walls(r)
        missed = [pending[:0]]
        for a, b, tiles in _blocks(wide, chunk_size, k + 1):
            missed += _block(grid, xs, ys, pending[a:b], k, r, walls, tiles, targets, weights, tied)
        settled[r] = len(pending) - sum(map(len, missed))
        pending = np.concatenate(missed)
        r += 1
    if stats is not None:
        stats.update(settled=settled, tied=tied[0], **({} if crowd is None else {"crowded": crowded}))
    return targets, weights


def _first_radius(grid: CellGrid, cells: np.ndarray, k: int, r: int) -> tuple[int, np.ndarray]:
    """The least radius from ``r`` at which a square around ``cells`` holds over k nodes, and their counts there.

    Counts only grow with the radius, so it is found by doubling, then
    bisecting; a square that covers the grid holds all n > k nodes.
    """
    lo, hi = r - 1, r  # lo is r - 1 or too small; hi is the next radius to try
    while (wide := grid.square_counts(cells, hi)).max() <= k:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (counts := grid.square_counts(cells, mid)).max() > k:
            hi, wide = mid, counts
        else:
            lo = mid
    return hi, wide


def _blocks(wide: np.ndarray, chunk_size: int, width: int):
    """The tiles of rows whose squares hold ``wide`` nodes, in blocks: ``(a, b, tiles)`` for rows ``a:b``.

    A tile ``(lo, hi, w)`` is rows ``a + lo:a + hi`` and the ``w`` columns
    its widest square, or ``width``, needs.
    """
    m = len(wide)
    starts = np.arange(0, m, min(chunk_size, max(m, 1)))  # a step from m up is one tile; arange wants an int64
    a, most, tiles = 0, 0, []
    for lo, w in zip(starts.tolist(), np.maximum(np.maximum.reduceat(wide, starts), width).tolist()):
        hi = min(lo + chunk_size, m)
        if tiles and (hi - a) * max(most, w) > _BLOCK:
            yield a, lo, tiles
            a, most, tiles = lo, 0, []
        most = max(most, w)
        tiles.append((lo - a, hi - a, w))
    if tiles:
        yield a, m, tiles


def _block(grid: CellGrid, xs: np.ndarray, ys: np.ndarray, q: np.ndarray, k: int, r: int, walls: tuple,
           tiles: list, targets: np.ndarray, weights: np.ndarray, tied: list | None) -> list[np.ndarray]:
    """Rows ``q``, in cell order, against one padded table of the squares within ``r`` of their cells.

    Writes each row's k nearest and their weights (garbage if unsettled) and
    returns each tile's unsettled rows; adds the settled rows tied at their
    k-th weight to ``tied[0]``, if given.
    """
    n = len(xs) - 1
    cell = grid.cell[q]
    new = np.empty(len(q), dtype=np.bool_)
    new[0] = True
    np.not_equal(cell[1:], cell[:-1], out=new[1:])
    u = np.cumsum(new) - 1  # each row's square
    sq = grid.squares(cell[new], r, k + 1)
    # Each row's own node, found in the sorted squares made disjoint by a row offset.
    keys = sq + (np.arange(len(sq)) * (n + 1))[:, None]
    own = np.searchsorted(keys.ravel(), u * (n + 1) + q) - u * sq.shape[1]
    del keys
    sx, sy = xs[sq], ys[sq]
    qx, qy = xs[q][:, None], ys[q][:, None]
    cover = grid.cover(xs[q], ys[q], grid.cx[q], grid.cy[q], walls)
    missed = []
    for lo, hi, w in tiles:
        t = u[lo:hi]
        # In place, so a tile holds two (rows, w) float arrays at a time.
        d = sx[t, :w]
        np.subtract(qx[lo:hi], d, out=d)
        d *= d
        dy = sy[t, :w]
        np.subtract(qy[lo:hi], dy, out=dy)
        dy *= dy
        d += dy
        del dy
        np.sqrt(d, out=d)
        d[np.arange(hi - lo), own[lo:hi]] = _INF
        best = _select(d, k, flat=True)
        slots = d.take(best)
        # A square of k or fewer other nodes leaves +inf at the k-th slot, never inside a bound.
        done = slots[:, -1] < cover[lo:hi]
        rows = q[lo:hi]
        targets[rows], weights[rows] = sq[t[:, None], best % w], slots
        missed.append(rows[~done])
        if tied is not None:
            kth = slots[done, -1:]
            tied[0] += int(np.count_nonzero(np.count_nonzero(d[done] == kth, axis=1)
                                            > np.count_nonzero(slots[done] == kth, axis=1)))
    return missed


def _select(d: np.ndarray, k: int, flat: bool = False) -> np.ndarray:
    """Each row's k smallest columns of ``d``, ordered by (weight, column), or with ``flat`` their flat indices into ``d``.

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
    at = at.take(np.argsort(d.take(at), axis=1, kind="stable") + np.arange(0, at.size, k)[:, None])
    return at if flat else at % d.shape[1]
