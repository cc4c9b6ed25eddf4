"""Sensing-field generation, planar geometry, and the coordinate dataset format.

A field is an immutable scatter of node positions on a plane, held once as a
read-only (n, 2) float64 array, ``coords``, and nothing else: no bounding
rectangle and no seed. Node identity is the row index into it; there is no
separate id. All distance math in the package evaluates the same
floating-point expression (``sqrt(dx*dx + dy*dy)``), as the vectorized
helpers below do, so every caller sees bit-identical values. Hop lengths
along a route come from :func:`hop_lengths` alone.

Numbers are written by :func:`format_coord`, one at a time, or by
:func:`format_coords`, a whole array at once into a table of ASCII bytes;
the two give the same text. :func:`join_lines` gathers lines of text from
such tables a block at a time, for :func:`write_dataset` and the kNN dump.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class DatasetError(ValueError):
    """Base class for dataset text format errors."""


class DatasetParseError(DatasetError):
    """A line did not match the ``P (<x> <y>)`` record format, or held a non-finite value."""

    def __init__(self, line_no: int, line: str, reason: str = "malformed record"):
        super().__init__(f"line {line_no}: {reason} {line!r}")
        self.line_no = line_no
        self.line = line


class EmptyDatasetError(DatasetError):
    """The input contained no coordinate records."""


@dataclass(frozen=True, eq=False)
class SensorField:
    """Node coordinates.

    ``coords`` is copied on construction into a read-only (n, 2) float64
    array, the field's only copy of its coordinates; every entry must be
    finite, and so must the squared diagonal of the points' bounding box,
    which bounds every squared distance. Two fields are equal when their
    coordinates are. Instances are immutable and safe to share across
    concurrent readers.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coords, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"coords must have shape (n, 2), got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coords must be finite")
        if len(arr):
            # Python floats, so an overflowing span gives inf without a numpy warning. Every
            # pairwise dx*dx + dy*dy rounds to at most this sum.
            (x0, y0), (x1, y1) = arr.min(axis=0).tolist(), arr.max(axis=0).tolist()
            dx, dy = x1 - x0, y1 - y0
            if not math.isfinite(dx * dx + dy * dy):
                raise ValueError(f"coords span {dx!r} x {dy!r}; squared distances would overflow")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        if not isinstance(other, SensorField):
            return NotImplemented
        return np.array_equal(self.coords, other.coords)


def generate_uniform(n: int, width: float, height: float, seed: int) -> SensorField:
    """Scatter ``n`` nodes i.i.d. uniformly over [0, width] x [0, height].

    Coordinates come from numpy's PCG64 stream seeded with ``seed``, so the
    same (n, width, height, seed) reproduces the identical point sequence on
    any platform. The field keeps the points only, none of the arguments.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    if width <= 0 or height <= 0:
        raise ValueError(f"field dimensions must be positive, got {width}x{height}")
    rng = np.random.Generator(np.random.PCG64(seed))
    xy = rng.random((n, 2))
    xy[:, 0] *= width
    xy[:, 1] *= height
    return SensorField(xy)


def distances_from(xy: np.ndarray, i: int) -> np.ndarray:
    """1-D distances from node ``i`` to every point (canonical metric)."""
    dx = xy[:, 0] - xy[i, 0]
    dy = xy[:, 1] - xy[i, 1]
    return np.sqrt(dx * dx + dy * dy)


def hop_lengths(xy: np.ndarray, order: Sequence[int], closed: bool = False) -> np.ndarray:
    """Length of each hop along ``order`` under the canonical metric.

    Hop ``h`` runs from ``order[h]`` to ``order[h + 1]``; when ``closed`` and
    the order has two or more nodes, a last hop returns to ``order[0]``.
    """
    pts = xy[np.asarray(order, dtype=np.intp)]
    if closed and len(order) > 1:
        pts = np.vstack([pts, pts[:1]])
    dx = pts[1:, 0] - pts[:-1, 0]
    dy = pts[1:, 1] - pts[:-1, 1]
    return np.sqrt(dx * dx + dy * dy)


_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# One match per line that is not blank, over lines joined by "\n": a record's
# two numbers, or two empty groups for any other line. Within a line [^\S\n]
# is \s, since splitting the text into lines removed every other line boundary.
_S = r"[^\S\n]"
_LINE = re.compile(rf"^{_S}*(?:P{_S}*\({_S}*({_NUM}){_S}+({_NUM}){_S}*\){_S}*$|\S.*)", re.MULTILINE)


def format_coord(v: float) -> str:
    """Shortest decimal that parses back to exactly ``v``; integral values lose the dot.

    Negative zero is written ``-0``, so parsing keeps its sign bit.
    """
    if v == int(v) and abs(v) < 1e16:
        return str(int(v)) if v or math.copysign(1.0, v) > 0 else "-0"
    return repr(v)


# Shortest digits for |v| in [1, 2^53) that is not integral, after Adams, "Ryū:
# fast float-to-string conversion" (PLDI 2018). Such a v is mv * 2^-e, with mv
# four times its 53-bit significand and e in 3..54, and the ends of its
# rounding interval are (mv - 2) * 2^-e and (mv + 2) * 2^-e: it is no power of
# two. Each x * 2^-e is x * 5^i / 2^q * 10^(q - e) for i + q = e, and Ryū's
# q = floor(e log10(5)) - 1 keeps i <= 18 and q <= 36: every product x * 5^i
# fits two 64-bit limbs, and every quotient one. Every uint64 operand is an
# np.uint64, so no result depends on numpy's promotion rules, and the sums
# that wrap mod 2^64 are array operations.
_U = np.uint64
_0, _1, _2, _4, _5, _10, _20, _32, _52, _57, _63 = map(_U, (0, 1, 2, 4, 5, 10, 20, 32, 52, 57, 63))
_M32 = _U(0xFFFFFFFF)
_MANT = _U((1 << 52) - 1)
_FRAC = _U((1 << 57) - 1)
_E8 = _U(10 ** 8)
_POW5 = np.array([5 ** i for i in range(19)], dtype=np.uint64)
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_TWO53 = float(2 ** 53)


def _limbs(m: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each m * f as two 64-bit limbs (hi, lo); m < 2^56 and f < 2^42."""
    ml, mh, fl, fh = m & _M32, m >> _32, f & _M32, f >> _32
    ll = ml * fl
    mid = ml * fh + mh * fl
    t = (ll >> _32) + (mid & _M32)
    return mh * fh + (mid >> _32) + (t >> _32), (ll & _M32) | (t << _32)


def _shift(hi: np.ndarray, lo: np.ndarray, q: np.ndarray) -> np.ndarray:
    """floor((hi * 2^64 + lo) / 2^q) for q <= 36."""
    return (lo >> q) | ((hi << (_63 - q)) << _1)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryū's shortest round-trip digits of the doubles with raw ``bits``, each in [1, 2^53) and not integral.

    Returns each value's digits as an integer and the number of them after
    the decimal point. Among the shortest decimals that round to the value,
    the nearest wins, ties to even, as in ``repr``. An end of the interval
    is exactly a decimal of this scale only for some N + 1/2, N + 1/4 or
    N + 3/4 of 2^50 or more, and no shortest decimal falls on it there; so
    the ends need neither the exactness flags nor the parity test that Ryū
    keeps for the general case.
    """
    frac = bits & _MANT
    e = _U(1077) - (bits >> _52)
    q = ((e * _U(732923)) >> _20) - _1
    f = _POW5[e - q]
    hi, lo = _limbs((frac | (_1 << _52)) << _2, f)
    vr = _shift(hi, lo, q)
    exact = (lo & ((_1 << q) - _1)) == _0  # vr is v's digits exactly, with no bit shifted out
    up, down = lo + (f << _1), lo - (f << _1)
    vp = _shift(hi + (up < lo).astype(np.uint64), up, q)
    vm = _shift(hi - (down > lo).astype(np.uint64), down, q)
    # Ryū drops digits one at a time while the interval (vm, vp] holds a
    # multiple of ten. One at least 10^r wide holds a multiple of 10^r, so the
    # first r digits go at once.
    r = np.searchsorted(_POW10, vp - vm, side="right") - 1
    p, p1 = _POW10[r], _POW10[r - 1]
    low = vr % p
    last = low // p1  # the last digit dropped; v is half way only if those below it are 0
    exact &= low == last * p1
    vr, vm, vp = vr // p, vm // p, vp // p
    act = np.flatnonzero(vp // _10 > vm // _10)
    while len(act):
        vr10, vm10, vp10 = vr[act] // _10, vm[act] // _10, vp[act] // _10
        exact[act] &= last[act] == _0
        last[act] = vr[act] - vr10 * _10
        vr[act], vm[act], vp[act] = vr10, vm10, vp10
        r[act] += 1
        act = act[vp10 // _10 > vm10 // _10]
    last[exact & (last == _5) & ((vr & _1) == _0)] = _4  # exactly half way: round to even
    vr += ((vr == vm) | (last >= _5)).astype(np.uint64)
    return vr, (e - q).astype(np.intp) - r


def _write_digits(x: np.ndarray, out: np.ndarray) -> None:
    """Write the w decimal digits of each x < 10^w, most significant first, into the (len(x), w) ``out``."""
    w = out.shape[1]
    if w > 9:
        hi = x // _E8
        _write_digits(hi, out[:, :w - 8])
        hi *= _E8
        np.subtract(x, hi, out=hi)
        _write_digits(hi, out[:, w - 8:])
    elif w:
        # x / 10^(w-1) in 57-bit fixed point, rounded up: for x < 10^9 the error
        # stays below one unit of the last digit. Each digit is the integer part,
        # and the next is read from ten times the fraction.
        y = x * _U(-(-(1 << 57) // 10 ** (w - 1)))
        for j in range(w):
            if j:
                y &= _FRAC
                y *= _10
            np.right_shift(y, _57, out=out[:, j], casting="unsafe")


# _ZEROS[n, j] adds "0" to digit column j of a field whose first n columns are digits.
_ZEROS = np.where(np.arange(17) < np.arange(18)[:, None], ord("0"), 0).astype(np.uint8)
# Entries run through the kernel this many at a time, which bounds its temporaries.
_CHUNK = 4096


def format_coords(a: np.ndarray) -> np.ndarray:
    """:func:`format_coord` of each entry of a 1-D float64 array, as rows of ASCII and NUL bytes.

    Row i of the returned uint8 table is entry i's text once its NUL bytes
    are dropped; they may fall between its characters as well as after them.
    Entries with |v| in [1, 2^53) are written by a vectorized pass of Ryū's
    shortest-digit method, which gives ``repr``'s digits: a sign column, the
    whole part right-aligned, a dot column and the fraction left-aligned,
    with no dot for an integral value. Every other entry (zeros,
    0 < |v| < 1, |v| >= 2^53) gets ``repr``, and the integral ones below 1e16
    :func:`format_coord`, one at a time.
    """
    mag = np.abs(a)
    in_range = (mag >= 1) & (mag < _TWO53)
    fast, slow = np.flatnonzero(in_range), np.flatnonzero(~in_range)
    vals = a[slow]
    values = vals.tolist()
    texts = list(map(repr, values))
    for i in np.flatnonzero((vals == np.trunc(vals)) & (np.abs(vals) < 1e16)).tolist():
        texts[i] = format_coord(values[i])
    others = np.array(texts, dtype=bytes)
    others = others.view(np.uint8).reshape(len(slow), others.itemsize)
    v = mag[fast]
    digits = v.astype(np.uint64)  # exact for the integral values, which keep it
    nfrac = np.zeros(len(v), np.intp)
    dot = np.flatnonzero(v != np.trunc(v))
    for lo in range(0, len(dot), _CHUNK):
        at = dot[lo:lo + _CHUNK]
        digits[at], nfrac[at] = _shortest(v[at].view(np.uint64))
    scale = _POW10[nfrac]
    whole = digits // scale  # at least 1
    nwhole = np.searchsorted(_POW10, whole, side="right")
    wi, wf = int(nwhole.max(initial=0)), int(nfrac.max(initial=0))
    # Columns: a sign if any entry is negative, the whole part, a dot if any
    # entry has a fraction, and the fraction.
    neg = np.signbit(a[fast])
    w0 = int(neg.any())
    w1 = w0 + wi + (wf > 0)
    rows = np.zeros((len(v), w1 + wf), np.uint8)
    _write_digits(whole, rows[:, w0:w0 + wi])
    digits -= whole * scale
    digits *= _POW10[wf - nfrac]
    _write_digits(digits, rows[:, w1:])
    # What a row adds to its digits, by (negative, whole digits, fraction
    # digits): a sign, a dot, and "0" in each column that holds a digit.
    kinds = (w0 + 1, wi + 1, wf + 1)
    s, nw, nf = np.unravel_index(np.arange(np.prod(kinds)), kinds)
    fill = np.zeros((len(s), rows.shape[1]), np.uint8)
    fill[:, :w0] = (s * ord("-"))[:, None]
    fill[:, w0:w0 + wi] = _ZEROS[nw, :wi][:, ::-1]
    fill[:, w0 + wi:w1] = ((nf > 0) * ord("."))[:, None]
    fill[:, w1:] = _ZEROS[nf, :wf]
    rows += np.take(fill, np.ravel_multi_index((neg, nwhole, nfrac), kinds), axis=0)
    if not len(slow):
        return rows
    table = np.zeros((len(a), max(rows.shape[1], others.shape[1])), np.uint8)
    table[fast, :rows.shape[1]] = rows
    table[slow, :others.shape[1]] = others
    return table


# Lines per block when text is assembled from byte tables.
_BLOCK = 1 << 12


def join_lines(columns: list, n: int) -> str:
    """``n`` lines of ASCII text, each the concatenation of one row of every column.

    A column is ``bytes``, the same in every line, or a pair (table, rows) of
    a C-contiguous 2-D uint8 table and the row of it that each line takes:
    line i takes row ``rows[i]``, or row ``i // rows`` when ``rows`` is an
    int. NUL bytes are dropped. The lines are gathered ``_BLOCK`` at a time,
    so only one block of them is ever held in a table.
    """
    widths = [len(c) if isinstance(c, bytes) else c[0].shape[1] for c in columns]
    starts = np.cumsum([0, *widths]).tolist()
    buf = np.empty((min(n, _BLOCK), starts[-1]), np.uint8)
    gathers = []
    for c, lo, hi in zip(columns, starts, starts[1:]):
        if isinstance(c, bytes):
            buf[:, lo:hi] = np.frombuffer(c, np.uint8)
        elif hi > lo:  # each row one item, so a gather moves whole rows
            table, rows = c
            gathers.append((table.view(f"V{hi - lo}")[:, 0], rows, lo, hi))
    out = []
    for first in range(0, n, _BLOCK):
        block = buf[:min(_BLOCK, n - first)]
        for items, rows, lo, hi in gathers:
            if isinstance(rows, int):
                rows = np.arange(first, first + len(block)) // rows
            else:
                rows = rows[first:first + len(block)]
            block[:, lo:hi] = items[rows].view(np.uint8).reshape(len(block), hi - lo)
        out.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(out)


def parse_dataset(text: str) -> SensorField:
    """Read ``P (<x> <y>)`` records, one per non-empty line.

    Raises :class:`DatasetParseError` with the offending line number on a
    malformed record or a coordinate that is not finite (such as ``1e400``),
    and :class:`EmptyDatasetError` when no records exist.
    """
    lines = text.splitlines()
    found = _LINE.findall("\n".join(lines))
    if not found:
        raise EmptyDatasetError("dataset contains no records")
    xs, ys = zip(*found)
    # A line that is not a record has no numbers; records after it are never read.
    bad = xs.index("") if "" in xs else len(xs)
    xy = np.column_stack((np.array(list(map(float, xs[:bad]))), np.array(list(map(float, ys[:bad])))))
    finite = np.isfinite(xy).all(axis=1)
    if bad < len(xs) or not finite.all():
        first = bad if finite.all() else int(np.argmin(finite))
        line_no = [no for no, line in enumerate(lines, start=1) if line.strip()][first]
        reason = "non-finite coordinate in" if first < bad else "malformed record"
        raise DatasetParseError(line_no, lines[line_no - 1].strip(), reason)
    return SensorField(xy)


def write_dataset(field: SensorField) -> str:
    """Serialize a field as ``P (<x> <y>)`` lines, LF-terminated.

    Round-trip law: ``parse_dataset(write_dataset(f)) == f``; the
    coordinates come back element for element.
    """
    xy = field.coords
    text = join_lines([b"P (", (format_coords(xy[:, 0]), 1), b" ", (format_coords(xy[:, 1]), 1), b")\n"], len(xy))
    return text or "\n"
