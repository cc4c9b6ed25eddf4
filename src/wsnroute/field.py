"""Sensing-field generation, planar geometry, and the coordinate dataset format.

A field is an immutable scatter of node positions on a plane, held once as a
read-only (n, 2) float64 array, ``coords``, and nothing else: no bounding
rectangle and no seed. Node identity is the row index into it; there is no
separate id. All distance math in the package evaluates the same
floating-point expression (``sqrt(dx*dx + dy*dy)``), as the vectorized
helpers below do, so every caller sees bit-identical values. Hop lengths
along a route come from :func:`hop_lengths` alone.

A dataset is ``P (<x> <y>)`` records, one per line. :func:`write_dataset`
and :func:`parse_dataset` hold the format and its errors; the numbers are
written and read by :mod:`wsnroute.numtext`, whose ``format_coord`` and
``format_coords`` are importable from here too. Parsing reads ASCII text
of records and blank lines from its bytes there. Any other text, such as
text with an error in it, CRLF line ends or non-ASCII digits and spaces,
is read line by line with a regular expression, which alone words the
errors.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .numtext import format_coord, format_coords, join_lines, read_records


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
            # pairwise dx*dx + dy*dy rounds to at most this sum. Column by column, which numpy
            # reduces about ten times as fast as along axis 0 of an (n, 2) array.
            (x0, x1), (y0, y1) = ((float(col.min()), float(col.max())) for col in arr.T)
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


def parse_dataset(text: str) -> SensorField:
    """Read ``P (<x> <y>)`` records, one per non-empty line.

    Raises :class:`DatasetParseError` with the offending line number on a
    malformed record or a coordinate that is not finite (such as ``1e400``),
    and :class:`EmptyDatasetError` when no records exist.
    """
    # ASCII text of records and blank lines is read from its bytes. Any other text goes
    # to the regular expression, which words every error; non-ASCII text always does,
    # since its \d and [^\S\n] take any Unicode digit and space, and float() reads them.
    xy = read_records(text.encode("ascii")) if text.isascii() else None
    if xy is not None and len(xy) and np.isfinite(xy).all():
        return SensorField(xy)
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
