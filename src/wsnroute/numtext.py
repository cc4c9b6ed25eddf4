"""Decimal text of float64 values, written and read a whole array at a time.

Numbers are written by :func:`format_coord`, one at a time, or by
:func:`format_coords`, a whole array into a table of ASCII bytes, a block of
entries at a time; the two give the same text. :func:`line_blocks` gathers
lines of text from such tables a block at a time, and :func:`join_lines`
returns them as one ``str`` or writes each block to a text stream, for
``write_dataset`` and the kNN dump. So no temporary of the formatter, and
no text but the caller's own ``str``, is as long as the input.

:func:`read_records` reads the ``P (<x> <y>)`` records of ASCII dataset text
from its bytes: a numpy tokenizer finds each record's two number spans, and
each span's digits become a uint64 significand and a decimal exponent that
are converted to the nearest double exactly, by Clinger's fast path or by
Eisel–Lemire, with ``float()`` for the few spans neither can decide. Text
with any line that is neither blank nor a plain record is left to the
caller, which reads it line by line.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from typing import TextIO

import numpy as np


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
_0, _1, _2, _4, _5, _8, _9, _10, _16, _20, _32, _52, _57, _63 = map(
    _U, (0, 1, 2, 4, 5, 8, 9, 10, 16, 20, 32, 52, 57, 63))
_M32 = _U(0xFFFFFFFF)
_MANT = _U((1 << 52) - 1)
_FRAC = _U((1 << 57) - 1)
_E8 = _U(10 ** 8)
_POW5 = np.array([5 ** i for i in range(19)], dtype=np.uint64)
_POW10 = np.array([10 ** i for i in range(20)], dtype=np.uint64)
_TWO53 = float(2 ** 53)


def _limbs(m: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each m * f, two uint64 factors, as two 64-bit limbs (hi, lo), from products of 32-bit halves."""
    ml, mh, fl, fh = m & _M32, m >> _32, f & _M32, f >> _32
    ll, lh, hl = ml * fl, ml * fh, mh * fl
    mid = (ll >> _32) + (lh & _M32) + (hl & _M32)  # below 3 * 2^32: no wrap
    return mh * fh + (lh >> _32) + (hl >> _32) + (mid >> _32), (mid << _32) | (ll & _M32)


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
# Entries are formatted this many at a time, which bounds the formatter's temporaries.
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

    The entries are formatted ``_CHUNK`` at a time, each block into a table
    of its own columns, which is copied into the result padded with NULs on
    the right; so columns may line up differently from block to block, and
    no temporary is longer than a block. The result is widened in place when
    a block is wider than every block before it.
    """
    n = len(a)
    buf = np.zeros(0, np.uint8)  # the result's n rows, each w bytes
    w = 0
    for lo in range(0, n, _CHUNK):
        block = _format_block(a[lo:lo + _CHUNK])
        if block.shape[1] > w:
            buf.resize(n * block.shape[1], refcheck=False)  # in place: no second copy of the table
            _widen(buf, lo, w, block.shape[1])
            w = block.shape[1]
        buf.reshape(n, w)[lo:lo + len(block), :block.shape[1]] = block
    return buf.reshape(n, w)


def _widen(buf: np.ndarray, rows: int, w: int, w2: int) -> None:
    """Move the first ``rows`` rows of a table in ``buf`` from ``w`` bytes wide to ``w2`` > w, NUL on the right.

    The rows move a block at a time, the last first, so that none is
    overwritten before it moves.
    """
    for hi in range(rows, 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        new = buf[lo * w2:hi * w2].reshape(-1, w2)
        new[:, :w] = buf[lo * w:hi * w].reshape(-1, w)  # numpy copies an overlapping source first
        new[:, w:] = 0


@functools.lru_cache(maxsize=64)
def _fill(w0: int, wi: int, wf: int) -> np.ndarray:
    """What a row of ``w0`` sign, ``wi`` whole and ``wf`` fraction columns adds to its digits.

    Row ``ravel_multi_index((negative, whole digits, fraction digits), (w0
    + 1, wi + 1, wf + 1))`` holds a sign, a dot, and "0" in each column that
    holds a digit. A block's table depends on its widths alone, so blocks of
    the same widths share it.
    """
    kinds = (w0 + 1, wi + 1, wf + 1)
    s, nw, nf = np.unravel_index(np.arange(np.prod(kinds)), kinds)
    w1 = w0 + wi + (wf > 0)
    fill = np.zeros((len(s), w1 + wf), np.uint8)
    fill[:, :w0] = (s * ord("-"))[:, None]
    fill[:, w0:w0 + wi] = _ZEROS[nw, :wi][:, ::-1]
    fill[:, w0 + wi:w1] = ((nf > 0) * ord("."))[:, None]
    fill[:, w1:] = _ZEROS[nf, :wf]
    fill.flags.writeable = False
    return fill


def _format_block(a: np.ndarray) -> np.ndarray:
    """:func:`format_coords` of at most ``_CHUNK`` entries, with columns of their own."""
    mag = np.abs(a)
    in_range = (mag >= 1) & (mag < _TWO53)
    fast, slow = np.flatnonzero(in_range), np.flatnonzero(~in_range)
    v = mag[fast]
    digits = v.astype(np.uint64)  # exact for the integral values, which keep it
    nfrac = np.zeros(len(v), np.intp)
    dot = np.flatnonzero(v != np.trunc(v))
    digits[dot], nfrac[dot] = _shortest(v[dot].view(np.uint64))
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
    rows += np.take(_fill(w0, wi, wf), np.ravel_multi_index((neg, nwhole, nfrac), (w0 + 1, wi + 1, wf + 1)), axis=0)
    if not len(slow):
        return rows
    vals = a[slow]
    values = vals.tolist()
    texts = list(map(repr, values))
    for i in np.flatnonzero((vals == np.trunc(vals)) & (np.abs(vals) < 1e16)).tolist():
        texts[i] = format_coord(values[i])
    others = np.array(texts, dtype=bytes)
    others = others.view(np.uint8).reshape(len(slow), others.itemsize)
    table = np.zeros((len(a), max(rows.shape[1], others.shape[1])), np.uint8)
    table[fast, :rows.shape[1]] = rows
    table[slow, :others.shape[1]] = others
    return table


# Lines per block when text is assembled from byte tables.
_BLOCK = 1 << 12


def line_blocks(columns: list, n: int) -> Iterator[str]:
    """``n`` lines of ASCII text, each one row of every column, as ``str`` blocks of ``_BLOCK`` lines.

    A column is ``bytes``, the same in every line, or a pair (table, rows) of
    a C-contiguous 2-D uint8 table and the row of it that each line takes:
    line i takes row ``rows[i]``, or row ``i // rows`` when ``rows`` is an
    int. NUL bytes are dropped. Only one block of lines is ever held in a
    table.
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
    for first in range(0, n, _BLOCK):
        block = buf[:min(_BLOCK, n - first)]
        for items, rows, lo, hi in gathers:
            if isinstance(rows, int):
                rows = np.arange(first, first + len(block)) // rows
            else:
                rows = rows[first:first + len(block)]
            block[:, lo:hi] = items[rows].view(np.uint8).reshape(len(block), hi - lo)
        yield block.tobytes().translate(None, b"\0").decode("ascii")


def join_lines(columns: list, n: int, out: TextIO | None = None) -> str | None:
    """The text of :func:`line_blocks`, returned as one ``str`` or written to the text stream ``out`` block by block."""
    if out is None:
        return "".join(line_blocks(columns, n))
    out.writelines(line_blocks(columns, n))
    return None


# Reading. Lemire, "Number parsing at a gigabyte per second" (Software:
# Practice and Experience 51(8), 2021), converts a decimal w * 10^q, w < 2^64,
# from one product of w, shifted left until its top bit is set, with a
# 128-bit F(q) and 10^q ~ F(q) * 2^E(q). The table holds q in [-_Q, _Q] and
# is built from Python ints. For q >= 0, F is 5^q shifted left, exactly; for
# q < 0 it is 2^k / 5^-q rounded up, so that the product P is at most 2^64
# above the exact one (w < 2^64 and F's error is below 1).
_Q = 30


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F(q)'s high and low 64 bits and E(q), for q in [-_Q, _Q]."""
    hi, lo, exp = [], [], []
    for q in range(-_Q, _Q + 1):
        p = 5 ** abs(q)
        b = p.bit_length()
        f, e = (p << (128 - b), q + b - 128) if q >= 0 else (-(-(1 << (127 + b)) // p), q - 127 - b)
        hi.append(f >> 64)
        lo.append(f & 0xFFFFFFFFFFFFFFFF)
        exp.append(e)
    return np.array(hi, np.uint64), np.array(lo, np.uint64), np.array(exp, np.int64)


_F_HI, _F_LO, _F_EXP = _powers_of_ten()
# Clinger, "How to read floating point numbers accurately" (PLDI 1990): a
# w < 2^53 and 10^|q| for |q| <= 22 are exact doubles, so one IEEE multiply
# or divide gives the correctly rounded w * 10^q.
_EXACT10 = 10.0 ** np.arange(23)
_TWO53_U = _U(1 << 53)


def _eisel_lemire(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each w * 10^q, for w in [1, 10^19) and |q| <= _Q, as float64, and where it is undecided.

    The 192-bit product P = (w << lz) * F(q) has its top bit at 190 or 191;
    its top 54 bits are the significand and one rounding bit, and the s bits
    below them, D, say whether the value lies above the half-way point. The
    exact product lies in (P - 2^64, P], so D >= 2^64 decides the rounding
    with no tie possible; D < 2^64, a possible tie or carry, is left
    undecided, for ``float()``.
    """
    # w's bit length from its double, which may round up to the next power of two
    bitlen = np.frexp(w.astype(np.float64))[1]
    bitlen -= (w >> (bitlen - 1).astype(np.uint64)) == _0
    lz = (64 - bitlen).astype(np.uint64)
    wn = w << lz
    i = q + _Q
    a1, a0 = _limbs(wn, _F_HI[i])
    # The low limb's product reaches m only by a carry through a1's low 9 bits,
    # and D < 2^64 needs them all zero after it: both need them all ones or all zeros.
    b1 = np.zeros_like(a0)
    near = np.flatnonzero(((a1 + _1) & _U(0x1FF)) <= _1)
    b1[near] = _limbs(wn[near], _F_LO[i[near]])[0]
    p1 = a0 + b1
    p2 = a1 + (p1 < a0).astype(np.uint64)
    top = p2 >> _63
    shift = _9 + top
    m = p2 >> shift
    undecided = (p1 == _0) & ((p2 & ((_1 << shift) - _1)) == _0)
    m += m & _1  # round half up; D > 0, so the rounding bit alone decides
    m >>= _1
    carry = m >> _U(53)  # rounded up to 2^53
    m >>= carry
    biased = _F_EXP[i] + (1023 + 52 + 1 + 137) + (top + carry).astype(np.int64) - lz.astype(np.int64)
    return ((m & _MANT) | (biased.astype(np.uint64) << _52)).view(np.float64), undecided


# Masks that keep the first c bytes of a little-endian word, its low ones.
_FIRST = np.array([(1 << 8 * c) - 1 for c in range(9)], np.uint64)


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """The value of each word of eight ASCII digits or NUL bytes, the first in the low byte.

    Lemire's SWAR reduction: pairs of digits, then fours, then all eight,
    each a multiply and a shift that wrap mod 2^64.
    """
    v = ((v & _U(0x0F0F0F0F0F0F0F0F)) * _U(2561)) >> _8
    v = ((v & _U(0x00FF00FF00FF00FF)) * _U(6553601)) >> _16
    return ((v & _U(0x0000FFFF0000FFFF)) * _U(42949672960001)) >> _32


def _words(buf: np.ndarray, at: np.ndarray, k: int) -> np.ndarray:
    """The 8k bytes of ``buf`` from each offset ``at``, as a (len(at), k) array of little-endian words."""
    rows = np.ndarray((len(buf) - 8 * k + 1,), f"V{8 * k}", buf, 0, (1,))  # one row at every byte
    return rows[at].view("<u8").reshape(len(at), k)


def _digits(buf: np.ndarray, start: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The value of the ``n`` <= 24 ASCII digits of ``buf`` that start at each offset ``start``."""
    k = -(-int(n.max(initial=0)) // 8)
    words = _words(buf, start, k)
    v = np.zeros(len(start), np.uint64)
    for j in range(k):
        c = np.clip(n - 8 * j, 0, 8)
        # the word's first c bytes, its digits, moved up to its high bytes after leading NULs
        v = v * _POW10[c] + _eight_digits((words[:, j] & _FIRST[c]) << (_U(64) - (c << 3).astype(np.uint64)))
    return v


# Zero bytes after a block, so that the words a number's digits are read from lie inside it.
_PAD = bytes(24)
# Bytes of text per block of whole lines, which bounds the reader's temporaries.
_READ_BLOCK = 1 << 16


def read_records(data: bytes) -> np.ndarray | None:
    """The (n, 2) coordinates of ASCII dataset text, or None if it is not ASCII or a line is neither blank nor a record.

    A record is ``P``, ``(``, two numbers and ``)``, with spaces or tabs
    between the tokens and around them, and lines end at ``\\n`` or ``\\r\\n``. A
    number is an optional sign, at least one digit with at most one dot
    among or around the digits, and an optional exponent (``e`` or ``E``, an
    optional sign, digits); it is read as ``float()`` reads it. The text is
    read ``_READ_BLOCK`` bytes of whole lines at a time. None leaves every
    error, and every other line ending, to the caller.
    """
    if not data.isascii():
        return None
    parts = []
    view = memoryview(data)
    lo = 0
    while lo < len(data):
        hi = len(data)
        if hi - lo > _READ_BLOCK:  # to the last line end in the block, or the end of a longer line
            hi = data.rfind(b"\n", lo, lo + _READ_BLOCK) + 1 or data.find(b"\n", lo + _READ_BLOCK) + 1 or hi
        xy = _read_block(b"".join((view[lo:hi], _PAD)))
        if xy is None:
            return None
        parts.append(xy)
        lo = hi
    return np.concatenate(parts) if parts else np.empty((0, 2))


def _read_block(padded: bytes) -> np.ndarray | None:
    """:func:`read_records` of one block of whole lines, followed by ``_PAD``."""
    # A \r directly before \n is part of the line end; any other \r leaves the text to the caller.
    cr = padded.count(b"\r")
    if cr and cr != padded.count(b"\r\n"):
        return None
    buf = np.frombuffer(padded, np.uint8)
    b = buf[:-len(_PAD)]
    # Every byte but a digit, and two virtual ones of kind 0xFF at -1 and
    # len(b). A number span is a maximal run of digits and the specials
    # + - . e E (and , / which no number holds); the other bytes are marks.
    hits = np.flatnonzero(b - np.uint8(48) >= 10)
    at = np.empty(len(hits) + 2, np.intp)
    at[0], at[1:-1], at[-1] = -1, hits, len(b)
    kind = np.full(len(at), 0xFF, np.uint8)
    kind[1:-1] = b[hits]
    del hits  # each large array is freed once read: a block's peak memory falls by a quarter
    mark = (kind - np.uint8(43) >= 5) & ((kind | np.uint8(32)) != 101)
    gap = at[1:] - at[:-1] > 1  # digits lie between each hit and the next
    ends = np.zeros(len(at), bool)  # marks that end a span
    ends[1:] = mark[1:] & (gap | ~mark[:-1])
    # The skeleton: each mark, after the byte 0x80 if a span ends at it, with
    # spaces, tabs, the \r of each \r\n and the virtual bytes dropped. ASCII
    # text holds no 0x80, so only span ends make one. Blank lines and records,
    # each on a line of its own, make the skeleton "\n" and "P(\x80\x80)" and
    # nothing else.
    skeleton = np.empty((len(at), 2), np.uint8)
    np.subtract(0xFF, ends.view(np.uint8) * np.uint8(0x7F), out=skeleton[:, 0])
    np.bitwise_or(kind, mark.view(np.uint8) - np.uint8(1), out=skeleton[:, 1])  # 0xFF where no mark
    text = b"\n" + skeleton.tobytes().translate(None, b"\xff \t\r")
    if text.replace(b"\nP(\x80\x80)", b"").strip(b"\n"):
        return None
    kend = np.flatnonzero(ends)
    kstart = np.flatnonzero(mark[:-1] & (gap | ~mark[1:]))  # marks that a span follows
    # A span's specials are the hits between its two marks. They must come in
    # the grammar's order and places: a sign first, with no digit before it, a
    # dot, an exponent letter, and a sign with no digit between it and the
    # letter; the bytes between them are digits. The hit at kend is a mark,
    # which no test below takes for a special, so each k stays <= kend.
    k = kstart + 1
    c = kind[k]
    sign = ((c == 43) | (c == 45)) & ~gap[kstart]
    neg = sign & (c == 45)
    k += sign
    dot = kind[k] == 46
    point = at[k]  # the end of the whole part: the dot, the letter or the span's end
    k += dot
    exp = (kind[k] | np.uint8(32)) == 101
    e_at = at[k]  # the end of the fraction
    c = kind[k + exp]
    e_sign = ((c == 43) | (c == 45)) & exp & ~gap[k]
    e_neg = e_sign & (c == 45)
    k += exp
    k += e_sign
    end = at[kend]
    mstart = at[kstart] + 1 + sign
    del at, kind, mark, gap, ends
    whole = point - mstart
    frac = e_at - point - dot
    n_exp = end - e_at - 1 - e_sign
    if (k != kend).any() or (whole + frac < 1).any() or (exp & (n_exp < 1)).any():
        return None
    q = -frac
    skip = whole + frac > 19
    if exp.any():
        e = np.flatnonzero(exp)
        digits = _digits(buf, end[e] - n_exp[e], np.minimum(n_exp[e], 8)).astype(np.intp)
        q[e] += np.where(e_neg[e], -digits, digits)
        skip[e] |= n_exp[e] > 8
    whole[skip] = 0
    frac[skip] = 0
    w = _digits(buf, mstart, whole) * _POW10[frac] + _digits(buf, point + 1, frac)
    out = _to_double(w, q, skip)
    for i in np.flatnonzero(np.isnan(out)).tolist():
        out[i] = float(padded[mstart[i]:end[i]])
    np.negative(out, out=out, where=neg)
    return out.reshape(-1, 2)


def _to_double(w: np.ndarray, q: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Each w * 10^q, w < 10^19, correctly rounded, or NaN where ``skip`` or where it is undecided."""
    aq = np.abs(q)
    scale = _EXACT10[np.minimum(aq, 22)]
    out = w.astype(np.float64)
    out = np.where(q < 0, out / scale, out * scale)
    rest = ((w >= _TWO53_U) | (aq > 22)) & (w != _0) | skip
    np.copyto(out, np.nan, where=rest)
    el = np.flatnonzero(rest & ~skip & (aq <= _Q))
    if len(el):
        value, undecided = _eisel_lemire(w[el], q[el])
        value[undecided] = np.nan
        out[el] = value
    return out
