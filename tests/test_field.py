"""Field generation, geometry, and dataset format tests."""

import collections
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wsnroute import (
    DatasetError,
    DatasetParseError,
    EmptyDatasetError,
    SensorField,
    generate_uniform,
    parse_dataset,
    write_dataset,
)
from wsnroute import numtext
from wsnroute.field import distances_from, format_coord, format_coords
from wsnroute.numtext import read_records
from oracles import Point, distance, distance_block, points

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def test_generate_single_point_in_bounds():
    f = generate_uniform(1, 10, 10, seed=7)
    assert len(f) == 1
    p = points(f)[0]
    assert 0 <= p.x <= 10 and 0 <= p.y <= 10


def test_generate_all_points_in_bounds():
    f = generate_uniform(500, 123.0, 77.0, seed=3)
    for p in points(f):
        assert 0 <= p.x <= 123.0
        assert 0 <= p.y <= 77.0


def test_generate_deterministic():
    a = generate_uniform(2000, 20000, 20000, seed=42)
    b = generate_uniform(2000, 20000, 20000, seed=42)
    assert points(a) == points(b)
    assert a == b


def test_generate_stream_fingerprint():
    # Pins the documented PCG64 stream; a change here means reproducibility
    # of every seeded artifact in the package silently broke.
    f = generate_uniform(2000, 20000, 20000, seed=42)
    assert points(f)[0] == Point(15479.120971119266, 8777.568795041047)
    assert points(f)[1999] == Point(6793.2492760859395, 3607.074432689661)


def test_generate_mean_x_within_three_sigma():
    # standard-error bound for the mean of uniform coordinates:
    # 3 * width / sqrt(12 * n) = 387.298... at n=2000, width=20000
    f = generate_uniform(2000, 20000, 20000, seed=42)
    mean_x = sum(p.x for p in points(f)) / len(f)
    assert abs(mean_x - 10000.0) <= 387.2983346207417


def test_generate_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_uniform(0, 10, 10, seed=1)
    with pytest.raises(ValueError):
        generate_uniform(5, 0, 10, seed=1)
    with pytest.raises(ValueError):
        generate_uniform(5, 10, -1, seed=1)


@pytest.mark.parametrize("size", [math.nan, math.inf, 0.0])
def test_generate_rejects_a_non_finite_or_zero_dimension(size):
    for width, height in ((size, 10.0), (10.0, size)):
        with pytest.raises(ValueError, match="field dimensions must be positive and finite"):
            generate_uniform(5, width, height, seed=1)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_field_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        SensorField(coords=[(bad, 0.0), (1.0, 2.0)])
    with pytest.raises(ValueError, match="finite"):
        SensorField(coords=[(1.0, 2.0), (0.0, bad)])


def test_field_rejects_span_whose_squared_distances_overflow():
    # (1e200)^2 overflows float64; 1e150 squared is 1e300 and still finite.
    with pytest.raises(ValueError, match="overflow"):
        SensorField(coords=[(0.0, 0.0), (1e200, 0.0)])
    with pytest.raises(ValueError, match="overflow"):
        SensorField(coords=[(0.0, -1e160), (0.0, 1e160)])
    # both extremes of the float range: the span itself overflows
    with pytest.raises(ValueError, match="overflow"):
        SensorField(coords=[(-1.7e308, 0.0), (1.7e308, 0.0)])
    f = generate_uniform(3, 1e150, 1e150, seed=1)
    assert math.isfinite(distance_block(f.coords).max())


def test_parse_sample_record():
    f = parse_dataset("P (14991 8390)\n")
    assert points(f) == (Point(14991.0, 8390.0),)


def test_parse_two_points_345():
    f = parse_dataset("P (0 0)\nP (3 4)")
    assert len(f) == 2
    assert distance(points(f)[0], points(f)[1]) == 5.0


def test_parse_tolerates_crlf_blank_lines_and_whitespace():
    f = parse_dataset("  P ( 1.5  2.25 ) \r\n\r\n\tP (3 4)\r\n")
    assert points(f) == (Point(1.5, 2.25), Point(3.0, 4.0))


def test_parse_malformed_line_carries_line_number():
    with pytest.raises(DatasetParseError) as exc:
        parse_dataset("P (1 2)\nQ (3 4)\n")
    assert exc.value.line_no == 2


@pytest.mark.parametrize("record", ["P (1e400 2)", "P (3 -1e309)"])
def test_parse_rejects_non_finite_coordinate(record):
    with pytest.raises(DatasetParseError) as exc:
        parse_dataset(f"P (1 2)\n{record}\n")
    assert exc.value.line_no == 2
    assert "non-finite" in str(exc.value)


def test_parse_empty_input():
    with pytest.raises(EmptyDatasetError):
        parse_dataset("")
    with pytest.raises(EmptyDatasetError):
        parse_dataset("\n  \n")


def test_write_integral_coords_match_record_format():
    f = SensorField(coords=(Point(14991.0, 8390.0),))
    assert "P (14991 8390)" in write_dataset(f)


def test_write_uses_lf_endings():
    f = generate_uniform(3, 10, 10, seed=1)
    text = write_dataset(f)
    assert "\r" not in text
    assert text.endswith("\n")


def test_roundtrip_random_fields():
    # write -> parse is the identity on point sequences
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(1, 40))
        f = generate_uniform(n, 5000, 5000, seed=int(rng.integers(2**32)))
        if trial % 3 == 0:
            # integral coordinates exercise the dot-free format
            pts = tuple(Point(float(int(p.x)), float(int(p.y))) for p in points(f))
            f = SensorField(coords=pts)
        assert points(parse_dataset(write_dataset(f))) == points(f)


def test_parse_of_write_equals_the_generated_field():
    # a field is its coordinates: nothing of how it was generated is kept to tell the two apart
    for args in ((50, 1000, 700, 5), (1, 10, 10, 7), (500, 123.0, 77.0, 3), (2000, 20000, 20000, 42)):
        f = generate_uniform(*args)
        assert parse_dataset(write_dataset(f)) == f
    assert generate_uniform(50, 1000, 700, 5) != generate_uniform(50, 1000, 700, 6)


@pytest.mark.parametrize("coords", [
    [(-0.0, 0.0), (0.0, -0.0)],
    [(5e-324, -5e-324), (2.2250738585072014e-308, -2.2250738585072014e-308)],
    [(1.7976931348623157e308, -1.7976931348623157e308)],
    [(9999999999999998.0, -9999999999999998.0), (1e16, -1e16)],
])
def test_roundtrip_keeps_extreme_values_and_the_sign_of_zero(coords):
    f = SensorField(coords=coords)
    text = write_dataset(f)
    back = parse_dataset(text)
    assert np.array_equal(back.coords, f.coords)
    assert np.array_equal(np.signbit(back.coords), np.signbit(f.coords))
    assert write_dataset(back) == text


def test_format_coord_shortest_roundtrip():
    assert format_coord(14991.0) == "14991"
    assert format_coord(0.1) == "0.1"
    assert float(format_coord(1 / 3)) == 1 / 3
    assert format_coord(-0.0) == "-0"
    assert format_coord(0.0) == "0"


# Integral values either side of 1e16, subnormals, signed zeros and others
# that format_coord writes apart from repr.
SPECIAL_FLOATS = [-0.0, 0.0, 1.0, -3.0, 0.1, 1e-7, 1e300, -1e300, 5e-324, -2.2250738585072014e-308,
                  9999999999999998.0, -9999999999999998.0, 1e16, -1e16, 1.0000000000000002e16]
# The vectorized formatter's range, [1, 2^53), of either sign.
IN_RANGE = st.builds(math.copysign, st.floats(1, 2**53), st.sampled_from([1.0, -1.0]))
coordinates = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS),
                        st.integers(-2**60, 2**60).map(float), IN_RANGE)


def texts(table):
    """Each row of a format_coords table as text, its NUL bytes dropped."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in table]


@SETTINGS
@given(values=st.lists(coordinates, max_size=40))
def test_format_coords_is_format_coord_of_each_entry(values):
    a = np.array(values, dtype=np.float64)
    assert texts(format_coords(a)) == [format_coord(v) for v in a.tolist()]


def format_coords_values():
    """The values of the exactness sweep of format_coords, in [1, 2^53) of both signs."""
    rng = np.random.default_rng(23)
    # raw bit patterns spread over every binade of [1, 2^53), of both signs
    lo, hi = np.array([1.0, 2.0**53]).view(np.int64)
    bits = rng.integers(lo, hi, 200_000)
    signed = bits.view(np.float64) * rng.choice([-1.0, 1.0], len(bits))
    # short decimals k / 10^j, and binary fractions N + m / 2^s, whose rounding can tie
    parts = [np.concatenate([np.arange(1, 3000), rng.integers(1, 10**15, 3000)]) / 10.0**j for j in range(1, 7)]
    for s in range(1, 8):
        n = np.ldexp(1.0, rng.integers(0, 53 - s, 3000)) * (1 + rng.random(3000))
        parts.append(np.floor(np.ldexp(n, s)) / 2.0**s)
    parts += [2.0 ** np.arange(54), 10.0 ** np.arange(17), np.array([1.0, 2.0**53])]
    a = np.concatenate(parts)
    # each value above and its neighbours, such as nextafter(1, 0) and nextafter(2^53, 0)
    return np.concatenate([signed, a, np.nextafter(a, 0), np.nextafter(a, np.inf)])


def test_format_coords_matches_format_coord_across_its_range():
    a = format_coords_values()
    assert ((np.abs(a) >= 1) & (np.abs(a) < 2**53)).sum() > 250_000
    assert texts(format_coords(a)) == [format_coord(v) for v in a.tolist()]


# Spellings float() reads that format_coord never writes, and values at the edges of
# the reader's conversion: subnormals, overflow, exact ties between two doubles, and
# decimal exponents on both sides of the Eisel-Lemire table's window [-30, 30].
ODD_NUMBERS = [
    "0", "-0", "+0", "-0.0", "0e999", "-0.000e-400", "5e-324", "-4.9406564584124654e-324", "2.2250738585072014e-308",
    "2.225073858507201e-308", "1e-300", "1.7e308", "1.7976931348623157e308", "1e400", "-1e309", "1e-400",
    "+2", ".5", "-.5", "3.", "+3.", "1E-7", "1e+7", "1E+07", "007", "-000.5", "000000000000000000001",
    "00000000000000000000000000000000000000000.25", "0.1000000000000000055511151231257827",
    "1234567890123456789012345678901234567890", "9007199254740993", "9007199254740993.0", "9007199254740992.5",
    "9007199254740991", "18014398509481985", "1e23", "8.98846567431158e307", "4.35e-31", "1e30", "1e31", "1e-30",
    "1e-31", "9999999999999999999e30", "9999999999999999999e-30", "1234567890123456789e11",
    "12345678901234567e-31", "123456789012345678e-32", "7e-34", "3e32", "1e0000000022", "1e000000000022",
    "2.5e-000000000003", "15479.120971119266", "8777.568795041047", "19999.999999999996",
]


def ties_and_carries(rng):
    """Decimals that round with a carry or a tie: just below a power of two, and half way between doubles.

    A decimal within a quarter of an ulp below 2^e rounds up to it, a carry out
    of the significand. The midpoints of [2^50, 2^53) have at most 19 digits,
    so a correctly rounded reader must break their ties to even.
    """
    out = []
    with localcontext() as ctx:
        ctx.prec = 60
        for e in range(-100, 120):
            d = 2.0 ** e
            below = Decimal(d) - (Decimal(d) - Decimal(np.nextafter(d, 0))) / 4
            out.append(format(below, ".18e"))
        for s in (1, 2, 3):  # in [2^(53 - s), 2^(54 - s)) the doubles lie 2^(1 - s) apart
            for k in rng.integers(2**52, 2**53, 300).tolist():
                out.append(str(Decimal(k * 2.0 ** (1 - s)) + Decimal(2) ** -s))
    return out


def test_read_records_reads_each_number_as_float_does(monkeypatch):
    ran = collections.Counter()
    to_double, eisel_lemire = numtext._to_double, numtext._eisel_lemire

    def counted_to_double(w, q, skip):
        out = to_double(w, q, skip)
        left = np.isnan(out)
        ran["more than 19 digits, or an exponent of more than 8"] += int((left & skip).sum())
        ran["outside the table"] += int((left & ~skip & (np.abs(q) > numtext._Q)).sum())
        return out

    def counted_eisel_lemire(w, q):
        value, undecided = eisel_lemire(w, q)
        ran["eisel-lemire"] += int((~undecided).sum())
        ran["undecided"] += int(undecided.sum())
        return value, undecided

    monkeypatch.setattr(numtext, "_to_double", counted_to_double)
    monkeypatch.setattr(numtext, "_eisel_lemire", counted_eisel_lemire)
    a = format_coords_values()[::3]
    rng = np.random.default_rng(29)
    extremes = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.7e308, -1.7976931348623157e308])
    tiny = rng.random(2000) * 10.0 ** rng.integers(-40, 40, 2000)  # 0 < |v| < 1 and |v| >= 2^53 get repr
    a = np.concatenate([a, extremes, np.nextafter(extremes, 1), tiny, -tiny])
    numbers = texts(format_coords(a)) + list(map(repr, a.tolist())) + ODD_NUMBERS
    long = rng.integers(1, 10, (200, 40)).astype(np.uint8) + ord("0")  # 20 to 40 digits around a dot
    for row, n, dot in zip(long, rng.integers(20, 41, 200), rng.integers(0, 41, 200)):
        digits = row[:n].tobytes().decode()
        numbers.append(f"{digits[:dot]}.{digits[dot:]}" if dot <= n else digits)
    for e in range(-34, 35):
        numbers += [f"1e{e}", f"4.35e{e}", f"-123456789012345678e{e}", f"0.1234567890123456789e{e}"]
    numbers += ties_and_carries(rng)
    numbers += ["0"] * (len(numbers) % 2)
    xy = read_records("".join(f"P ({x} {y})\n" for x, y in zip(numbers[::2], numbers[1::2])).encode())
    want = np.array([float(x) for x in numbers])
    assert xy.ravel().view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert min(ran.values()) > 0 and len(ran) == 4, ran


def reference_write(field):
    """The per-line writer, one format_coord call per coordinate: the oracle."""
    lines = [f"P ({format_coord(x)} {format_coord(y)})" for x, y in field.coords.tolist()]
    return "\n".join(lines) + "\n"


@SETTINGS
@given(coords=st.lists(st.tuples(coordinates.filter(lambda v: abs(v) < 1e150),
                                 coordinates.filter(lambda v: abs(v) < 1e150)), min_size=1, max_size=20))
def test_write_matches_the_per_line_writer(coords):
    f = SensorField(coords=coords)
    assert write_dataset(f) == reference_write(f)


def test_write_matches_the_per_line_writer_on_generated_fields():
    # an empty field writes one newline
    for f in (generate_uniform(500, 20000, 20000, seed=4), SensorField(coords=[(-0.0, 3.0), (4.0, -0.0)]),
              SensorField(coords=np.empty((0, 2)))):
        assert write_dataset(f) == reference_write(f)


def test_write_matches_the_per_line_writer_across_blocks(monkeypatch):
    monkeypatch.setattr("wsnroute.numtext._BLOCK", 7)
    f = SensorField(coords=[(x * 0.37 - 5, 2.0**53 * x - 1) for x in range(-20, 20)])
    assert write_dataset(f) == reference_write(f)


_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_OLD_RECORD = re.compile(rf"^\s*P\s*\(\s*({_NUM})\s+({_NUM})\s*\)\s*$")


def reference_parse(text):
    """The per-line parser, one regex match per line: the oracle."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        m = _OLD_RECORD.match(line)
        if m is None:
            raise DatasetParseError(line_no, line.strip())
        x = float(m.group(1))
        y = float(m.group(2))
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DatasetParseError(line_no, line.strip(), "non-finite coordinate in")
        rows.append((x, y))
    if not rows:
        raise EmptyDatasetError("dataset contains no records")
    return SensorField(coords=rows)


def parse_outcome(parse, text):
    try:
        f = parse(text)
    except DatasetError as e:
        return type(e), str(e), getattr(e, "line_no", None), getattr(e, "line", None)
    return f.coords.tobytes()


# Line boundaries for str.splitlines, and spaces that are not.
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", "\u2028"]
SPACES = st.text(alphabet=" \t\xa0\u3000", max_size=2)
NUMBERS = st.sampled_from(["0", "-0", "7", "+2", "1.5", ".5", "3.", "-4e2", "1E-7", "1e400", "-1e309", "٣", "N"])


@st.composite
def dataset_lines(draw):
    kind = draw(st.sampled_from(["record", "record", "record", "blank", "malformed"]))
    if kind == "blank":
        return draw(SPACES)
    if kind == "malformed":
        return draw(st.sampled_from(["Q (1 2)", "P (1)", "P 1 2", "P (1 2", "P (1 2) x", "P (1,2)", "p (1 2)",
                                     "P (inf 2)", "P(NN)", "x"]))
    s = [draw(SPACES) for _ in range(5)]
    x, y = draw(NUMBERS), draw(NUMBERS)
    return f"{s[0]}P{s[1]}({s[2]}{x}{draw(SPACES.filter(bool))}{y}{s[3]}){s[4]}"


@SETTINGS
@given(lines=st.lists(st.tuples(dataset_lines(), st.sampled_from(LINE_ENDS)), max_size=12),
       last_end=st.booleans())
def test_parse_matches_the_per_line_parser(lines, last_end):
    text = "".join(line + end for line, end in lines)
    if lines and not last_end:
        text = text[:-len(lines[-1][1])]
    assert parse_outcome(parse_dataset, text) == parse_outcome(reference_parse, text)


# One-line changes to a written dataset: errors, line ends and spaces the reader leaves to
# the regular expression, and valid texts it reads itself.
MUTATIONS = {
    "malformed": lambda line: line.replace(")", ""),
    "non-finite": lambda line: "P (1e400 " + line.split()[2],
    "crlf": lambda line: line + "\r",
    "cr cr lf": lambda line: line + "\r\r",
    "lone cr": lambda line: line + "\r" + line,
    "tab": lambda line: "\t" + line.replace(" ", "\t") + "\t",
    "nbsp": lambda line: line.replace(" ", "\xa0"),
    "arabic-indic digit": lambda line: "P (\u0663 4)",
    "blank line": lambda line: line + "\n \t",
}


def test_parse_matches_the_per_line_parser_on_a_large_text():
    written = write_dataset(generate_uniform(5000, 20000, 20000, seed=8))
    lines = written.splitlines()
    boundary = written[:numtext._READ_BLOCK].count("\n")  # the first line of the second block
    assert 1 < boundary < len(lines) - 1
    cases = {(len(lines) - 1, "no final line end"): written[:-1],
             (len(lines) - 1, "final cr"): written[:-1] + "\r",
             (0, "all crlf"): written.replace("\n", "\r\n")}
    for at in (1, boundary - 1, boundary, len(lines) - 1):
        for name, mutate in MUTATIONS.items():
            cases[at, name] = "\n".join([*lines[:at], mutate(lines[at]), *lines[at + 1:]]) + "\n"
    for (at, name), text in cases.items():
        assert parse_outcome(parse_dataset, text) == parse_outcome(reference_parse, text), (at, name)
        if name in ("tab", "blank line", "no final line end", "crlf", "all crlf"):  # read from bytes
            assert read_records(text.encode()) is not None, (at, name)
        if name in ("cr cr lf", "lone cr", "final cr"):  # a \r that ends no \r\n goes to the regex
            assert read_records(text.encode()) is None, (at, name)


def test_parse_rejects_malformed_records_as_the_per_line_parser_does():
    numbers = ["1e5-3", "1-2", "--1", "+-1", "1..2", "1.2.3", "e5", "1e", "1e+", ".", "+", "-.", ".e1", "1e5e5",
               "1e5.", "1E5.2", "1,5", "1/2", "0x10", "1_0", "inf", "1e5+", "5e-", "P", "(1)", "1\x1f"]
    records = ["P (1 2) P (3 4)", "P (1 2)P (3 4)", "P P (1 2)", "P (1 2))", "P ((1 2)", "(1 2)", "P (1 2 3)",
               "P (1)", "P 1 2", "P (1 2", "P (12)", "P (1\x0b2)", "P (1 2)\x00", "\x1fP (1 2)",
               "P(NN)", "P (1N)", "P (N 2)", "P (1 2N)"]
    lines = [f"P ({x} 3)" for x in numbers] + [f"P (4 {y})" for y in numbers] + records
    for line in lines:
        for text in (f"P (1 2)\n{line}\n", f"P (1 2)\n{line}"):
            assert read_records(text.encode()) is None
            assert parse_outcome(parse_dataset, text) == parse_outcome(reference_parse, text), text
    # bytes past ASCII, which the reader's skeleton uses for span ends, are left to the caller
    assert read_records(b"P (1 2)\nP(\x80\x80)\n") is None


def test_read_records_across_blocks_of_any_size(monkeypatch):
    text = write_dataset(SensorField(coords=[(x * 0.37 - 5, 2.0**53 * x - 1) for x in range(-20, 20)]))
    text = text.replace("\n", "\n\n", 3)
    want = read_records(text.encode())
    for size in (1, 7, 64, 1000):
        monkeypatch.setattr(numtext, "_READ_BLOCK", size)
        assert read_records(text.encode()).tobytes() == want.tobytes()


def test_distance_identity_and_pythagorean():
    assert distance(Point(0, 0), Point(0, 0)) == 0.0
    assert distance(Point(0, 0), Point(3, 4)) == 5.0


def test_distance_sample_coordinates():
    # direct evaluation: sqrt(14991^2 + 8390^2) = sqrt(295122181)
    assert distance(Point(14991, 8390), Point(0, 0)) == 17179.120495531777


def test_metric_laws_on_sampled_triples():
    rng = np.random.default_rng(5)
    pts = [Point(float(x), float(y)) for x, y in rng.random((30, 2)) * 100]
    for _ in range(200):
        a, b, c = (pts[int(i)] for i in rng.integers(0, len(pts), 3))
        dab = distance(a, b)
        assert dab >= 0.0
        assert dab == distance(b, a)
        assert distance(a, c) <= dab + distance(b, c) + 1e-9


def test_vectorized_helpers_match_scalar_distance():
    f = generate_uniform(40, 1000, 1000, seed=11)
    xy = f.coords
    block = distance_block(xy)
    pts = points(f)
    for i in range(0, 40, 7):
        row = distances_from(xy, i)
        for j in range(40):
            want = distance(pts[i], pts[j])
            assert block[i, j] == want
            assert row[j] == want
