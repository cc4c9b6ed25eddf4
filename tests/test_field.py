"""Field generation, geometry, and dataset format tests."""

import math
import re

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
from wsnroute.field import distances_from, format_coord, format_coords
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


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_field_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        SensorField(coords=[(bad, 0.0), (1.0, 2.0)], width=10, height=10)
    with pytest.raises(ValueError, match="finite"):
        SensorField(coords=[(1.0, 2.0), (0.0, bad)], width=10, height=10)


def test_field_rejects_span_whose_squared_distances_overflow():
    # (1e200)^2 overflows float64; 1e150 squared is 1e300 and still finite.
    with pytest.raises(ValueError, match="overflow"):
        SensorField(coords=[(0.0, 0.0), (1e200, 0.0)], width=1e200, height=1.0)
    with pytest.raises(ValueError, match="overflow"):
        SensorField(coords=[(0.0, -1e160), (0.0, 1e160)], width=1.0, height=2e160)
    # both extremes of the float range: the span itself overflows
    with pytest.raises(ValueError, match="overflow"):
        SensorField(coords=[(-1.7e308, 0.0), (1.7e308, 0.0)], width=1.0, height=1.0)
    f = generate_uniform(3, 1e150, 1e150, seed=1)
    assert math.isfinite(distance_block(f.coords).max())


def test_parse_sample_record():
    f = parse_dataset("P (14991 8390)\n")
    assert points(f) == (Point(14991.0, 8390.0),)
    assert f.width == 14991.0 and f.height == 8390.0
    assert f.seed is None


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


def test_parse_extent_spans_origin_and_negative_points():
    f = parse_dataset("P (-5 -3)\nP (-1 -2)\n")
    assert (f.width, f.height) == (5.0, 3.0)
    f = parse_dataset("P (-5 7)\nP (2 -1)\n")
    assert (f.width, f.height) == (7.0, 8.0)


def test_parse_empty_input():
    with pytest.raises(EmptyDatasetError):
        parse_dataset("")
    with pytest.raises(EmptyDatasetError):
        parse_dataset("\n  \n")


def test_write_integral_coords_match_record_format():
    f = SensorField(coords=(Point(14991.0, 8390.0),), width=14991.0, height=8390.0)
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
            f = SensorField(coords=pts, width=f.width, height=f.height)
        assert points(parse_dataset(write_dataset(f))) == points(f)


@pytest.mark.parametrize("coords", [
    [(-0.0, 0.0), (0.0, -0.0)],
    [(5e-324, -5e-324), (2.2250738585072014e-308, -2.2250738585072014e-308)],
    [(1.7976931348623157e308, -1.7976931348623157e308)],
    [(9999999999999998.0, -9999999999999998.0), (1e16, -1e16)],
])
def test_roundtrip_keeps_extreme_values_and_the_sign_of_zero(coords):
    f = SensorField(coords=coords, width=1.0, height=1.0)
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
coordinates = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS),
                        st.integers(-2**60, 2**60).map(float))


@SETTINGS
@given(values=st.lists(coordinates, max_size=40))
def test_format_coords_is_format_coord_of_each_entry(values):
    a = np.array(values, dtype=np.float64)
    assert format_coords(a) == [format_coord(v) for v in a.tolist()]


def reference_write(field):
    """The per-line writer, one format_coord call per coordinate: the oracle."""
    lines = [f"P ({format_coord(x)} {format_coord(y)})" for x, y in field.coords.tolist()]
    return "\n".join(lines) + "\n"


@SETTINGS
@given(coords=st.lists(st.tuples(coordinates.filter(lambda v: abs(v) < 1e150),
                                 coordinates.filter(lambda v: abs(v) < 1e150)), min_size=1, max_size=20))
def test_write_matches_the_per_line_writer(coords):
    f = SensorField(coords=coords, width=1.0, height=1.0)
    assert write_dataset(f) == reference_write(f)


def test_write_matches_the_per_line_writer_on_generated_fields():
    for f in (generate_uniform(500, 20000, 20000, seed=4), SensorField(coords=[(-0.0, 3.0), (4.0, -0.0)],
                                                                       width=4.0, height=3.0)):
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
    xy = np.array(rows, dtype=np.float64)
    span = np.maximum(xy.max(axis=0), 0.0) - np.minimum(xy.min(axis=0), 0.0)
    width, height = span.tolist()
    return SensorField(coords=xy, width=width, height=height, seed=None)


def parse_outcome(parse, text):
    try:
        f = parse(text)
    except DatasetError as e:
        return type(e), str(e), getattr(e, "line_no", None), getattr(e, "line", None)
    return f.coords.tobytes(), f.width, f.height, f.seed


# Line boundaries for str.splitlines, and spaces that are not.
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x85", "\u2028"]
SPACES = st.text(alphabet=" \t\xa0\u3000", max_size=2)
NUMBERS = st.sampled_from(["0", "-0", "7", "+2", "1.5", ".5", "3.", "-4e2", "1E-7", "1e400", "-1e309", "٣"])


@st.composite
def dataset_lines(draw):
    kind = draw(st.sampled_from(["record", "record", "record", "blank", "malformed"]))
    if kind == "blank":
        return draw(SPACES)
    if kind == "malformed":
        return draw(st.sampled_from(["Q (1 2)", "P (1)", "P 1 2", "P (1 2", "P (1 2) x", "P (1,2)", "p (1 2)",
                                     "P (inf 2)", "x"]))
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
