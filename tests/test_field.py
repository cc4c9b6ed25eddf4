"""Field generation, geometry, and dataset format tests."""

import math

import numpy as np
import pytest

from wsnroute import (
    DatasetParseError,
    EmptyDatasetError,
    Point,
    SensorField,
    distance,
    generate_uniform,
    parse_dataset,
    write_dataset,
)
from wsnroute.field import distance_block, distances_from, format_coord


def test_generate_single_point_in_bounds():
    f = generate_uniform(1, 10, 10, seed=7)
    assert len(f) == 1
    p = f.points[0]
    assert 0 <= p.x <= 10 and 0 <= p.y <= 10


def test_generate_all_points_in_bounds():
    f = generate_uniform(500, 123.0, 77.0, seed=3)
    for p in f.points:
        assert 0 <= p.x <= 123.0
        assert 0 <= p.y <= 77.0


def test_generate_deterministic():
    a = generate_uniform(2000, 20000, 20000, seed=42)
    b = generate_uniform(2000, 20000, 20000, seed=42)
    assert a.points == b.points
    assert a == b


def test_generate_stream_fingerprint():
    # Pins the documented PCG64 stream; a change here means reproducibility
    # of every seeded artifact in the package silently broke.
    f = generate_uniform(2000, 20000, 20000, seed=42)
    assert f.points[0] == Point(15479.120971119266, 8777.568795041047)
    assert f.points[1999] == Point(6793.2492760859395, 3607.074432689661)


def test_generate_mean_x_within_three_sigma():
    # standard-error bound for the mean of uniform coordinates:
    # 3 * width / sqrt(12 * n) = 387.298... at n=2000, width=20000
    f = generate_uniform(2000, 20000, 20000, seed=42)
    mean_x = sum(p.x for p in f.points) / len(f)
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
    assert math.isfinite(distance_block(f.coords, 0, 3).max())


def test_parse_sample_record():
    f = parse_dataset("P (14991 8390)\n")
    assert f.points == (Point(14991.0, 8390.0),)
    assert f.width == 14991.0 and f.height == 8390.0
    assert f.seed is None


def test_parse_two_points_345():
    f = parse_dataset("P (0 0)\nP (3 4)")
    assert len(f) == 2
    assert distance(f.points[0], f.points[1]) == 5.0


def test_parse_tolerates_crlf_blank_lines_and_whitespace():
    f = parse_dataset("  P ( 1.5  2.25 ) \r\n\r\n\tP (3 4)\r\n")
    assert f.points == (Point(1.5, 2.25), Point(3.0, 4.0))


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
            pts = tuple(Point(float(int(p.x)), float(int(p.y))) for p in f.points)
            f = SensorField(coords=pts, width=f.width, height=f.height)
        assert parse_dataset(write_dataset(f)).points == f.points


def test_format_coord_shortest_roundtrip():
    assert format_coord(14991.0) == "14991"
    assert format_coord(0.1) == "0.1"
    assert float(format_coord(1 / 3)) == 1 / 3


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
    block = distance_block(xy, 0, len(f))
    for i in range(0, 40, 7):
        row = distances_from(xy, i)
        for j in range(40):
            want = distance(f.points[i], f.points[j])
            assert block[i, j] == want
            assert row[j] == want
