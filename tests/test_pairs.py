"""The summary of ``tools/pairs.py`` on canned benchmark results."""

import importlib.util
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


def load_pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(setup, ops, p50, rss):
    """The last line of a ``perfbench/run.py`` run, as parsed JSON."""
    values = {"setup_s": setup, "ops_per_s": ops, "op_s.p50": p50, "peak_rss_mb": rss}
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {name: {"value": v, "unit": "-"} for name, v in values.items()}}


def test_summary_takes_medians_quartiles_and_wins_over_the_pairs():
    pairs = load_pairs()
    runs = [
        (result(0.010, 10.0, 0.100, 40.0), result(0.011, 12.0, 0.090, 41.0)),
        (result(0.010, 11.0, 0.110, 40.0), result(0.009, 11.0, 0.100, 40.0)),
        (result(0.012, 9.0, 0.090, 40.0), result(0.010, 10.0, 0.095, 42.0)),
        (result(0.010, 10.0, 0.100, 40.0), result(0.010, 12.5, 0.080, 39.0)),
    ]
    table = pairs.summary([(pairs.values(p), pairs.values(c)) for p, c in runs])
    assert list(table) == ["setup_s", "ops_per_s", "op_s.p50", "peak_rss_mb"]
    p50 = table["op_s.p50"]
    assert p50["parent"] == pytest.approx(0.100) and p50["change_median"] == pytest.approx(0.0925)
    assert p50["parent_q"] == pytest.approx((0.0975, 0.1025))
    assert p50["change_q"] == pytest.approx((0.0875, 0.09625))
    assert p50["change"] == pytest.approx(-0.075)
    assert p50["wins"] == 3 and p50["pairs"] == 4  # lower is better; 0.095 against 0.090 is a loss
    ops = table["ops_per_s"]
    assert ops["wins"] == 3 and ops["change"] == pytest.approx(11.5 / 10.0 - 1)  # higher is better; a tie is no win
    assert table["setup_s"]["wins"] == 2
    assert table["peak_rss_mb"]["wins"] == 1
    lines = pairs.format_summary(table)
    assert lines[2].startswith("op_s.p50: parent 0.1 (0.0975-0.1025), change 0.0925 (0.0875-0.09625), -7.5%")
    assert lines[2].endswith("change better in 3 of 4")


def test_summary_of_one_pair_has_no_spread():
    pairs = load_pairs()
    table = pairs.summary([(pairs.values(result(1, 2, 3, 4)), pairs.values(result(1, 2, 3, 4)))])
    assert table["op_s.p50"]["parent_q"] == (3, 3) and table["op_s.p50"]["wins"] == 0


def test_clear_bytecode_deletes_every_cache(tmp_path):
    pairs = load_pairs()
    for d in ("src/pkg/__pycache__", "perfbench/__pycache__"):
        (tmp_path / d).mkdir(parents=True)
        (tmp_path / d / "m.cpython-311.pyc").write_bytes(b"")
    (tmp_path / "src/pkg/m.py").write_text("")
    pairs.clear_bytecode(tmp_path)
    assert not list(tmp_path.rglob("__pycache__")) and (tmp_path / "src/pkg/m.py").exists()
