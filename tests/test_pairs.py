"""The summary of ``tools/pairs.py`` on canned benchmark results."""

import importlib.util
import json
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


def write_benchmark(root, workloads):
    root.mkdir()
    spec = {"workloads": [{"name": w} for w in workloads],
            "end_to_end": [{"name": "setup_s", "bound": 0.25}, {"name": "ops_per_s", "bound": 0.2},
                           {"name": "op_s.p50", "bound": 0.2}, {"name": "peak_rss_mb", "bound": 0.1}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))


def test_over_bound_flags_a_median_worse_than_its_bound():
    pairs = load_pairs()
    bounds = {"setup_s": 0.25, "ops_per_s": 0.2, "op_s.p50": 0.2, "peak_rss_mb": 0.1}
    # setup_s 26% slower, ops_per_s 21% fewer: both past their bounds. op_s.p50
    # 19% slower and peak_rss_mb 50% lower are not.
    table = pairs.summary([(pairs.values(result(0.100, 10.0, 0.100, 40.0)),
                            pairs.values(result(0.126, 7.9, 0.119, 20.0)))])
    assert pairs.over_bound(table, bounds) == ["setup_s", "ops_per_s"]
    lines = pairs.format_summary(table, bounds)
    assert lines[0].endswith("WORSE THAN ITS BOUND OF 25%") and lines[1].endswith("WORSE THAN ITS BOUND OF 20%")
    assert lines[2].endswith("change better in 0 of 1") and lines[3].endswith("change better in 1 of 1")


def test_main_runs_every_workload_and_prints_one_summary_each(tmp_path, monkeypatch, capsys):
    pairs = load_pairs()
    write_benchmark(tmp_path / "parent", ["a", "b", "c"])
    write_benchmark(tmp_path / "change", ["a", "b", "c"])
    runs = []

    def canned(root, workload, seed, seconds):
        runs.append((root.name, workload))
        slow = root.name == "change" and workload == "b"  # b's op is 30% slower in the change
        return result(0.010, 10.0, 0.130 if slow else 0.100, 40.0)

    monkeypatch.setattr(pairs, "run", canned)
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "all", "--pairs", "2"]) == 1
    # Each workload's pairs run in turn, the parent first in even pairs.
    assert runs == [(side, w) for w in "abc" for side in ("parent", "change", "change", "parent")]
    out = capsys.readouterr().out.splitlines()
    heads = [i for i, line in enumerate(out) if line.startswith("== ")]
    assert [out[i] for i in heads] == ["== a, 2 pairs", "== b, 2 pairs", "== c, 2 pairs"]
    flagged = [line.split(":")[0] for line in out if "WORSE THAN" in line]
    assert flagged == ["op_s.p50"] and "WORSE THAN" in out[heads[1] + 3]
    runs.clear()
    assert pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "c,a", "--pairs", "1"]) == 0
    assert runs == [("parent", "c"), ("change", "c"), ("parent", "a"), ("change", "a")]
    with pytest.raises(SystemExit):
        pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "a,d"])
