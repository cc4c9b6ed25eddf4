"""Benchmark harness and report format tests."""

import time

import pytest

import wsnroute.bench as bench
from wsnroute import (
    BenchConfig,
    BenchReport,
    BenchRun,
    export_report,
    generate_uniform,
    nn_route,
    parse_report,
    route_length,
    run_experiment,
)


def small_report():
    return BenchReport(
        runs=[
            BenchRun(1, "NN", 123.456789123, 0.0125),
            BenchRun(1, "SA", 150.0, 0.5),
            BenchRun(2, "NN", 100.0, 0.011),
            BenchRun(2, "SA", 130.5, 0.48),
        ]
    )


def test_config_validation():
    BenchConfig(n=2, seeds=[1])
    with pytest.raises(ValueError):
        BenchConfig(n=1, seeds=[1])
    with pytest.raises(ValueError):
        BenchConfig(n=10, seeds=[])
    with pytest.raises(ValueError):
        BenchConfig(n=10, seeds=[1], preset="lavish")
    with pytest.raises(ValueError):
        export_report(small_report(), "xml")


@pytest.mark.parametrize("k", [0, 10])
def test_config_rejects_k_outside_one_to_n_minus_one(k):
    BenchConfig(n=10, seeds=[1], k=9)
    with pytest.raises(ValueError, match="1 <= k <= n-1"):
        BenchConfig(n=10, seeds=[1], k=k)


def test_run_experiment_structure_and_paired_fairness():
    cfg = BenchConfig(n=40, seeds=[5], width=500, height=500)
    report = run_experiment(cfg)
    assert [r.algorithm for r in report.runs] == ["NN", "SA"]
    assert all(r.cost > 0 for r in report.runs)
    assert all(r.wall_time_s >= 0 for r in report.runs)
    # fairness: the NN cost is exactly the greedy route on the same field
    f = generate_uniform(40, 500, 500, 5)
    assert report.costs("NN")[5] == route_length(f, nn_route(f, 0))


def test_run_experiment_with_graph_backed_nn():
    cfg = BenchConfig(n=40, seeds=[5], width=500, height=500, k=6)
    plain = run_experiment(BenchConfig(n=40, seeds=[5], width=500, height=500))
    backed = run_experiment(cfg)
    assert backed.costs("NN") == plain.costs("NN")


def test_nn_wall_time_includes_knn_build(monkeypatch):
    real_build = bench.build_knn_graph

    def slow_build(*args, **kwargs):
        time.sleep(0.05)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(bench, "build_knn_graph", slow_build)
    report = run_experiment(BenchConfig(n=20, seeds=[5], width=500, height=500, k=4))
    nn_run = report.runs[0]
    assert nn_run.algorithm == "NN" and nn_run.wall_time_s >= 0.05


def test_aggregates_are_paired_ratios():
    report = small_report()
    assert report.mean_cost("NN") == pytest.approx((123.456789123 + 100.0) / 2)
    want = (150.0 / 123.456789123 + 130.5 / 100.0) / 2
    assert report.mean_ratio_sa_nn() == pytest.approx(want, rel=1e-12)


def test_csv_export_structure():
    text = export_report(small_report(), "csv")
    lines = text.splitlines()
    assert lines[0] == "seed,algorithm,cost,wall_time_s"
    data = [ln for ln in lines[1:] if not ln.startswith("mean,")]
    footer = [ln for ln in lines[1:] if ln.startswith("mean,")]
    assert len(data) == 4
    assert len(footer) == 3
    assert "123.456789123" in text  # at least 6 significant digits survive


def test_csv_roundtrip():
    report = small_report()
    assert parse_report(export_report(report, "csv"), "csv") == report


def test_json_roundtrip():
    report = small_report()
    assert parse_report(export_report(report, "json"), "json") == report


def test_csv_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_report("not,a,header\n", "csv")
    with pytest.raises(ValueError):
        parse_report("seed,algorithm,cost,wall_time_s\n1,NN,2\n", "csv")

