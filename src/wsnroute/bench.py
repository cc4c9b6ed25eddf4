"""Experiment harness comparing greedy (NN) and annealed (SA) route costs.

For every seed the two algorithms see the identical generated field; costs
are geometric route lengths. Wall times cover the algorithm call only, and
NN's includes the kNN graph build it routes through when ``k`` is set.
Reports export to CSV or JSON and parse back losslessly (aggregates are
recomputed from the runs, never trusted from the file).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field

from .anneal import default_schedule, random_initial_route, sa_route, undersized_schedule
from .field import generate_uniform
from .knn import build_knn_graph
from .numtext import format_coord
from .routes import nn_route, route_length

PRESET_PAPER_BUDGET = "paper-budget"
PRESET_GENEROUS = "generous"
_PRESETS = (PRESET_PAPER_BUDGET, PRESET_GENEROUS)


@dataclass
class BenchConfig:
    n: int
    seeds: list[int]
    width: float = 20000.0
    height: float = 20000.0
    k: int | None = None
    preset: str = PRESET_PAPER_BUDGET

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"bench needs n >= 2, got {self.n}")
        if not self.seeds:
            raise ValueError("bench needs at least one seed")
        if self.k is not None and not 1 <= self.k <= self.n - 1:
            raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={self.k}, n={self.n}")
        if self.preset not in _PRESETS:
            raise ValueError(f"preset must be one of {_PRESETS}, got {self.preset!r}")


@dataclass(frozen=True)
class BenchRun:
    seed: int
    algorithm: str
    cost: float
    wall_time_s: float


@dataclass
class BenchReport:
    runs: list[BenchRun] = dc_field(default_factory=list)

    def costs(self, algorithm: str) -> dict[int, float]:
        return {r.seed: r.cost for r in self.runs if r.algorithm == algorithm}

    def mean_cost(self, algorithm: str) -> float:
        costs = [r.cost for r in self.runs if r.algorithm == algorithm]
        return sum(costs) / len(costs)

    def mean_wall_time(self, algorithm: str) -> float:
        times = [r.wall_time_s for r in self.runs if r.algorithm == algorithm]
        return sum(times) / len(times)

    def seed_ratios(self) -> dict[int, float]:
        """Per-seed SA/NN cost ratio; both runs saw the identical field."""
        nn = self.costs("NN")
        sa = self.costs("SA")
        return {seed: sa[seed] / nn[seed] for seed in nn if seed in sa}

    def mean_ratio_sa_nn(self) -> float:
        ratios = list(self.seed_ratios().values())
        return sum(ratios) / len(ratios)


def run_experiment(cfg: BenchConfig) -> BenchReport:
    """Run NN and SA once per seed on identical fields and collect costs."""
    report = BenchReport()
    for seed in cfg.seeds:
        fld = generate_uniform(cfg.n, cfg.width, cfg.height, seed)
        t0 = time.perf_counter()
        graph = None if cfg.k is None else build_knn_graph(fld, cfg.k)
        nn = nn_route(fld, 0, graph)
        nn_time = time.perf_counter() - t0
        report.runs.append(BenchRun(seed, "NN", route_length(fld, nn), nn_time))

        initial = random_initial_route(cfg.n, seed)
        if cfg.preset == PRESET_PAPER_BUDGET:
            schedule = undersized_schedule(fld, initial)
        else:
            schedule = default_schedule(fld, initial)
        t0 = time.perf_counter()
        sa = sa_route(fld, initial, schedule, seed)
        sa_time = time.perf_counter() - t0
        report.runs.append(BenchRun(seed, "SA", route_length(fld, sa), sa_time))
    return report


def export_report(report: BenchReport, output_format: str) -> str:
    """Serialize the report; CSV gets aggregate footer rows, JSON a block."""
    if output_format == "json":
        doc = {
            "runs": [
                {"seed": r.seed, "algorithm": r.algorithm, "cost": r.cost, "wall_time_s": r.wall_time_s}
                for r in report.runs
            ],
            "aggregates": {
                "mean_cost": {"NN": report.mean_cost("NN"), "SA": report.mean_cost("SA")},
                "mean_ratio_sa_nn": report.mean_ratio_sa_nn(),
            },
        }
        return json.dumps(doc, indent=2) + "\n"
    if output_format != "csv":
        raise ValueError(f"unknown report format {output_format!r}")
    lines = ["seed,algorithm,cost,wall_time_s"]
    for r in report.runs:
        lines.append(f"{r.seed},{r.algorithm},{format_coord(r.cost)},{format_coord(r.wall_time_s)}")
    for algo in ("NN", "SA"):
        lines.append(
            f"mean,{algo},{format_coord(report.mean_cost(algo))},{format_coord(report.mean_wall_time(algo))}"
        )
    lines.append(f"mean,SA/NN,{format_coord(report.mean_ratio_sa_nn())},")
    return "\n".join(lines) + "\n"


def parse_report(text: str, output_format: str) -> BenchReport:
    """Inverse of export_report; aggregate rows are dropped and re-derived."""
    report = BenchReport()
    if output_format == "json":
        doc = json.loads(text)
        for row in doc["runs"]:
            report.runs.append(
                BenchRun(int(row["seed"]), str(row["algorithm"]), float(row["cost"]), float(row["wall_time_s"]))
            )
        return report
    if output_format != "csv":
        raise ValueError(f"unknown report format {output_format!r}")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "seed,algorithm,cost,wall_time_s":
        raise ValueError("missing or unexpected CSV header")
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != 4:
            raise ValueError(f"expected 4 CSV cells, got {ln!r}")
        if cells[0] == "mean":
            continue
        report.runs.append(BenchRun(int(cells[0]), cells[1], float(cells[2]), float(cells[3])))
    return report

