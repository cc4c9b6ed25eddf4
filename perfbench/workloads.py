"""The benchmark's three workloads: inputs, CLI calls and per-op checks.

Each op goes through ``wsnroute.cli.main(argv)`` only, so a later change can
swap an implementation behind the CLI and show its gain here unchanged. Op
seeds are ``base + i``, so no two ops of a run see the same field; ``n`` is
the workload's own except in the warm-up, which runs tiny fields. Checks run
outside the timed region and raise :class:`CheckFailed`; on success they
return the op's derived counts, taken from the outputs, not from the
program's own reporting.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from wsnroute.anneal import undersized_schedule
from wsnroute.bench import parse_report, random_initial_route
from wsnroute.field import distances_from, generate_uniform, parse_dataset, write_dataset
from wsnroute.routes import Route, route_length

SIDE = 20000.0
# NN route length at n=2000 on the 20000^2 field, as the acceptance gate pins it.
NN_REFERENCE = 730231.4981
SAMPLES = 20


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def sa_proposals(schedule) -> int:
    """Proposals sa_route makes: min(max_iters, levels above min_temp * iters_per_temp)."""
    levels = 0
    temp = schedule.initial_temp
    while temp >= schedule.min_temp:
        temp *= schedule.cooling_factor
        levels += 1
    return min(schedule.max_iters, levels * schedule.iters_per_temp)


class PaperSweep:
    """The paper's NN-vs-SA experiment at the acceptance gate's size (SA dominates)."""

    name = "paper-sweep"
    n = 2000

    def prepare(self, seed: int, d: Path, n: int) -> None:
        pass

    def argvs(self, seed: int, d: Path, n: int) -> list[list[str]]:
        return [["bench", "--n", str(n), "--seeds", f"{seed}..{seed}", "--paper-budget",
                 "--format", "csv", "--output", str(d / "report.csv")]]

    def check(self, seed: int, d: Path, stdout: str) -> dict[str, float]:
        report = parse_report((d / "report.csv").read_text(encoding="utf-8"), "csv")
        costs = {(r.seed, r.algorithm): r.cost for r in report.runs}
        _require(set(costs) == {(seed, "NN"), (seed, "SA")}, f"report rows {sorted(costs)}")
        nn, sa = costs[(seed, "NN")], costs[(seed, "SA")]
        _require(sa / nn > 1.0, f"SA/NN = {sa / nn} is not > 1")
        _require(0.5 * NN_REFERENCE <= nn <= 2.0 * NN_REFERENCE, f"NN cost {nn} far from {NN_REFERENCE}")
        fld = generate_uniform(self.n, SIDE, SIDE, seed)
        initial = random_initial_route(self.n, seed)
        _require(sa <= route_length(fld, initial), "SA cost exceeds its initial route")
        return {"anneal.proposals": sa_proposals(undersized_schedule(fld, initial))}


class KnnPipeline:
    """gen -> knn -> nn on one n=5000 field: dataset I/O, the kNN build and one large route."""

    name = "knn-pipeline"
    n = 5000
    k = 10

    def prepare(self, seed: int, d: Path, n: int) -> None:
        pass

    def argvs(self, seed: int, d: Path, n: int) -> list[list[str]]:
        f = str(d / "field.txt")
        return [
            ["gen", "--n", str(n), "--seed", str(seed), "--output", f],
            ["knn", "--input", f, "--k", str(self.k), "--chunk-size", "256", "--output", str(d / "graph.txt")],
            ["nn", "--input", f, "--output", str(d / "route.txt")],
        ]

    def check(self, seed: int, d: Path, stdout: str) -> dict[str, float]:
        n, k = self.n, self.k
        field_path = d / "field.txt"
        parsed = parse_dataset(field_path.read_text(encoding="utf-8"))
        xy = generate_uniform(n, SIDE, SIDE, seed).coords
        _require(np.array_equal(parsed.coords, xy), "dataset does not round-trip the generated field")
        rng = np.random.Generator(np.random.PCG64(seed))

        graph_path = d / "graph.txt"
        lines = graph_path.read_text(encoding="utf-8").splitlines()
        _require(len(lines) == n * k, f"graph has {len(lines)} lines, expected {n * k}")
        for row in rng.choice(n, SAMPLES, replace=False).tolist():
            dist = distances_from(xy, row)
            dist[row] = np.inf
            expect = np.argsort(dist, kind="stable")[:k]  # lowest index wins ties
            got = [ln.split() for ln in lines[row * k:(row + 1) * k]]
            _require(all(int(s) == row for s, _, _ in got), f"graph rows out of place at {row}")
            _require([int(t) for _, t, _ in got] == expect.tolist(), f"wrong neighbours of {row}")
            _require([float(w) for _, _, w in got] == dist[expect].tolist(), f"wrong weights of {row}")

        order = [int(v) for v in (d / "route.txt").read_text(encoding="utf-8").split()]
        _require(sorted(order) == list(range(n)), "route is not a permutation")
        printed = stdout.splitlines()
        _require(len(printed) == 1 and float(printed[0]) == route_length(parsed, Route(order)),
                 f"printed length {printed!r} differs from route_length")
        for p in rng.choice(n - 1, SAMPLES, replace=False).tolist():
            dist = distances_from(xy, order[p])
            dist[order[:p + 1]] = np.inf
            _require(int(np.argmin(dist)) == order[p + 1], f"route step {p} is not to the nearest unvisited node")
        return {
            "knn.edges": len(lines),
            "knn.dump_bytes": graph_path.stat().st_size,
            # written once by gen, parsed once each by knn and nn
            "field.bytes": 3 * field_path.stat().st_size,
        }


class LifetimeRotate:
    """50 rotate-start rounds on one n=2000 field: the greedy route rebuilt every round."""

    name = "lifetime-rotate"
    n = 2000
    rounds = 50
    # The default 0.5 J battery kills a node in round 1, which would leave
    # nothing to measure; at 1e4 J all 50 rounds complete.
    battery_j = 1e4

    def prepare(self, seed: int, d: Path, n: int) -> None:
        (d / "field.txt").write_text(write_dataset(generate_uniform(n, SIDE, SIDE, seed)), encoding="utf-8")
        (d / "params.cfg").write_text(f"initial_battery_j={self.battery_j!r}\n", encoding="utf-8")

    def argvs(self, seed: int, d: Path, n: int) -> list[list[str]]:
        return [["simulate", "--input", str(d / "field.txt"), "--rounds", str(self.rounds),
                 "--policy", "rotate-start", "--config", str(d / "params.cfg"),
                 "--format", "json", "--output", str(d / "report.json")]]

    def check(self, seed: int, d: Path, stdout: str) -> dict[str, float]:
        doc = json.loads((d / "report.json").read_text(encoding="utf-8"))
        _require(doc["rounds_completed"] == self.rounds, f"{doc['rounds_completed']} rounds completed")
        _require(doc["first_death_round"] is None, f"a node died in round {doc['first_death_round']}")
        _require(doc["deadline_violations"] == 0, f"{doc['deadline_violations']} deadline violations")
        residual = doc["per_node_residual"]
        _require(len(residual) == self.n, f"{len(residual)} residuals for {self.n} nodes")
        spent = math.fsum(self.battery_j - r for r in residual)
        _require(math.isclose(doc["total_energy_j"], spent, rel_tol=1e-9),
                 f"total_energy_j {doc['total_energy_j']} != spent {spent}")
        return {"field.bytes": (d / "field.txt").stat().st_size, "lifetime.rounds": doc["rounds_completed"]}


WORKLOADS = {w.name: w for w in (PaperSweep(), KnnPipeline(), LifetimeRotate())}
