"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/pairs.py PARENT CHANGE --workload knn-pipeline --pairs 10 --seed 83 --seconds 30
    python3 tools/pairs.py PARENT CHANGE --workload all --pairs 5

``--workload`` is one workload, a comma list of them, or ``all``: every
workload of the change's ``BENCHMARK.json``, in its order. Each pair runs
``perfbench/run.py --workload W --seed S --seconds T`` once in each
checkout, each in its own process, with the benchmark of that checkout.
The order alternates: the parent runs first in even pairs, the change in odd
ones, so a host that speeds up or slows down over the session favours
neither side. Bytecode caches (``__pycache__``) are deleted in both
checkouts before the first run, since ``setup_s`` times a fresh import that
is faster with them. Each pair's four end-to-end metrics are printed as it
finishes. After each workload's pairs come, per metric, the medians and
quartiles of both sides, the change's median against the parent's, and the
pairs in which the change is better; a metric whose median is worse than
the parent's by more than its ``BENCHMARK.json`` bound is flagged. The exit
code is 1 if an op failed in any run or any metric was flagged.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# The end-to-end metrics of BENCHMARK.json, and whether a lower value is better.
METRICS = {"setup_s": True, "ops_per_s": False, "op_s.p50": True, "peak_rss_mb": True}


def clear_bytecode(root: Path) -> None:
    """Delete every ``__pycache__`` directory under ``root``."""
    for cache in sorted(root.rglob("__pycache__"), reverse=True):
        shutil.rmtree(cache, ignore_errors=True)


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in ``root``: its last output line, the result object."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=root, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"no output from {root}: {out.stderr.strip()}")
    return json.loads(lines[-1])


def values(result: dict) -> dict[str, float]:
    return {name: result["metrics"][name]["value"] for name in METRICS}


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summary(pairs: list[tuple[dict[str, float], dict[str, float]]]) -> dict[str, dict]:
    """Per metric over (parent, change) pairs: medians, quartiles, relative change and wins.

    ``wins`` counts the pairs in which the change's value is better: lower,
    or higher for ``ops_per_s``. ``change`` is the change's median over the
    parent's, minus 1.
    """
    out = {}
    for name, lower in METRICS.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pm, cm = statistics.median(parent), statistics.median(change)
        out[name] = {"parent": pm, "parent_q": _quartiles(parent), "change_median": cm,
                     "change_q": _quartiles(change), "change": cm / pm - 1.0, "wins": wins,
                     "pairs": len(pairs)}
    return out


def benchmark(root: Path) -> tuple[list[str], dict[str, float]]:
    """The workload names of ``root``'s ``BENCHMARK.json``, and each end-to-end metric's bound."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], {m["name"]: m["bound"] for m in spec["end_to_end"]}


def over_bound(table: dict[str, dict], bounds: dict[str, float]) -> list[str]:
    """The metrics whose change median is worse than the parent's by more than their bound, relative."""
    return [name for name, s in table.items() if (s["change"] if METRICS[name] else -s["change"]) > bounds[name]]


def format_summary(table: dict[str, dict], bounds: dict[str, float] | None = None) -> list[str]:
    flagged = over_bound(table, bounds) if bounds else []
    lines = []
    for name, s in table.items():
        lines.append(f"{name}: parent {s['parent']:.6g} ({s['parent_q'][0]:.6g}-{s['parent_q'][1]:.6g}), "
                     f"change {s['change_median']:.6g} ({s['change_q'][0]:.6g}-{s['change_q'][1]:.6g}), "
                     f"{s['change']:+.1%}, change better in {s['wins']} of {s['pairs']}"
                     + (f", WORSE THAN ITS BOUND OF {bounds[name]:.0%}" if name in flagged else ""))
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, help="a workload, a comma list of them, or all")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    ap.add_argument("--seed", type=int, default=1, help="base op seed of every run")
    ap.add_argument("--seconds", type=int, default=30, help="measuring time of one run")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names, bounds = benchmark(roots["change"])
    workloads = names if args.workload == "all" else args.workload.split(",")
    if set(workloads) - set(names):
        ap.error(f"unknown workload in {args.workload!r}; the workloads are {', '.join(names)}")
    for root in roots.values():
        clear_bytecode(root)
    bad = False
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {}
            for side in sides:
                result = run(roots[side], workload, args.seed, args.seconds)
                bad |= result["failed"] > 0 or not result["correct"]
                got[side] = values(result)
            pairs.append((got["parent"], got["change"]))
            print(f"{workload} pair {i + 1} ({sides[0]} first): " + ", ".join(
                f"{name} {got['parent'][name]:.6g} -> {got['change'][name]:.6g}" for name in METRICS), flush=True)
        table = summary(pairs)
        bad |= bool(over_bound(table, bounds))
        print("\n".join([f"== {workload}, {args.pairs} pairs"] + format_summary(table, bounds)), flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
