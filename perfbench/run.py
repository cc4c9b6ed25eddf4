"""wsnroute benchmark: run one workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

Ops run in this process through ``wsnroute.cli.main(argv)``, one after
another, for ``--seconds`` seconds. The program is imported from ``src/`` of
the checkout this file sits in; nothing needs installing. ``--trace 0``
reports the end-to-end metrics, with times scaled to a reference host speed
(see hostspeed.py), ``--trace 1`` the per-layer ones, in wall time. The last
line of standard output is one JSON object; the full result, with the run's
metadata and, when traced, every span, goes to ``.perfbench/``. The exit
code is 0 only when every op passed its correctness check. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_PROBE_S, Sampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# The import is timed in fresh interpreters that have imported numpy before
# the clock starts. On a VM, numpy's import alone swung between about 0.06 and
# 0.15 s from one burst of interpreters to the next, with how recently memory
# was freed, and would drown the program's own 0.04 s. The interpreter probes
# the host itself, since it may run on another vCPU than this process. The
# imports are spread over the run (one after each of the first ops) and their
# median is taken.
IMPORT_REPEATS = 15
IMPORT_SNIPPET = (
    "import sys, time; import numpy; sys.path[:0] = ['src', 'perfbench']; from hostspeed import probe; "
    "[probe() for _ in range(8)]; before = probe(); t = time.perf_counter(); import wsnroute.cli; "
    "wall = time.perf_counter() - t; print(wall, (before + probe()) / 2)"
)
# CPython 3.11 specialises a function's bytecode from its 8th call on. Without
# a warm-up, a function called once per op, such as sa_route, runs
# unspecialised for the first 7 ops and about 25% faster after, and a run's
# median flips between the two speeds. The warm-up makes every timed op run
# specialised, as in a long-lived process; tiny fields keep it cheap.
WARMUP_CALLS = 8
WARMUP_N = 20


def import_seconds() -> tuple[float, float]:
    """(wall, scaled) seconds to import wsnroute.cli in a fresh interpreter, numpy already loaded."""
    child = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, capture_output=True,
                           text=True, timeout=120, check=True)
    wall, probe_s = map(float, child.stdout.split())
    return wall, wall * REFERENCE_PROBE_S / probe_s


def run_op(cli, argvs: list[list[str]], tracing) -> tuple[float, str, str | None]:
    """Run one op's CLI calls; returns (wall seconds, captured stdout, error or None)."""
    out = io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with tracing, redirect_stdout(out):
            for argv in argvs:
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
                if rc != 0:
                    error = f"`{' '.join(argv)}` exited with {rc}"
                    break
    except Exception:
        error = traceback.format_exc()
    return perf_counter() - t0, out.getvalue(), error


def git_sha() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return head.stdout.strip() if head.returncode == 0 else "unknown"


def src_digest() -> str:
    """sha256 of the program's sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "wsnroute").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def layer_metrics(totals, counts: Counter, ops: int, n: int, overhead: float) -> dict[str, tuple]:
    """Per-layer metrics over the traced ops: name -> (value, unit, base).

    Times are self seconds per traced op and counts are per traced op, so a
    run's figures do not depend on how many ops fit in it. Rates divide a
    count by the time of the span that did the work; ``base`` says which.
    """
    def self_s(span):
        return totals[span]["self_s"]

    def per_op(value, unit):
        return value / ops, unit, f"per op, {ops} traced ops"

    def rate(count, seconds, what):
        return count / seconds if seconds > 0 else 0.0, "1/s", f"{count:g} {what} / {seconds:.6g} s"

    nn_nodes = totals["routes.nn"]["calls"] * n
    return {
        "anneal.sa_s": per_op(self_s("anneal.sa"), "s"),
        "anneal.proposals": per_op(counts["anneal.proposals"], "count"),
        "anneal.proposals_per_s": rate(counts["anneal.proposals"], self_s("anneal.sa"), "proposals"),
        "knn.build_s": per_op(self_s("knn.build"), "s"),
        "knn.edges": per_op(counts["knn.edges"], "count"),
        "knn.edges_per_s": rate(counts["knn.edges"], self_s("knn.build"), "edges"),
        "knn.dump_s": per_op(self_s("knn.dump"), "s"),
        "knn.dump_bytes": per_op(counts["knn.dump_bytes"], "B"),
        "routes.nn_s": per_op(self_s("routes.nn"), "s"),
        "routes.nn_calls": per_op(totals["routes.nn"]["calls"], "count"),
        "routes.nn_nodes_per_s": rate(nn_nodes, self_s("routes.nn"), "route nodes"),
        "routes.length_s": per_op(self_s("routes.length"), "s"),
        "routes.dump_s": per_op(self_s("routes.dump"), "s"),
        "field.generate_s": per_op(self_s("field.generate"), "s"),
        "field.write_s": per_op(self_s("field.write"), "s"),
        "field.parse_s": per_op(self_s("field.parse"), "s"),
        "field.bytes": per_op(counts["field.bytes"], "B"),
        "lifetime.self_s": per_op(self_s("lifetime.simulate"), "s"),
        "lifetime.check_delay_s": per_op(self_s("lifetime.check_delay"), "s"),
        "lifetime.rounds": per_op(counts["lifetime.rounds"], "count"),
        "lifetime.rounds_per_s": rate(counts["lifetime.rounds"], totals["lifetime.simulate"]["total_s"],
                                      "rounds"),
        "bench.self_s": per_op(self_s("bench.run"), "s"),
        "bench.export_s": per_op(self_s("bench.export"), "s"),
        "cli.self_s": per_op(self_s("cli.main"), "s"),
        "trace.overhead_ratio": (overhead, "1", "traced ops/s over untraced ops/s in this run"),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    import numpy
    import wsnroute.cli as cli
    from spans import Recorder
    from workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[name]
    recorder = Recorder()
    if trace:
        gone = recorder.missing()
        if gone:
            print(f"missing trace boundaries: {', '.join(gone)}", file=sys.stderr)
            return 3

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    import_times: list[tuple[float, float]] = []  # (wall, scaled)
    prep_times: list[tuple[float, float]] = []
    ops: list[tuple[float, float, bool, bool]] = []  # (wall seconds, scaled seconds, passed, traced)
    counts: Counter = Counter()
    try:
        for i in range(WARMUP_CALLS):
            d = work / f"warmup{i}"
            d.mkdir()
            wl.prepare(i, d, WARMUP_N)
            with Sampler():  # also warms the probe up
                error = run_op(cli, wl.argvs(i, d, WARMUP_N), nullcontext())[2]
            if error is not None:
                print(f"warm-up call {i} failed: {error}", file=sys.stderr)
        deadline = perf_counter() + seconds
        # A traced run alternates traced and untraced ops, so it needs two.
        while len(ops) < 1 + trace or perf_counter() < deadline:
            i = len(ops)
            op_seed = seed + i
            d = work / f"op{i}"
            d.mkdir()
            with Sampler(during=False) as host:
                t0 = perf_counter()
                wl.prepare(op_seed, d, wl.n)
                dt = perf_counter() - t0
            prep_times.append((dt, host.scale(dt)))
            traced = trace and i % 2 == 0
            # Per-layer times stay wall times: the sampler's alarms would land in the spans.
            tracing = recorder.recording(i) if traced else nullcontext()
            host = Sampler(during=not trace)
            with host:
                dt, stdout, error = run_op(cli, wl.argvs(op_seed, d, wl.n), tracing)
            scaled = host.scale(dt)
            if error is None:
                try:
                    op_counts = wl.check(op_seed, d, stdout)
                except CheckFailed as exc:
                    error = f"check failed: {exc}"
                except Exception:
                    error = "check raised on the op's output:\n" + traceback.format_exc()
            if error is None and traced:
                counts.update(op_counts)
            if error is not None:
                print(f"op {i} (seed {op_seed}) failed: {error}", file=sys.stderr)
            ops.append((dt, scaled, error is None, traced))
            shutil.rmtree(d)
            if not trace and len(import_times) < IMPORT_REPEATS:
                # The deadline moves so that the imports take no time from the ops.
                t0 = perf_counter()
                import_times.append(import_seconds())
                deadline += perf_counter() - t0
        while not trace and len(import_times) < IMPORT_REPEATS:
            import_times.append(import_seconds())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    passed = [scaled for _, scaled, ok, _ in ops if ok]
    meta = {
        "git_sha": git_sha(), "src_sha256": src_digest(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__, "workload": name,
        "seed": seed, "seconds": seconds, "trace": int(trace), "ops": attempted,
        "traced_ops": sum(1 for *_, t in ops if t), "reference_probe_s": REFERENCE_PROBE_S,
    }
    if trace:
        def ops_per_s(which):
            sel = [(dt, ok) for dt, _, ok, t in ops if t == which]
            return sum(ok for _, ok in sel) / sum(dt for dt, _ in sel)

        rows = layer_metrics(recorder.totals(), counts, meta["traced_ops"], wl.n,
                             ops_per_s(True) / ops_per_s(False))
    else:
        def median(pairs, k):
            return statistics.median(pair[k] for pair in pairs)

        import_s, prep_s = median(import_times, 1), median(prep_times, 1)
        timed_s = sum(scaled for _, scaled, *_ in ops)
        rows = {
            "setup_s": (import_s + prep_s, "s", f"import {import_s:.6g} s (median of {len(import_times)}) + "
                                                f"per-op inputs {prep_s:.6g} s (median of {attempted}), scaled"),
            "ops_per_s": (len(passed) / timed_s, "1/s", f"{len(passed)} passed ops / {timed_s:.6g} s, scaled"),
            "op_s.p50": (statistics.median(passed) if passed else 0.0, "s", f"{len(passed)} samples, scaled"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB", "ru_maxrss"),
        }
    failed = attempted - len(passed)
    # Printed, not gated: see README.md.
    print(f"failed_ratio = {failed / attempted:.6g} 1  ({failed} / {attempted} ops)")
    if not trace:
        wall = [dt for dt, _, ok, _ in ops if ok]
        wall_s = sum(dt for dt, *_ in ops)
        print(f"wall.setup_s = {median(import_times, 0) + median(prep_times, 0):.6g} s")
        print(f"wall.ops_per_s = {len(wall) / wall_s:.6g} 1/s  ({len(wall)} passed ops / {wall_s:.6g} s)")
        if wall:
            print(f"wall.op_s.p50 = {statistics.median(wall):.6g} s  ({len(wall)} samples)")
        if len(passed) >= 100:
            # only with at least ten samples beyond it
            print(f"op_s.p90 = {statistics.quantiles(passed, n=10)[-1]:.6g} s  ({len(passed)} samples, scaled)")

    for key, (value, unit, base) in rows.items():
        print(f"{key} = {value:.6g} {unit}" + (f"  ({base})" if base else ""))
    print("meta: " + json.dumps(meta))
    metrics = {key: {"value": value, "unit": unit} for key, (value, unit, _) in rows.items()}
    record = {"meta": meta, "metrics": metrics, "failed": failed, "ops": ops}
    if trace:
        record["spans"] = recorder.spans
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record) + "\n", encoding="utf-8")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(names, seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in a fresh process, one at a time."""
    attempted = failed = 0
    metrics = {}
    status = 0
    for name in names:
        for trace in (0, 1):
            print(f"== {name} trace={trace}", flush=True)
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + 170)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0 or not lines:
                status = 1
            if not lines:
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}/{key}": m for key, m in result["metrics"].items()})
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="paper-sweep, knn-pipeline, lifetime-rotate or all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"base op seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                    help=f"measuring time per run (default {DEFAULT_SECONDS})")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (SRC / "wsnroute" / "__init__.py").is_file():
        print(f"error: no wsnroute sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
