"""Command-line front door: gen, knn, nn, sa, simulate, bench.

Every output is plain text so artifacts diff cleanly in scripts and CI.
Exit codes: 0 success, 1 usage error, 2 runtime error (bad input file,
constraint violation). Identical argv and seed reproduce byte-identical
primary outputs; wall-time fields are exempt.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .anneal import AnnealSchedule, default_schedule, sa_route, undersized_schedule
from .bench import (
    BenchConfig,
    export_report,
    random_initial_route,
    run_experiment,
)
from .energy import DeadNodeError, EnergyConfig, parse_config
from .field import DatasetError, SensorField, generate_uniform, parse_dataset, write_dataset
from .knn import build_knn_graph, dump_graph
from .lifetime import simulate_lifetime
from .routes import Route, dump_route, nn_route, route_length


class CliParser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, default=None, help="number of nodes to generate")
    p.add_argument("--width", type=float, default=None, help="field width (default 20000)")
    p.add_argument("--height", type=float, default=None, help="field height (default 20000)")
    p.add_argument("--seed", type=int, default=None, help="generation seed (default 0)")
    p.add_argument("--input", default=None, help="read the field from a dataset file instead")


def _resolve_field(args, parser: argparse.ArgumentParser) -> SensorField:
    gen_flags = [args.n, args.width, args.height, args.seed]
    if args.input is not None:
        if any(v is not None for v in gen_flags):
            parser.error("--input and generation flags (--n/--width/--height/--seed) are mutually exclusive")
        return parse_dataset(Path(args.input).read_text(encoding="utf-8"))
    if args.n is None:
        parser.error("one of --input or --n is required")
    return generate_uniform(
        args.n,
        args.width if args.width is not None else 20000.0,
        args.height if args.height is not None else 20000.0,
        args.seed if args.seed is not None else 0,
    )


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _parse_seeds(text: str, parser: argparse.ArgumentParser) -> list[int]:
    """Seed list syntax: '1..10' (inclusive range) or '1,2,5'.

    Text that is neither, or that names no seed (such as '5..1'), is a
    usage error.
    """
    text = text.strip()
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        parser.error(f"--seeds {text!r} names no seed; expected 'A..B' with A <= B or a comma list")
    return seeds


def _schedule_from_args(args, fld: SensorField, initial: Route) -> AnnealSchedule:
    if args.paper_budget:
        base = undersized_schedule(fld, initial)
    else:
        base = default_schedule(fld, initial)
    overrides = {
        "initial_temp": args.sa_initial_temp,
        "cooling_factor": args.sa_cooling,
        "iters_per_temp": args.sa_iters_per_temp,
        "min_temp": args.sa_min_temp,
        "max_iters": args.sa_max_iters,
        "move_kind": args.sa_move,
    }
    changed = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(base, **changed)


def build_parser() -> CliParser:
    parser = CliParser(prog="wsnroute", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset file")
    _add_field_args(p)
    p.add_argument("--output", default=None, help="dataset path (default: stdout)")

    p = sub.add_parser("knn", help="build the kNN graph and dump its edges")
    _add_field_args(p)
    p.add_argument("--k", type=int, required=True, help="neighbors per node")
    p.add_argument("--chunk-size", type=int, default=64, help="most query rows in one distance tile")
    p.add_argument("--output", default=None, help="graph dump path (default: stdout)")

    p = sub.add_parser("nn", help="build the greedy route; prints its length")
    _add_field_args(p)
    p.add_argument("--start", type=int, default=0, help="start node (default 0)")
    p.add_argument("--closed", action="store_true", help="close the route back to the start")
    p.add_argument("--output", default=None, help="route dump path (default: append to stdout)")

    p = sub.add_parser("sa", help="anneal a route; prints its length")
    _add_field_args(p)
    p.add_argument("--start", type=int, default=0, help="start node for --sa-init nn")
    p.add_argument("--closed", action="store_true", help="close the route back to the start")
    p.add_argument("--sa-init", choices=("random", "nn"), default="random", help="initial route")
    p.add_argument("--sa-seed", type=int, default=None,
                   help="anneal seed (defaults to --seed; needed with --input)")
    p.add_argument("--paper-budget", action="store_true", help="use the undersized budget preset")
    p.add_argument("--sa-initial-temp", type=float, default=None)
    p.add_argument("--sa-cooling", type=float, default=None)
    p.add_argument("--sa-iters-per-temp", type=int, default=None)
    p.add_argument("--sa-min-temp", type=float, default=None)
    p.add_argument("--sa-max-iters", type=int, default=None)
    p.add_argument("--sa-move", choices=("swap", "two_opt_reverse"), default=None)
    p.add_argument("--output", default=None, help="route dump path (default: append to stdout)")

    p = sub.add_parser("simulate", help="run the lifetime simulation")
    _add_field_args(p)
    p.add_argument("--rounds", type=int, required=True, help="maximum rounds to simulate")
    p.add_argument("--policy", choices=("fixed-route", "rotate-start"), default="fixed-route")
    p.add_argument("--start", type=int, default=None,
                   help="start node for the fixed route (default 0); rotate-start takes none")
    p.add_argument("--config", default=None, help="key=value parameter file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="report path (default: stdout)")

    p = sub.add_parser("bench", help="compare NN and SA over a seed sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--width", type=float, default=20000.0)
    p.add_argument("--height", type=float, default=20000.0)
    p.add_argument("--seeds", required=True, help="'1..10' or comma list")
    p.add_argument("--k", type=int, default=None, help="route via a kNN graph of this k")
    p.add_argument("--preset", choices=("paper-budget", "generous"), default="paper-budget")
    p.add_argument("--paper-budget", action="store_true", help="alias for --preset paper-budget")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="report path (default: stdout)")

    return parser


def _cmd_gen(args, parser) -> int:
    fld = _resolve_field(args, parser)
    _emit(write_dataset(fld), args.output)
    return 0


def _cmd_knn(args, parser) -> int:
    fld = _resolve_field(args, parser)
    graph = build_knn_graph(fld, args.k, args.chunk_size)
    _emit(dump_graph(graph), args.output)
    return 0


def _cmd_nn(args, parser) -> int:
    fld = _resolve_field(args, parser)
    route = nn_route(fld, args.start)
    if args.closed:
        route = Route(order=route.order, closed=True)
    print(format_length(route_length(fld, route)))
    _emit(dump_route(route), args.output)
    return 0


def _cmd_sa(args, parser) -> int:
    fld = _resolve_field(args, parser)
    seed = args.sa_seed if args.sa_seed is not None else (args.seed if args.seed is not None else 0)
    if args.sa_init == "nn":
        initial = nn_route(fld, args.start)
    else:
        initial = random_initial_route(len(fld), seed)
    if args.closed:
        initial = Route(order=initial.order, closed=True)
    schedule = _schedule_from_args(args, fld, initial)
    route = sa_route(fld, initial, schedule, seed)
    print(format_length(route_length(fld, route)))
    _emit(dump_route(route), args.output)
    return 0


def _cmd_simulate(args, parser) -> int:
    if args.policy == "rotate-start" and args.start is not None:
        parser.error("--start applies to --policy fixed-route only; "
                     "rotate-start starts round r at node r mod n")
    fld = _resolve_field(args, parser)
    cfg = parse_config(Path(args.config).read_text(encoding="utf-8")) if args.config else EnergyConfig()
    route = None if args.start is None else nn_route(fld, args.start)
    report = simulate_lifetime(fld, args.policy, cfg, args.rounds, route=route)
    if report.rounds_completed == 0 and report.first_death_round == 1:
        print(f"warning: no round completed; nodes ran out of energy in round 1 on the "
              f"{cfg.initial_battery_j!r} J initial battery (set initial_battery_j in --config)",
              file=sys.stderr)
    doc = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}  # asdict would copy every residual
    if args.format == "json":
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    else:
        del doc["per_node_residual"]
        row = ",".join("" if v is None else str(v) for v in doc.values())
        _emit(",".join(doc) + "\n" + row + "\n", args.output)
    return 0


def _cmd_bench(args, parser) -> int:
    preset = "paper-budget" if args.paper_budget else args.preset
    cfg = BenchConfig(
        n=args.n,
        seeds=_parse_seeds(args.seeds, parser),
        width=args.width,
        height=args.height,
        k=args.k,
        preset=preset,
    )
    report = run_experiment(cfg)
    _emit(export_report(report, args.format), args.output)
    return 0


def format_length(value: float) -> str:
    """Length line shown by nn/sa; plain repr keeps full precision."""
    return repr(value) if not value.is_integer() or math.isinf(value) else str(int(value))


_COMMANDS = {
    "gen": _cmd_gen,
    "knn": _cmd_knn,
    "nn": _cmd_nn,
    "sa": _cmd_sa,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (DatasetError, DeadNodeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
