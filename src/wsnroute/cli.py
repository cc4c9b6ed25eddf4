"""Command-line front door: gen, knn, nn, sa, simulate, bench.

Every output is plain text so artifacts diff cleanly in scripts and CI.
Exit codes: 0 success, 1 usage error, 2 runtime error (bad input file,
constraint violation). Identical argv and seed reproduce byte-identical
primary outputs; wall-time fields are exempt.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .anneal import AnnealSchedule
    from .field import SensorField
    from .routes import Route

# Each workbench name the handlers call -> the module that defines it. No
# handler's module is imported with this one: main binds the names of the
# modules a subcommand runs into this module's globals the first time it
# runs that subcommand, and __getattr__ binds them when read from outside.
# A name already bound is never rebound, so a tracer's wrapper or a test's
# monkeypatch of ``wsnroute.cli.<name>`` stays in place. The handlers must
# call these names as globals of this module: a handler-local import would
# go round the traced call sites.
_SOURCES = {
    **dict.fromkeys(("default_schedule", "random_initial_route", "sa_route", "undersized_schedule"), "anneal"),
    **dict.fromkeys(("BenchConfig", "export_report", "run_experiment"), "bench"),
    **dict.fromkeys(("EnergyConfig", "parse_config"), "energy"),
    **dict.fromkeys(("format_coord", "generate_uniform", "parse_dataset", "write_dataset"), "field"),
    **dict.fromkeys(("build_knn_graph", "dump_graph"), "knn"),
    "simulate_lifetime": "lifetime",
    **dict.fromkeys(("Route", "dump_route", "nn_route", "route_length"), "routes"),
}


def _bind(modules: tuple[str, ...]) -> None:
    """Bind each name of ``modules`` in :data:`_SOURCES` that is not bound yet."""
    names = globals()
    for name, module in _SOURCES.items():
        if module in modules and name not in names:
            names[name] = getattr(importlib.import_module(f"{__package__}.{module}"), name)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((_SOURCES[name],))
    return globals()[name]


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

    Text that is neither, that names no seed (such as '5..1') or that
    repeats one (such as '1,2,1'), is a usage error.
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
    if len(set(seeds)) < len(seeds):
        parser.error(f"--seeds {text!r} repeats a seed; each seed may run once")
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
    }
    changed = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(base, **changed)


@functools.cache
def build_parser() -> CliParser:
    """The CLI's parser, built at the first call and shared by every later one.

    Building it takes about 20 times as long as one ``parse_args``, and
    parsing leaves no state on it. It is not built at import, so that a
    process that never parses pays nothing.
    """
    parser = CliParser(prog="wsnroute", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset file")
    _add_field_args(p)
    p.add_argument("--output", default=None, help="dataset path (default: stdout)")

    p = sub.add_parser("knn", help="build the kNN graph and dump its edges")
    _add_field_args(p)
    p.add_argument("--k", type=int, required=True, help="neighbors per node")
    p.add_argument("--chunk-size", type=int, default=256, help="most query rows in one distance tile")
    p.add_argument("--output", default=None, help="graph dump path (default: stdout)")

    p = sub.add_parser("nn", help="build the greedy route; prints its length")
    _add_field_args(p)
    p.add_argument("--start", type=int, default=0, help="start node (default 0)")
    p.add_argument("--closed", action="store_true", help="close the route back to the start")
    p.add_argument("--output", default=None, help="route dump path (default: append to stdout)")

    p = sub.add_parser("sa", help="anneal a route; prints its length")
    _add_field_args(p)
    p.add_argument("--start", type=int, default=None, help="start node for --sa-init nn (default 0)")
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
    preset = p.add_mutually_exclusive_group()
    preset.add_argument("--preset", choices=("paper-budget", "generous"), default="paper-budget")
    preset.add_argument("--paper-budget", action="store_const", dest="preset", const="paper-budget",
                        help="alias for --preset paper-budget")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="report path (default: stdout)")

    for p in sub.choices.values():
        p.set_defaults(command_parser=p)  # a handler's usage errors show its subcommand's usage
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
    print(format_coord(route_length(fld, route)))
    _emit(dump_route(route), args.output)
    return 0


def _cmd_sa(args, parser) -> int:
    if args.sa_init != "nn" and args.start is not None:
        parser.error("--start applies to --sa-init nn only; a random initial route has no start node")
    fld = _resolve_field(args, parser)
    seed = args.sa_seed if args.sa_seed is not None else (args.seed if args.seed is not None else 0)
    if args.sa_init == "nn":
        initial = nn_route(fld, args.start or 0)
    else:
        initial = random_initial_route(len(fld), seed)
    if args.closed:
        initial = Route(order=initial.order, closed=True)
    schedule = _schedule_from_args(args, fld, initial)
    route = sa_route(fld, initial, schedule, seed)
    print(format_coord(route_length(fld, route)))
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
    cfg = BenchConfig(
        n=args.n,
        seeds=_parse_seeds(args.seeds, parser),
        width=args.width,
        height=args.height,
        k=args.k,
        preset=args.preset,
    )
    report = run_experiment(cfg)
    _emit(export_report(report, args.format), args.output)
    return 0


# Subcommand -> (handler, the modules whose names it calls).
_COMMANDS = {
    "gen": (_cmd_gen, ("field",)),
    "knn": (_cmd_knn, ("field", "knn")),
    "nn": (_cmd_nn, ("field", "routes")),
    "sa": (_cmd_sa, ("field", "routes", "anneal")),
    "simulate": (_cmd_simulate, ("field", "routes", "energy", "lifetime")),
    "bench": (_cmd_bench, ("bench",)),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, modules = _COMMANDS[args.command]
    _bind(modules)
    try:
        return handler(args, args.command_parser)
    except (ValueError, OSError) as exc:  # a DatasetError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
