"""What a process loads: the package and the CLI import no workbench module up front.

Each subcommand binds the names it calls into ``wsnroute.cli`` the first
time it runs. Tests in this process cannot see a missing bind, since earlier
tests have already loaded every module, so the checks of what loads run in
fresh interpreters. The trace contract is checked here: every
``wsnroute.cli`` call site that ``perfbench/spans.py`` wraps must be the one
the subcommands call, or a traced layer would read zero.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import wsnroute
from wsnroute import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPANS = ROOT / "perfbench" / "spans.py"
FIELD = {"field", "numtext"}
ROUTES = FIELD | {"grid", "routes"}

# Subcommand -> (argv after the subcommand, the workbench modules it loads).
# Each case is tiny; together they reach every traced wsnroute.cli site.
CASES = {
    "gen": (["--n", "12", "--seed", "3"], FIELD),
    "knn": (["--input", "{field}", "--k", "3"], FIELD | {"grid", "knn"}),
    "nn": (["--n", "12", "--seed", "3", "--closed"], ROUTES),
    "sa": (["--input", "{field}", "--sa-init", "nn", "--sa-max-iters", "200"], ROUTES | {"anneal"}),
    "simulate": (["--n", "12", "--width", "50", "--height", "50", "--seed", "3", "--rounds", "4",
                  "--start", "2"], ROUTES | {"knn", "energy", "lifetime"}),
    "bench": (["--n", "12", "--seeds", "1..2", "--k", "3"], ROUTES | {"knn", "anneal", "bench"}),
}

# Subcommand -> the wsnroute.cli attributes its CASES argv calls.
SITES = {
    "gen": {"main", "generate_uniform", "write_dataset"},
    "knn": {"main", "parse_dataset", "build_knn_graph", "dump_graph"},
    "nn": {"main", "generate_uniform", "nn_route", "route_length", "dump_route"},
    "sa": {"main", "parse_dataset", "nn_route", "sa_route", "route_length", "dump_route"},
    "simulate": {"main", "generate_uniform", "nn_route", "simulate_lifetime"},
    "bench": {"main", "run_experiment", "export_report"},
}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _argv(command, tmp_path):
    field = tmp_path / "field.txt"
    if not field.exists():
        field.write_text(wsnroute.write_dataset(wsnroute.generate_uniform(12, 1000, 1000, 4)))
    return [command, *(arg.format(field=field) for arg in CASES[command][0])]


def _primary(out):
    """The output without bench's wall-time column (each line's last field), which no run reproduces."""
    if not out.startswith(b"seed,algorithm,cost,wall_time_s\n"):
        return out
    return [line.rpartition(b",")[0] for line in out.splitlines()]


def _loaded(code):
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_env(),
                         timeout=60, check=True)
    return set(run.stdout.split())


def test_import_loads_no_workbench_module():
    show = "; print(*(m for m in sys.modules if m.startswith('wsnroute')))"
    assert _loaded("import sys, wsnroute" + show) == {"wsnroute"}
    assert _loaded("import sys, wsnroute.cli" + show) == {"wsnroute", "wsnroute.cli"}


# Runs the CLI as `python -m wsnroute.cli` does, through runpy, then lists on
# stderr the workbench modules the process loaded, however the CLI exits.
RUN_AS_MAIN = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('wsnroute.cli', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(*(m for m in sys.modules if m.startswith('wsnroute.')), file=sys.stderr)\n"
)


@pytest.mark.parametrize("command", list(CASES))
def test_subcommand_in_a_fresh_process_loads_only_its_modules(command, tmp_path, capsys):
    argv = _argv(command, tmp_path)
    run = subprocess.run([sys.executable, "-c", RUN_AS_MAIN, *argv], capture_output=True, env=_env(),
                         timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    assert cli.main(argv) == 0
    assert _primary(run.stdout) == _primary(capsys.readouterr().out.encode())
    loaded = set(run.stderr.decode().splitlines()[-1].split())
    assert loaded == {f"wsnroute.{m}" for m in CASES[command][1]}


def _cli_sites():
    # Executed from its source text, as in test_traced_sites.py.
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), spans.__dict__)
    return {site.rpartition(".")[2] for sites in spans.BOUNDARIES.values() for site in sites
            if site.rpartition(".")[0] == "wsnroute.cli"}


def test_the_cases_reach_every_traced_cli_site():
    assert set().union(*SITES.values()) == _cli_sites()


@pytest.mark.parametrize("command", list(CASES))
def test_traced_cli_sites_record_the_subcommands_calls(command, tmp_path, monkeypatch, capsys):
    calls = dict.fromkeys(_cli_sites(), 0)

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in calls:
        monkeypatch.setattr(cli, attr, counted(attr, getattr(cli, attr)))
    assert cli.main(_argv(command, tmp_path)) == 0
    capsys.readouterr()
    assert {attr for attr, count in calls.items() if count} == SITES[command]


def test_package_exports_resolve_on_first_read():
    assert "brute_force_knn" not in wsnroute.__all__ and "Point" not in wsnroute.__all__
    for name in wsnroute.__all__:
        assert getattr(wsnroute, name) is not None
    assert wsnroute.build_knn_graph is wsnroute.knn.build_knn_graph
    with pytest.raises(AttributeError):
        wsnroute.brute_force_knn
    with pytest.raises(AttributeError):
        cli.no_such_name
