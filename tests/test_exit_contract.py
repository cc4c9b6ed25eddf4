"""The CLI's exit contract, fuzzed: every subcommand on adversarial argv.

Each example runs ``wsnroute.cli.main`` in this process, with every warning
raised as an error. The exit code must be 0 (success), 1 (usage error) or 2
(runtime error), no other exception may escape, and stderr holds no warning
and no traceback. An exit-0 run's output must also pass its subcommand's
check: a dataset parses back to the same field, a graph dump is the
brute-force oracle's, a route is a permutation whose printed length is
``route_length``, a report's residuals are finite and within the battery
after at most ``--rounds`` rounds, and a bench report has one row per seed
and algorithm.

Values are drawn from pools of adversarial text: 0, -1, nan, +-inf, 1e308,
-0.0, 5e-324, 2**63 and 2**64, seed lists that repeat or name no seed,
empty, one-node, subnormal and duplicate datasets, and config text with
unknown or repeated keys. Two budgets stay bounded so that every example is
quick: ``--rounds`` (a 1e308 J battery would run 2**63 rounds) and
``--sa-max-iters``. Examples are derandomized and no database is kept.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from wsnroute import (Route, dump_graph, format_coord, generate_uniform, parse_config, parse_dataset,
                      parse_report, route_length)
from wsnroute.cli import main
from oracles import brute_force_knn

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)

BIG = [str(2**63), str(2**64)]
# Each pool is (tame values, adversarial ones); a run refuses most adversarial values. See pick.
NODES = (["1", "2", "3", "5"], ["0", "-1", "nan", *BIG])
SIDES = (["1", "2.5", "100", "5e-324", "1e150"], ["0", "-0.0", "-1", "nan", "inf", "-inf", "1e308"])
SEEDS = (["0", "-0", "7", *BIG], ["-1", "nan", "1.5"])
INDICES = (["0", "1", "2", "4"], ["-1", "nan", "1e308", *BIG])
NEIGHBOURS = (["1", "2", "3"], ["0", "-1", "nan", *BIG])
COUNTS = (["1", "2", "3", "50", *BIG], ["0", "-1", "nan", "-0.0"])
TEMPS = (["5e-324", "0.5", "1", "100", "1e308"], ["0", "-1", "nan", "inf", "-inf"])
COOLING = (["5e-324", "0.5", "0.999"], ["0", "1", "-1", "nan", "inf"])
COORDS = (["0", "-0.0", "1", "2.5", "5e-324", "-5e-324", "1e150"], ["1e308", "-1e308", "nan", "inf", "-inf"])
# config key -> its tame values: its least and greatest and one between
CONFIG_EDGES = {"e_elec": ["5e-324", "1e-9", "1e300"], "eps_amp": ["5e-324", "1e-12", "1e300"],
                "alpha": ["2", "2.5", "4"], "packet_bits": ["1", "2000", BIG[1]],
                "per_hop_s": ["5e-324", "1e-3", "1e308"], "prop_speed": ["5e-324", "3e8", "1e308"],
                "d_max_s": ["5e-324", "1", "inf"], "initial_battery_j": ["5e-324", "1e5", "1e308"],
                "link_cost": ["1"]}  # a removed key
CONFIG_BAD = ["0", "-1", "nan", "-inf", "-0.0", "1.5", "1e309"]
# --seeds text -> the seeds a run takes
SEED_LISTS = {"1..2": [1, 2], "0": [0], "2,0": [2, 0], "3..3": [3], BIG[1]: [2**64]}
SEED_TEXT = (list(SEED_LISTS), ["1,1", "5..1", "-1", "0..-1", "x", ""])

# The dataset and config files an example reads; each example writes its own text to them.
DATASET = "field.txt"
CONFIG = "params.cfg"
# Cases that once broke the contract, run first every time: a chunk size beyond
# int64 reached np.arange, and a delay or ledger sum beyond the float range warned.
FOUND = {
    "knn": [(["knn", "--n", "5", "--k", "2", "--chunk-size", BIG[1]], None, None)],
    "simulate": [(["simulate", "--n", "50", "--rounds", "2", "--config", CONFIG], None, f"{key} = {value}\n")
                 for key, value in (("prop_speed", "5e-324"), ("per_hop_s", "1e308"))],
}


def pick(draw, pool):
    """A value of ``pool``: an adversarial one about one time in six, else a tame one."""
    ok, bad = pool
    return draw(st.sampled_from(bad if draw(st.integers(0, 5)) == 5 else ok))


def options(draw, pools):
    """Each of ``pools``' flags about one time in three, in order, with a value picked from its pool.

    A None pool is a switch.
    """
    argv = []
    for flag, pool in pools.items():
        if draw(st.integers(0, 2)) == 0:
            argv += [flag] if pool is None else [flag, pick(draw, pool)]
    return argv


@st.composite
def datasets(draw):
    """Dataset text of up to five points, duplicates common; the empty text among them."""
    ok, bad = COORDS
    coords = st.sampled_from(ok + bad if draw(st.integers(0, 5)) == 5 else ok)
    return "".join(f"P ({x} {y})\n" for x, y in draw(st.lists(st.tuples(coords, coords), max_size=5)))


@st.composite
def configs(draw):
    """Config text of up to three key=value lines; keys repeat and may be unknown."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(list(CONFIG_EDGES)))
        lines.append(f"{key} = {pick(draw, (CONFIG_EDGES[key], CONFIG_BAD))}\n")
    return "".join(lines)


@st.composite
def field_source(draw):
    """``--input`` with dataset text, or ``--n`` with some generation flags: (argv, dataset text or None)."""
    if draw(st.booleans()):
        return ["--input", DATASET], draw(datasets())
    gen = options(draw, {"--width": SIDES, "--height": SIDES, "--seed": SEEDS})
    return ["--n", pick(draw, NODES), *gen], None


@st.composite
def cases(draw, command):
    """(argv, dataset text or None, config text or None) for one run of ``command``."""
    config = None
    if command == "bench":
        argv = ["--n", pick(draw, NODES), "--seeds", pick(draw, SEED_TEXT)]
        argv += options(draw, {"--width": SIDES, "--height": SIDES, "--k": INDICES,
                               "--preset": (["paper-budget", "generous"], ["paper"]), "--paper-budget": None,
                               "--format": (["csv", "json"], ["txt"])})
        return [command, *argv], None, None
    argv, text = draw(field_source())
    if command == "knn":
        argv += ["--k", pick(draw, NEIGHBOURS)] + options(draw, {"--chunk-size": COUNTS})
    elif command == "nn":
        argv += options(draw, {"--start": INDICES, "--closed": None})
    elif command == "sa":
        argv += ["--sa-max-iters", pick(draw, (["0", "1", "300"], ["-1", "nan"]))]
        argv += options(draw, {"--start": INDICES, "--closed": None, "--sa-init": (["random", "nn"], ["greedy"]),
                               "--sa-seed": SEEDS, "--paper-budget": None, "--sa-initial-temp": TEMPS,
                               "--sa-cooling": COOLING, "--sa-iters-per-temp": COUNTS, "--sa-min-temp": TEMPS})
    elif command == "simulate":
        argv += ["--rounds", pick(draw, (["0", "1", "3"], ["-1", "nan"]))]
        argv += options(draw, {"--policy": (["fixed-route", "rotate-start"], ["rotate"]), "--start": INDICES,
                               "--format": (["json", "csv"], ["xml"])})
        if draw(st.booleans()):
            config = draw(configs())
            argv += ["--config", CONFIG]
    return [command, *argv], text, config


def run(argv):
    """``main(argv)``'s exit code, stdout and stderr; a warning raises, and a usage error's SystemExit is its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def field_of(argv, text):
    """The field a successful run read or generated."""
    if text is not None:
        return parse_dataset(text)
    return generate_uniform(int(flag(argv, "--n")), float(flag(argv, "--width", 20000.0)),
                            float(flag(argv, "--height", 20000.0)), int(flag(argv, "--seed", 0)))


def check_route(fld, out, closed):
    length, *order = out.splitlines()
    order = [int(v) for v in order]
    assert sorted(order) == list(range(len(fld)))
    assert length == format_coord(route_length(fld, Route(order=order, closed=closed)))


def check_output(argv, text, config, out):
    """The check an exit-0 run of ``argv`` passes, by its subcommand."""
    command = argv[0]
    if command == "bench":
        seeds = SEED_LISTS[flag(argv, "--seeds")]
        runs = parse_report(out, flag(argv, "--format", "csv")).runs
        assert sorted((r.seed, r.algorithm) for r in runs) == sorted((s, a) for s in seeds for a in ("NN", "SA"))
        return
    fld = field_of(argv, text)
    if command == "gen":
        assert parse_dataset(out).coords.tobytes() == fld.coords.tobytes()
    elif command == "knn":
        assert out == dump_graph(brute_force_knn(fld, int(flag(argv, "--k"))))
    elif command in ("nn", "sa"):
        check_route(fld, out, "--closed" in argv)
    else:
        rounds = int(flag(argv, "--rounds"))
        if flag(argv, "--format") == "csv":
            assert int(out.splitlines()[1].split(",")[0]) <= rounds
            return
        report = json.loads(out)
        assert report["rounds_completed"] <= rounds
        battery = parse_config(config or "").initial_battery_j
        residual = report["per_node_residual"]
        assert len(residual) == len(fld)
        assert all(math.isfinite(r) and 0.0 <= r <= battery for r in residual)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("command", ["gen", "knn", "nn", "sa", "simulate", "bench"])
def test_exit_contract(command, workdir, monkeypatch):
    monkeypatch.chdir(workdir)  # the argv names DATASET and CONFIG relative to it

    def check(case):
        argv, text, config = case
        for name, body in ((DATASET, text), (CONFIG, config)):
            if body is not None:
                (workdir / name).write_text(body)
        code, out, err = run(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Warning:" not in err and "Traceback" not in err
        if code == 0:
            check_output(argv, text, config, out)

    check = given(cases(command))(check)
    for case in FOUND.get(command, ()):
        check = example(case)(check)
    SETTINGS(check)()
