"""End-to-end command-line tests (in-process)."""

import json
import shlex
import subprocess
from pathlib import Path

import pytest

from wsnroute import dump_graph, generate_uniform, nn_route, parse_dataset
from wsnroute import cli
from wsnroute.cli import main
from oracles import brute_force_knn, points


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_parseable_dataset(tmp_path, capsys):
    out = tmp_path / "f.txt"
    code, _, _ = run_cli(capsys, "gen", "--n", "50", "--width", "1000", "--height", "1000",
                         "--seed", "42", "--output", str(out))
    assert code == 0
    f = parse_dataset(out.read_text())
    assert len(f) == 50
    assert points(f) == points(generate_uniform(50, 1000, 1000, 42))


def test_gen_stdout_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "gen", "--n", "10", "--seed", "3")
    code2, out2, _ = run_cli(capsys, "gen", "--n", "10", "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("P (")


def test_nn_prints_length_then_route(tmp_path, capsys):
    data = tmp_path / "f.txt"
    run_cli(capsys, "gen", "--n", "30", "--width", "500", "--height", "500",
            "--seed", "1", "--output", str(data))
    code, out, _ = run_cli(capsys, "nn", "--input", str(data))
    assert code == 0
    lines = out.splitlines()
    assert float(lines[0]) > 0
    assert len(lines) == 31  # length line + 30 node ids
    assert lines[1] == "0"


def test_nn_run_twice_identical(tmp_path, capsys):
    data = tmp_path / "f.txt"
    run_cli(capsys, "gen", "--n", "25", "--seed", "7", "--output", str(data))
    _, out1, _ = run_cli(capsys, "nn", "--input", str(data))
    _, out2, _ = run_cli(capsys, "nn", "--input", str(data))
    assert out1 == out2


def test_nn_route_file_matches_library(tmp_path, capsys):
    data = tmp_path / "f.txt"
    route_file = tmp_path / "route.txt"
    run_cli(capsys, "gen", "--n", "20", "--width", "300", "--height", "300",
            "--seed", "2", "--output", str(data))
    code, out, _ = run_cli(capsys, "nn", "--input", str(data), "--start", "3",
                           "--output", str(route_file))
    assert code == 0
    assert len(out.splitlines()) == 1  # only the length line on stdout
    f = generate_uniform(20, 300, 300, 2)
    want = nn_route(f, 3).order
    assert [int(v) for v in route_file.read_text().split()] == want


def test_input_and_generation_flags_are_exclusive(tmp_path, capsys):
    data = tmp_path / "f.txt"
    run_cli(capsys, "gen", "--n", "5", "--seed", "1", "--output", str(data))
    with pytest.raises(SystemExit) as exc:
        main(["nn", "--input", str(data), "--n", "5"])
    assert exc.value.code == 1


def test_missing_field_source_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nn"])
    assert exc.value.code == 1


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nn", "--n", "5", "--frobnicate"])
    assert exc.value.code == 1
    assert "frobnicate" in capsys.readouterr().err


def test_malformed_dataset_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("P (1 2)\nnot a record\n")
    code, _, err = run_cli(capsys, "nn", "--input", str(bad))
    assert code == 2
    assert "line 2" in err


def test_non_finite_coordinate_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("P (1 2)\nP (1e400 2)\nP (3 4)\n")
    code, _, err = run_cli(capsys, "nn", "--input", str(bad))
    assert code == 2
    assert "line 2" in err and "non-finite" in err


def test_gen_infinite_width_is_runtime_error(capsys):
    code, out, err = run_cli(capsys, "gen", "--n", "3", "--width", "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("flag", ["--width", "--height"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_gen_non_finite_or_zero_size_names_the_field_dimensions(flag, value, capsys):
    code, out, err = run_cli(capsys, "gen", "--n", "3", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: field dimensions must be positive and finite, got ")


@pytest.mark.parametrize("command", [["nn"], ["knn", "--k", "1"]])
def test_overflowing_field_extent_is_runtime_error(command, capsys):
    code, out, err = run_cli(capsys, *command, "--n", "3", "--width", "1e200", "--height", "1e200")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflow" in err
    assert "permutation" not in err


def test_simulate_overflowing_tx_energy_is_runtime_error(tmp_path, capsys):
    # The span passes the squared-distance check, but d**4 of a 1e149 hop
    # overflows a float.
    config = tmp_path / "params.cfg"
    config.write_text("alpha = 4\n")
    code, out, err = run_cli(capsys, "simulate", "--n", "3", "--width", "1e150", "--height", "1e150",
                             "--rounds", "2", "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflows" in err
    assert len(err.splitlines()) == 1


def test_simulate_overflowing_per_packet_energy_is_runtime_error(tmp_path, capsys):
    # Two nodes at one point: a hop of length 0 times an infinite eps_amp * bits is NaN.
    data = tmp_path / "f.txt"
    data.write_text("P (0 0)\nP (0 0)\n")
    config = tmp_path / "params.cfg"
    config.write_text("eps_amp = 1e306\ninitial_battery_j = 1e300\n")
    code, out, err = run_cli(capsys, "simulate", "--input", str(data), "--rounds", "2", "--format", "csv",
                             "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "eps_amp" in err
    assert len(err.splitlines()) == 1


def test_bench_k_zero_is_runtime_error(capsys):
    code, out, err = run_cli(capsys, "bench", "--n", "5", "--seeds", "1", "--k", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "1 <= k <= n-1" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bench_zero_length_nn_route_is_runtime_error(fmt, capsys):
    # the squared distances of a 1e-170 field underflow to 0, so SA/NN would be 0/0
    code, out, err = run_cli(capsys, "bench", "--n", "2", "--seeds", "1", "--width", "1e-170",
                             "--height", "1e-170", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == "error: seed 1: the NN route has length 0, so SA/NN is undefined\n"


@pytest.mark.parametrize("seeds", ["abc", "5..1", "1..x", ","])
def test_bench_bad_seed_list_is_usage_error(seeds, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "10", "--seeds", seeds])
    assert exc.value.code == 1
    assert "--seeds" in capsys.readouterr().err


def test_bench_repeated_seed_is_usage_error(capsys):
    # a repeated seed would count twice in the mean rows and once in mean,SA/NN
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "5", "--seeds", "1,2,1", "--format", "csv"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repeats a seed" in captured.err


@pytest.mark.parametrize("argv, named", [
    (["gen", "--n", "3", "--seed", "-1"], "argument --seed: "),
    (["knn", "--n", "5", "--k", "2", "--seed", "-3"], "argument --seed: "),
    (["nn", "--n", "5", "--seed", "-3"], "argument --seed: "),
    (["simulate", "--n", "5", "--rounds", "2", "--seed", "-3"], "argument --seed: "),
    (["sa", "--n", "5", "--sa-seed", "-4"], "argument --sa-seed: "),
    (["bench", "--n", "5", "--seeds=-1,3"], "--seeds '-1,3' names a negative seed"),
])
def test_negative_seed_is_a_usage_error_naming_its_flag(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"wsnroute {argv[0]}: error: " in captured.err and named in captured.err


@pytest.mark.parametrize("seed", [0, 2**64])
def test_seeds_from_zero_of_any_size_generate(seed, capsys):
    code, out, _ = run_cli(capsys, "gen", "--n", "3", "--seed", str(seed))
    assert code == 0
    assert points(parse_dataset(out)) == points(generate_uniform(3, 20000, 20000, seed))


@pytest.mark.parametrize("argv", [
    ["bench", "--n", "5", "--seeds", "1,2,1"],
    ["bench", "--n", "5", "--seeds", "5..1"],
    ["simulate", "--n", "6", "--rounds", "2", "--policy", "rotate-start", "--start", "3"],
    ["simulate", "--rounds", "2"],
    ["nn", "--input", "field.txt", "--seed", "1"],
    ["sa", "--n", "5", "--seed", "1", "--start", "99", "--sa-max-iters", "10"],
])
def test_handler_usage_errors_show_the_subcommand_usage(argv, capsys):
    # found after parsing, by the subcommand's handler
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: wsnroute {argv[0]} ")
    assert f"\nwsnroute {argv[0]}: error: " in err


def test_bench_generous_preset_and_paper_budget_is_usage_error(capsys):
    # --paper-budget is an alias for --preset paper-budget; it may not override another preset
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "10", "--seeds", "1", "--preset", "generous", "--paper-budget"])
    assert exc.value.code == 1
    assert "--paper-budget" in capsys.readouterr().err


@pytest.mark.parametrize("flags, want", [
    ([], "paper-budget"),
    (["--paper-budget"], "paper-budget"),
    (["--preset", "paper-budget"], "paper-budget"),
    (["--preset", "generous"], "generous"),
])
def test_bench_preset_flags(flags, want, monkeypatch, capsys):
    seen = []
    run = cli.run_experiment
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: seen.append(cfg.preset) or run(cfg))
    code, _, _ = run_cli(capsys, "bench", "--n", "8", "--width", "100", "--height", "100", "--seeds", "1", *flags)
    assert code == 0
    assert seen == [want]


def test_simulate_rotate_start_rejects_start(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--n", "6", "--rounds", "2", "--policy", "rotate-start", "--start", "3"])
    assert exc.value.code == 1
    assert "--start" in capsys.readouterr().err


def test_start_out_of_range_is_runtime_error(capsys):
    code, _, err = run_cli(capsys, "nn", "--n", "5", "--start", "9")
    assert code == 2
    assert "out of range" in err


def test_knn_dump_matches_oracle(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "knn", "--n", "20", "--width", "200", "--height", "200",
                           "--seed", "4", "--k", "3", "--chunk-size", "6")
    assert code == 0
    f = generate_uniform(20, 200, 200, 4)
    assert out == dump_graph(brute_force_knn(f, 3))


def test_sa_deterministic_and_not_worse_than_reported(capsys):
    args = ("sa", "--n", "30", "--width", "400", "--height", "400", "--seed", "11",
            "--sa-max-iters", "2000")
    code, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert code == 0
    assert out1 == out2
    assert float(out1.splitlines()[0]) > 0


def test_sa_nn_init_with_paper_budget(capsys):
    code, out, _ = run_cli(capsys, "sa", "--n", "25", "--seed", "3", "--sa-init", "nn",
                           "--paper-budget")
    assert code == 0
    assert len(out.splitlines()) == 26


def test_sa_nan_initial_temp_is_runtime_error(capsys):
    code, out, err = run_cli(capsys, "sa", "--n", "50", "--seed", "3", "--sa-initial-temp", "nan")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "initial_temp" in err


@pytest.mark.parametrize("flag", ["--sa-initial-temp", "--sa-min-temp"])
def test_sa_infinite_temperature_is_runtime_error(flag, capsys):
    # an infinite min_temp would stop before the first proposal, an infinite
    # initial_temp would accept every uphill move
    code, out, err = run_cli(capsys, "sa", "--n", "5", flag, "inf")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "must be finite" in err


@pytest.mark.parametrize("temp", ["0", "1e-300"])
def test_sa_initial_temp_below_min_temp_is_runtime_error(temp, capsys):
    # the run would make no proposal and print the random start as its result
    code, out, err = run_cli(capsys, "sa", "--n", "5", "--seed", "1", "--sa-initial-temp", temp)
    assert code == 2
    assert out == ""
    assert err.startswith("error: initial_temp must be >= min_temp")


def test_simulate_json_report(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("initial_battery_j = 0.001\npacket_bits = 1000\n")
    code, out, _ = run_cli(capsys, "simulate", "--n", "10", "--width", "200", "--height", "200",
                           "--seed", "5", "--rounds", "50", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"rounds_completed", "first_death_round", "total_energy_j",
                        "deadline_violations", "per_node_residual"}
    assert doc["rounds_completed"] <= 50
    assert len(doc["per_node_residual"]) == 10


def test_simulate_rotate_policy_and_csv(capsys):
    code, out, err = run_cli(capsys, "simulate", "--n", "6", "--width", "100", "--height", "100",
                             "--seed", "2", "--rounds", "10", "--policy", "rotate-start",
                             "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rounds_completed,first_death_round,total_energy_j,deadline_violations"
    assert len(lines) == 2
    assert err == ""  # rounds complete on a small field, so no warning


def test_simulate_warns_when_round_one_is_fatal(capsys):
    # on the default 20000 x 20000 field, the default 0.5 J battery cannot pay for round 1
    code, out, err = run_cli(capsys, "simulate", "--n", "10", "--seed", "1", "--rounds", "5",
                             "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("0,1,")
    warnings = err.splitlines()
    assert len(warnings) == 1
    assert warnings[0].startswith("warning:") and "0.5 J" in warnings[0]


@pytest.mark.parametrize("line", [
    "initial_battery_j = nan",  # no node could die, so every round would complete
    "initial_battery_j = inf",  # --format json would print Infinity, which is not JSON
    "e_elec = nan",
    "eps_amp = nan",
    "per_hop_s = nan",
    "prop_speed = nan",
    "d_max_s = nan",
])
def test_simulate_nan_or_infinite_config_is_runtime_error(tmp_path, capsys, line):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "simulate", "--n", "20", "--width", "100", "--height", "100",
                             "--seed", "1", "--rounds", "5", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and line.split()[0] in err


@pytest.mark.parametrize("key", ["w_energy", "w_reserve", "w_error", "error_ref_distance"])
def test_simulate_config_with_a_removed_link_cost_key_is_runtime_error(tmp_path, capsys, key):
    # no route reads a link-cost weight, so a config that sets one must fail rather than be ignored
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"{key} = 5\n")
    code, out, err = run_cli(capsys, "simulate", "--n", "20", "--width", "100", "--height", "100",
                             "--seed", "1", "--rounds", "5", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"unknown key {key!r}" in err


def test_simulate_config_with_a_repeated_key_is_runtime_error(tmp_path, capsys):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("alpha = 2\nalpha = 4\n")
    code, out, err = run_cli(capsys, "simulate", "--n", "20", "--width", "100", "--height", "100",
                             "--seed", "1", "--rounds", "5", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "alpha is given again, first on line 1" in err and "line 2" in err


def test_bench_csv_row_count(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "40", "--width", "500", "--height", "500",
                           "--seeds", "1..3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    data = [ln for ln in lines[1:] if not ln.startswith("mean,")]
    assert len(data) == 6  # 3 seeds x 2 algorithms
    assert lines[0] == "seed,algorithm,cost,wall_time_s"


def test_bench_seed_list_syntax(capsys):
    code, out, _ = run_cli(capsys, "bench", "--n", "30", "--width", "300", "--height", "300",
                           "--seeds", "2,9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert {r["seed"] for r in doc["runs"]} == {2, 9}
    assert "mean_ratio_sa_nn" in doc["aggregates"]


def test_shared_parser_prints_what_a_fresh_one_does(capsys):
    # usage errors at parse time and in a handler, then good calls to several subcommands
    calls = [
        ["nn", "--n", "5", "--frobnicate"],
        ["gen", "--n", "5", "--seed", "3"],
        ["simulate", "--rounds", "2"],
        ["nn", "--n", "6", "--seed", "2", "--closed"],
        ["bench", "--n", "5", "--seeds", "5..1"],
        ["simulate", "--n", "6", "--rounds", "3", "--policy", "rotate-start", "--format", "csv"],
        ["knn", "--n", "6", "--k", "2"],
        ["bench", "--n", "8", "--width", "100", "--height", "100", "--seeds", "1", "--format", "json"],
        ["sa", "--n", "6", "--sa-max-iters", "50"],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        # bench reports carry wall times, which are not reproducible
        return code, "\n".join(line for line in captured.out.splitlines() if "wall_time" not in line), captured.err

    assert cli.build_parser() is cli.build_parser()
    shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 0, 1, 0, 1, 0, 0, 0, 0]


def quickstart_commands():
    """The commands of the README's command-line block, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.partition("## Command line")[2].partition("```sh\n")[2].partition("```")[0]
    return [line for line in block.splitlines() if line and not line.startswith("#")]


def test_readme_quickstart_runs_in_an_empty_directory(tmp_path, monkeypatch, capsys):
    # every step reads only what an earlier step wrote; bench runs 3 of its 10 seeds to stay quick
    monkeypatch.chdir(tmp_path)
    commands = quickstart_commands()
    assert sum(line.startswith("wsnroute ") for line in commands) == 6
    for line in commands:
        line = line.replace("--seeds 1..10", "--seeds 1..3")
        if line.startswith("wsnroute "):
            try:
                code = main(shlex.split(line)[1:])
            except SystemExit as exc:
                code = exc.code
        else:
            code = subprocess.run(line, shell=True, cwd=tmp_path).returncode
        assert (code, capsys.readouterr().err) == (0, ""), line  # simulate warns when no round completes
