"""Golden-output digests for all six subcommands.

Each case runs ``wsnroute.cli.main`` on a generated field and compares
the sha256 of its stdout with a digest pinned when the case was added. A
refactor that is meant to change no output must keep every digest. Bench
reports drop their wall-time fields first, since those are not reproducible.
"""

import hashlib
import json

import pytest

from wsnroute.cli import main

# Exercises alpha != 2 (tx energy's ``d**alpha``) and a deadline that some
# routes miss, so path_delay's sum reaches the report.
SIM_CONFIG = "alpha = 2.5\ninitial_battery_j = 0.05\nprop_speed = 1e5\nd_max_s = 0.0334\n"
# The same with batteries that outlast every round of a longer route.
LONG_LIFE_CONFIG = SIM_CONFIG.replace("0.05", "1e4")

CASES = {
    "gen": ["gen", "--n", "40", "--width", "1000", "--height", "700", "--seed", "5"],
    "knn-chunk-1": ["knn", "--n", "40", "--width", "1000", "--height", "700", "--seed", "5",
                    "--k", "4", "--chunk-size", "1"],
    "knn-chunk-7": ["knn", "--n", "40", "--seed", "6", "--k", "5", "--chunk-size", "7"],
    "knn-chunk-gt-n": ["knn", "--n", "40", "--seed", "6", "--k", "5", "--chunk-size", "64"],
    "nn-input-closed": ["nn", "--input", "{field}", "--start", "3", "--closed"],
    "sa-swap": ["sa", "--n", "30", "--width", "400", "--height", "400", "--seed", "11",
                "--sa-move", "swap", "--sa-max-iters", "3000"],
    "sa-nn-init-closed": ["sa", "--n", "30", "--seed", "2", "--sa-init", "nn", "--closed",
                          "--sa-max-iters", "3000"],
    "simulate-fixed-json": ["simulate", "--n", "30", "--width", "100", "--height", "100",
                            "--seed", "5", "--rounds", "40", "--start", "4",
                            "--config", "{config}", "--format", "json"],
    "simulate-fixed-csv": ["simulate", "--n", "30", "--width", "100", "--height", "100",
                           "--seed", "5", "--rounds", "40", "--config", "{config}",
                           "--format", "csv"],
    "simulate-rotate-json": ["simulate", "--n", "30", "--width", "100", "--height", "100",
                             "--seed", "5", "--rounds", "40", "--policy", "rotate-start",
                             "--config", "{config}", "--format", "json"],
    "simulate-rotate-csv": ["simulate", "--n", "30", "--width", "100", "--height", "100",
                            "--seed", "5", "--rounds", "40", "--policy", "rotate-start",
                            "--config", "{config}", "--format", "csv"],
    # Rotating rounds on a field where routes take kNN slots, search the
    # grid and hand steps over to the full scan.
    "simulate-rotate-n400": ["simulate", "--n", "400", "--width", "2000", "--height", "2000",
                             "--seed", "3", "--rounds", "5", "--policy", "rotate-start",
                             "--config", "{long_config}", "--format", "json"],
    "bench-csv": ["bench", "--n", "30", "--width", "500", "--height", "500",
                  "--seeds", "1..3", "--format", "csv"],
    # Enough nodes for a grid of hundreds of cells.
    "knn-n3000": ["knn", "--n", "3000", "--seed", "9", "--k", "10", "--chunk-size", "256"],
    "nn-n3000": ["nn", "--n", "3000", "--seed", "9", "--start", "17"],
    # Long enough for quiet stretches, so the annealer scores proposals in numpy runs.
    "sa-paper-budget-n300": ["sa", "--n", "300", "--seed", "4", "--paper-budget"],
    "sa-swap-closed-n200": ["sa", "--n", "200", "--seed", "3", "--sa-move", "swap", "--closed"],
    "bench-json-knn": ["bench", "--n", "30", "--width", "500", "--height", "500",
                       "--seeds", "4,7", "--k", "5", "--preset", "generous", "--format", "json"],
}

DIGESTS = {
    "bench-csv": "75c88155e89085f6c20da273e585b9b94b89e2d0a7a24c55d2bec7b3bd697427",
    "bench-json-knn": "9e941e7784846924e89da81d4fa462266f2e4df8847450228db36cab569c0d2c",
    "gen": "6171b17f69da6ea68f0ef9563281ffd6a4b2f7a3940e4ca15deabfd7c95b24c2",
    "knn-chunk-1": "add510c74d08026f297b715678fa769e9a02a55ea5702a452c9c8f61ab9e690c",
    "knn-chunk-7": "7c25eef6152dc09172d48bc4b84f058fb1d7a3176363edb714e8ff8ee710709a",
    "knn-chunk-gt-n": "7c25eef6152dc09172d48bc4b84f058fb1d7a3176363edb714e8ff8ee710709a",
    "knn-n3000": "70330170f00ba4a950913a30a8760232d77921b088d590d0c4ee02bddee86008",
    "nn-input-closed": "210a9fc0132c7c4eae6e4dc5b971d3af6ce3b201c1a0112d6c50e004e74f5ed4",
    "nn-n3000": "9553da1648f0050da23d392cef7423de254020f4396ae259f18acb4c9ef24cb2",
    "sa-nn-init-closed": "ac3ab4af1c1e54741abce984d3248745e6bffce582c3e44abf3d08ae8083177a",
    "sa-paper-budget-n300": "3d7c823a34dfa770cb607c39e951d9e1a740a2671d178a3a549f8acc39c75c9a",
    "sa-swap": "d7d8d6766ea19fd64c06615315034b24a4649f27c7049069c30b2f1899434ccc",
    "sa-swap-closed-n200": "e39fcf4f58e72c248bb7ab4d62e5496ba538acff5f900ce643019c890d15dbd4",
    "simulate-fixed-csv": "3a27c3cc521bbe492398c87dbc137f36d46151698a4fe9798dda85a311cc71a4",
    "simulate-fixed-json": "c3904f9cbe5b6b1c79356f1e82591978dd3abbd2f67b690abc44d58c4ab3d37a",
    "simulate-rotate-csv": "1e655fa883c3ddb3b0bafa219252e54e7240f2aa4f0b94b28aae5aee0ee11c50",
    "simulate-rotate-json": "78f1787148784b8fdbac27fd1bed1ad61e66ff9143b0d1eb98e26e04898d2b6d",
    "simulate-rotate-n400": "8c0fd73fae930b42afba75565dd3fc6a31bf622ea468e2cc2686824f436a11a9",
}


def _drop_wall_times(name: str, out: str) -> str:
    if name == "bench-csv":
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())
    if name.startswith("bench-json"):
        doc = json.loads(out)
        for run in doc["runs"]:
            del run["wall_time_s"]
        return json.dumps(doc, indent=2) + "\n"
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    field_file = tmp_path / "field.txt"
    config_file = tmp_path / "params.cfg"
    config_file.write_text(SIM_CONFIG)
    long_config_file = tmp_path / "long.cfg"
    long_config_file.write_text(LONG_LIFE_CONFIG)
    assert main(["gen", "--n", "35", "--width", "900", "--height", "600", "--seed", "8",
                 "--output", str(field_file)]) == 0
    argv = [a.format(field=field_file, config=config_file, long_config=long_config_file) for a in CASES[name]]
    capsys.readouterr()
    assert main(argv) == 0
    out = _drop_wall_times(name, capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


def test_every_case_has_one_digest():
    assert set(CASES) == set(DIGESTS)
