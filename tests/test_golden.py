"""Golden-output digests for all six subcommands.

Each case runs ``wsnroute.cli.main`` on a generated field and compares
the sha256 of its stdout with a digest pinned when the case was added. A
refactor that is meant to change no output must keep every digest. Bench
reports drop their wall-time fields first, since those are not reproducible.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from wsnroute.cli import main

# Exercises alpha != 2 (tx energy's ``d**alpha``) and a deadline that some
# routes miss, so path_delay's sum reaches the report.
SIM_CONFIG = "alpha = 2.5\ninitial_battery_j = 0.05\nprop_speed = 1e5\nd_max_s = 0.0334\n"
# The same with batteries that outlast every round of a longer route.
LONG_LIFE_CONFIG = SIM_CONFIG.replace("0.05", "1e4")
# Batteries that last past round n, so the rotating start wraps before the
# first death, and a deadline about half the routes miss.
WRAP_CONFIG = "initial_battery_j = 2\nprop_speed = 1e5\nd_max_s = 0.3315\n"
# A 6x6 integer lattice: every row has exact distance ties at its k-th radius.
LATTICE = "".join(f"P ({x} {y})\n" for y in range(6) for x in range(6))
# Coordinates in each of the number formatter's ranges: zeros, below 1, in
# [1, 2^53) and past it. The duplicate point gives a weight of 0, and the far
# point weights past 2^53.
MIXED = ("P (-0 1e-07)\nP (0.3 12.5)\nP (12.5 0.3)\nP (0.5 0.25)\nP (3000000000000001.5 -0)\n"
         "P (0.3 12.5)\nP (1.2345678901234567e+19 -0.3)\n")
# Three tight clusters and one far outlier. No other node shares the
# outlier's square of cells before r = 6, so its row is retried that often.
CENTRES = [(0, 0), (60, 20), (30, 70)]
CLUSTERED = "".join(f"P ({CENTRES[i % 3][0] + i * 37 % 41 / 8} {CENTRES[i % 3][1] + i * 53 % 43 / 8})\n"
                    for i in range(300)) + "P (5000 4000)\n"

CASES = {
    "gen": ["gen", "--n", "40", "--width", "1000", "--height", "700", "--seed", "5"],
    "knn-chunk-1": ["knn", "--n", "40", "--width", "1000", "--height", "700", "--seed", "5",
                    "--k", "4", "--chunk-size", "1"],
    "knn-chunk-7": ["knn", "--n", "40", "--seed", "6", "--k", "5", "--chunk-size", "7"],
    "knn-chunk-gt-n": ["knn", "--n", "40", "--seed", "6", "--k", "5", "--chunk-size", "64"],
    # The dump's (source, weight, target) order through lattice ties.
    "knn-input-lattice": ["knn", "--input", "{lattice}", "--k", "4"],
    "nn-input-closed": ["nn", "--input", "{field}", "--start", "3", "--closed"],
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
    # 5 rounds after round 0 on 2000 nodes make 10,000 node-rounds, so a
    # route worker builds the even rounds where more than one CPU is allowed.
    "simulate-rotate-n2000": ["simulate", "--n", "2000", "--width", "5000", "--height", "5000",
                              "--seed", "11", "--rounds", "6", "--policy", "rotate-start",
                              "--config", "{long_config}", "--format", "json"],
    # 442 rounds on 300 nodes: the start wraps, then a node dies in round 443.
    "simulate-rotate-wrap-n300": ["simulate", "--n", "300", "--width", "200", "--height", "200",
                                  "--seed", "7", "--rounds", "1000", "--policy", "rotate-start",
                                  "--config", "{wrap_config}", "--format", "json"],
    "bench-csv": ["bench", "--n", "30", "--width", "500", "--height", "500",
                  "--seeds", "1..3", "--format", "csv"],
    # Enough nodes for a grid of hundreds of cells.
    "knn-n3000": ["knn", "--n", "3000", "--seed", "9", "--k", "10", "--chunk-size", "256"],
    # Tiles of 100 rows that start and end inside cells of about 8 nodes.
    "knn-n3000-k3-chunk-100": ["knn", "--n", "3000", "--seed", "10", "--k", "3", "--chunk-size", "100"],
    "knn-input-outlier": ["knn", "--input", "{clustered}", "--k", "4"],
    "knn-input-mixed": ["knn", "--input", "{mixed}", "--k", "4"],
    "gen-n3000": ["gen", "--n", "3000", "--seed", "12"],
    "nn-n3000": ["nn", "--n", "3000", "--seed", "9", "--start", "17"],
    # Each cluster crowds 100 nodes into one cell, so 236 of the 300 steps
    # outgrow the ring search and hand over to the scan of live nodes.
    "nn-input-clustered": ["nn", "--input", "{clustered}", "--start", "150"],
    # Long enough for quiet stretches, so the annealer scores proposals in numpy runs.
    "sa-paper-budget-n300": ["sa", "--n", "300", "--seed", "4", "--paper-budget"],
    # Closed routes long enough for numpy runs, whose links wrap around the seam.
    "sa-closed-n200": ["sa", "--n", "200", "--seed", "3", "--closed"],
    # Accepted 2-opt moves reverse slices thousands of positions long.
    "sa-paper-budget-n10000": ["sa", "--n", "10000", "--seed", "1", "--paper-budget",
                               "--sa-max-iters", "200000"],
    "sa-closed-paper-budget-n10000": ["sa", "--n", "10000", "--seed", "2", "--closed", "--paper-budget",
                                      "--sa-max-iters", "100000"],
    # The benchmark's paper-sweep op: NN against an anneal of 1.2 million proposals.
    "bench-csv-paper-budget-n2000": ["bench", "--n", "2000", "--seeds", "1..1", "--paper-budget",
                                     "--format", "csv"],
    "bench-json-knn": ["bench", "--n", "30", "--width", "500", "--height", "500",
                       "--seeds", "4,7", "--k", "5", "--preset", "generous", "--format", "json"],
}

# Where every digest below was last checked.
CHECKED_ON = "Python 3.11.7, numpy 2.4.6, glibc 2.36, x86_64"
DIGESTS = {
    "bench-csv": "75c88155e89085f6c20da273e585b9b94b89e2d0a7a24c55d2bec7b3bd697427",
    "bench-csv-paper-budget-n2000": "67ad69418706bf884d207b351065ba88dff0adfdae93fa099435a2c9a96b80f4",
    "bench-json-knn": "9e941e7784846924e89da81d4fa462266f2e4df8847450228db36cab569c0d2c",
    "gen": "6171b17f69da6ea68f0ef9563281ffd6a4b2f7a3940e4ca15deabfd7c95b24c2",
    "gen-n3000": "0319328d475c3efc5914964acef3a04fa7ed83fe6ba187148eeabf408282c4d4",
    "knn-chunk-1": "add510c74d08026f297b715678fa769e9a02a55ea5702a452c9c8f61ab9e690c",
    "knn-chunk-7": "7c25eef6152dc09172d48bc4b84f058fb1d7a3176363edb714e8ff8ee710709a",
    "knn-chunk-gt-n": "7c25eef6152dc09172d48bc4b84f058fb1d7a3176363edb714e8ff8ee710709a",
    "knn-input-outlier": "d8a9208fa3799c25f69c4c969f006bde47918939146444880fe8be0db70fae12",
    "knn-input-mixed": "34707212c29274b6304daa2fd16ed304134269151891717f52e86c1de4857665",
    "knn-input-lattice": "7d75146b33a6699cdff15944b839a661b6bdaf02638e2b5998df86e898240083",
    "knn-n3000-k3-chunk-100": "c424a9f29f4be92acf83f3d5eecb469e49690287d18fc420a1ae6bd29737f6b0",
    "knn-n3000": "70330170f00ba4a950913a30a8760232d77921b088d590d0c4ee02bddee86008",
    "nn-input-closed": "210a9fc0132c7c4eae6e4dc5b971d3af6ce3b201c1a0112d6c50e004e74f5ed4",
    "nn-input-clustered": "41b98c221629baab99dc90ac90b546880ba299b7bd5c0ba4d38ae660ea4c2630",
    "nn-n3000": "9553da1648f0050da23d392cef7423de254020f4396ae259f18acb4c9ef24cb2",
    "sa-closed-n200": "8df3400e2e18d8c2abd995c9ea738c368384e28f0c859c92d7343a284e67d27c",
    "sa-closed-paper-budget-n10000": "3302a41ac906ef62f55243511ef591b82b6888a4afc765d651ce0124c632c8bc",
    "sa-nn-init-closed": "ac3ab4af1c1e54741abce984d3248745e6bffce582c3e44abf3d08ae8083177a",
    "sa-paper-budget-n300": "3d7c823a34dfa770cb607c39e951d9e1a740a2671d178a3a549f8acc39c75c9a",
    "sa-paper-budget-n10000": "30d02ca785a928a82fea2249c33fdb2f2aa498cdc5aeeb097695d5878973821d",
    "simulate-fixed-csv": "3a27c3cc521bbe492398c87dbc137f36d46151698a4fe9798dda85a311cc71a4",
    "simulate-fixed-json": "c3904f9cbe5b6b1c79356f1e82591978dd3abbd2f67b690abc44d58c4ab3d37a",
    "simulate-rotate-csv": "1e655fa883c3ddb3b0bafa219252e54e7240f2aa4f0b94b28aae5aee0ee11c50",
    "simulate-rotate-json": "78f1787148784b8fdbac27fd1bed1ad61e66ff9143b0d1eb98e26e04898d2b6d",
    "simulate-rotate-n400": "8c0fd73fae930b42afba75565dd3fc6a31bf622ea468e2cc2686824f436a11a9",
    "simulate-rotate-n2000": "788dba0dca75aa6ab965edbd4c87f22f22b33bcb63305b726626a31ef4f9630f",
    "simulate-rotate-wrap-n300": "a7b597d7ea343a7b1c2aa92b4f0d665888a3f8e1afbc0025836de3765bab77bc",
}


def environment() -> str:
    """This interpreter, numpy, C library and machine, as ``CHECKED_ON`` names them."""
    libc = " ".join(platform.libc_ver()).strip() or "an unnamed C library"  # libc_ver names glibc only
    return f"Python {platform.python_version()}, numpy {np.__version__}, {libc}, {platform.machine()}"


def _drop_wall_times(name: str, out: str) -> str:
    if name.startswith("bench-csv"):
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
    wrap_config_file = tmp_path / "wrap.cfg"
    wrap_config_file.write_text(WRAP_CONFIG)
    lattice_file = tmp_path / "lattice.txt"
    lattice_file.write_text(LATTICE)
    clustered_file = tmp_path / "clustered.txt"
    clustered_file.write_text(CLUSTERED)
    mixed_file = tmp_path / "mixed.txt"
    mixed_file.write_text(MIXED)
    assert main(["gen", "--n", "35", "--width", "900", "--height", "600", "--seed", "8",
                 "--output", str(field_file)]) == 0
    argv = [a.format(field=field_file, config=config_file, long_config=long_config_file,
                     wrap_config=wrap_config_file, lattice=lattice_file,
                     clustered=clustered_file, mixed=mixed_file) for a in CASES[name]]
    capsys.readouterr()
    assert main(argv) == 0
    out = _drop_wall_times(name, capsys.readouterr().out)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DIGESTS[name], f"{name} gave {digest} on {environment()}; pinned on {CHECKED_ON}"


def test_every_case_has_one_digest():
    assert set(CASES) == set(DIGESTS)
