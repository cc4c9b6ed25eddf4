"""One name table: the package's ``_EXPORTS`` is what ``wsnroute.cli`` binds its call sites from.

What a read loads is checked in fresh interpreters, as in
``test_startup.py``, since this process has already loaded every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsnroute

SRC = Path(__file__).resolve().parents[1] / "src"
SHOW = "; print(*sorted(m for m in sys.modules if m.startswith('wsnroute.') and m != 'wsnroute.cli'))"

# Reads every export of one module from wsnroute.cli before any main call,
# then prints the workbench modules loaded and the names whose object is not
# the defining module's.
READ_FROM_CLI = (
    "import importlib, sys, wsnroute, wsnroute.cli as cli\n"
    "names = [n for n, m in wsnroute._EXPORTS.items() if m == sys.argv[1]]\n"
    "got = {n: getattr(cli, n) for n in names}\n"
    "loaded = sorted(m for m in sys.modules if m.startswith('wsnroute.') and m != 'wsnroute.cli')\n"
    "defining = importlib.import_module('wsnroute.' + sys.argv[1])\n"
    "print(*loaded)\n"
    "print(len(names), *(n for n in names if got[n] is not getattr(defining, n)))\n"
)


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    return run.stdout.splitlines()


@pytest.mark.parametrize("module", sorted(set(wsnroute._EXPORTS.values())))
def test_cli_reads_each_export_from_its_module_and_loads_only_what_importing_it_does(module):
    loaded, (count, *wrong) = (line.split() for line in _run("-c", READ_FROM_CLI, module))
    assert int(count) > 0
    assert wrong == []
    (alone,) = _run("-c", f"import sys, wsnroute.{module}" + SHOW)
    assert loaded == alone.split()


def test_random_initial_route_and_format_coord_are_exported():
    assert wsnroute.random_initial_route is wsnroute.anneal.random_initial_route
    assert wsnroute.format_coord is wsnroute.numtext.format_coord


def test_dir_lists_every_export_and_submodule():
    listed = dir(wsnroute)
    assert listed == sorted(listed)
    assert {*wsnroute._EXPORTS, *wsnroute._SUBMODULES, "random_initial_route", "format_coord"} <= set(listed)
