"""Sensor-field routing workbench.

Generates flat sensing fields, builds kNN graphs over a uniform cell grid,
constructs visit-all-nodes routes greedily or by simulated annealing, and
simulates round-based network lifetime under a first-order radio energy
model with an end-to-end delay constraint.

Each export is loaded from its submodule the first time it is read
(PEP 562), so ``import wsnroute`` and ``import wsnroute.cli`` load no
workbench module, and a process compiles only the modules its work reaches.
"""

import importlib

# Export -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("AnnealSchedule", "default_schedule", "sa_route", "undersized_schedule"), "anneal"),
    **dict.fromkeys(("BenchConfig", "BenchReport", "BenchRun", "export_report", "parse_report",
                     "run_experiment"), "bench"),
    **dict.fromkeys(("DelayParams", "EnergyConfig", "RadioParams", "parse_config", "rx_energy",
                     "tx_energy"), "energy"),
    **dict.fromkeys(("DatasetError", "DatasetParseError", "EmptyDatasetError", "SensorField",
                     "generate_uniform", "parse_dataset", "write_dataset"), "field"),
    **dict.fromkeys(("KnnGraph", "build_knn_graph", "dump_graph"), "knn"),
    **dict.fromkeys(("POLICY_FIXED", "POLICY_ROTATE", "SimReport", "check_delay", "path_delay",
                     "simulate_lifetime"), "lifetime"),
    **dict.fromkeys(("Route", "dump_route", "nn_route", "route_length", "validate_route"), "routes"),
}
_SUBMODULES = ("anneal", "bench", "energy", "field", "grid", "knn", "lifetime", "numtext", "routes")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
