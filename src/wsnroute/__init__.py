"""Sensor-field routing workbench.

Generates flat sensing fields, builds kNN graphs over a uniform cell grid,
constructs visit-all-nodes routes greedily or by simulated annealing, scores
them under a radio energy / link-cost model with a delay constraint, and
simulates round-based network lifetime.
"""

from .anneal import (
    MOVE_SWAP,
    MOVE_TWO_OPT,
    AnnealSchedule,
    brute_force_optimal,
    default_schedule,
    sa_route,
    undersized_schedule,
)
from .bench import (
    BenchConfig,
    BenchReport,
    BenchRun,
    export_report,
    parse_report,
    run_experiment,
)
from .energy import (
    DeadNodeError,
    DelayParams,
    EnergyConfig,
    LinkCostParams,
    RadioParams,
    link_cost,
    parse_config,
    per_link_error,
    route_cost,
    rx_energy,
    tx_energy,
)
from .field import (
    DatasetError,
    DatasetParseError,
    EmptyDatasetError,
    Point,
    SensorField,
    distance,
    generate_uniform,
    parse_dataset,
    write_dataset,
)
from .knn import (
    KnnGraph,
    brute_force_knn,
    build_knn_graph,
    dump_graph,
    maxk_knn_graph,
)
from .lifetime import (
    POLICY_FIXED,
    POLICY_ROTATE,
    DelayVerdict,
    SimReport,
    check_delay,
    path_delay,
    simulate_lifetime,
)
from .routes import (
    Route,
    dump_route,
    nn_route,
    route_length,
    validate_route,
)

__all__ = [name for name in dir() if not name.startswith("_")]
