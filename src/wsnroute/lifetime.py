"""Round-based energy depletion simulation and the path delay constraint.

Each round replays a data-collection sweep along a route: every hop charges
the sender with transmission energy and the receiver with reception energy,
so interior nodes pay both, the first node only transmits and the last only
receives. Lifetime is the number of fully completed rounds before the first
node dies. A node dies when its round charge exceeds its residual; it spends
what it has (residual clamps to 0), the round is aborted without charging
the survivors, and the simulation stops.

The ``rotate-start`` policy rebuilds the greedy route from start node
``round_index mod n`` each round, spreading the start/terminal roles across
the network; ``fixed-route`` replays one route every round. Rotating rounds
share one kNN graph of the field, whose slots settle most greedy steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import DelayParams, EnergyState, RadioParams, rx_energy, tx_energy
from .field import SensorField, hop_lengths
from .knn import build_knn_graph
from .routes import Route, nn_route, validate_route

POLICY_FIXED = "fixed-route"
POLICY_ROTATE = "rotate-start"
_POLICIES = (POLICY_FIXED, POLICY_ROTATE)
# Neighbours per node in the graph rotating rounds share. At n=2000, 4 slots
# settle 88% of a route's steps and 8 settle 94%. On the lifetime-rotate
# benchmark (2-vCPU x86-64 VM), 8 took 13% less time per op than 4, but
# raised peak memory by 6% over the graph-free build against 3%.
_ROTATE_K = 4


@dataclass(frozen=True)
class DelayVerdict:
    feasible: bool
    excess_s: float = 0.0


@dataclass
class SimReport:
    """Outcome of a lifetime run; field order is the order ``simulate`` prints."""

    rounds_completed: int
    first_death_round: int | None
    total_energy_j: float
    deadline_violations: int
    per_node_residual: list[float]


def path_delay(field: SensorField, route: Route, dp: DelayParams) -> float:
    """End-to-end delay: per hop, propagation (d / prop_speed) plus processing."""
    total = 0.0
    for d in hop_lengths(field.coords, route.order, route.closed).tolist():
        total += d / dp.prop_speed + dp.per_hop_s
    return total


def check_delay(field: SensorField, route: Route, dp: DelayParams) -> DelayVerdict:
    """Feasible iff the end-to-end delay is within d_max_s (boundary inclusive)."""
    delay = path_delay(field, route, dp)
    if delay <= dp.d_max_s:
        return DelayVerdict(feasible=True)
    return DelayVerdict(feasible=False, excess_s=delay - dp.d_max_s)


def _round_charges(field: SensorField, route: Route, rp: RadioParams) -> list[float]:
    """Per-node round charge for one sweep along the route."""
    n = len(field)
    charges = [0.0] * n
    order = route.order
    lengths = hop_lengths(field.coords, order, route.closed).tolist()
    bits = rp.packet_bits
    # zip stops after the last hop, so order[:1] is the closing receiver iff closed.
    for a, b, d in zip(order, order[1:] + order[:1], lengths):
        charges[a] += tx_energy(rp, bits, d)
        charges[b] += rx_energy(rp, bits)
    return charges


def simulate_lifetime(
    field: SensorField,
    policy: str,
    state: EnergyState,
    rp: RadioParams,
    dp: DelayParams,
    max_rounds: int,
    route: Route | None = None,
) -> SimReport:
    """Run up to ``max_rounds`` collection rounds, stopping at the first death.

    ``fixed-route`` replays ``route`` (defaults to the greedy route from node
    0); ``rotate-start`` regenerates the greedy route with a rotating start
    and takes no ``route``. Deadline violations are counted for completed
    rounds whose route misses d_max_s. Deterministic given its inputs.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    n = len(field)
    if len(state.residual_j) != n:
        raise ValueError(f"energy state tracks {len(state.residual_j)} nodes, field has {n}")
    rotate = policy == POLICY_ROTATE
    if rotate and route is not None:
        raise ValueError(f"route applies to {POLICY_FIXED} only; {POLICY_ROTATE} starts round r at node r mod n")

    def plan(rt: Route) -> tuple[list[float], bool]:
        return _round_charges(field, rt, rp), check_delay(field, rt, dp).feasible

    graph = None
    if not rotate:
        route = route if route is not None else nn_route(field, 0)
        validate_route(field, route)
        charges, within_deadline = plan(route)
    elif n > 1 and max_rounds > 0:
        graph = build_knn_graph(field, min(_ROTATE_K, n - 1), 256)

    residual = state.residual_j
    total = 0.0
    rounds_completed = 0
    first_death_round = None
    violations = 0
    for round_idx in range(max_rounds):
        if rotate:
            charges, within_deadline = plan(nn_route(field, round_idx % n, graph))
        dying = [i for i in range(n) if charges[i] > residual[i]]
        if dying:
            for i in dying:
                total += residual[i]
                residual[i] = 0.0
            first_death_round = round_idx + 1
            break
        for i, c in enumerate(charges):
            residual[i] -= c
            total += c
        rounds_completed += 1
        if not within_deadline:
            violations += 1
    return SimReport(
        rounds_completed=rounds_completed,
        first_death_round=first_death_round,
        total_energy_j=total,
        deadline_violations=violations,
        per_node_residual=list(residual),
    )
