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
the network; ``fixed-route`` replays one route every round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import EnergyState, RadioParams, rx_energy, tx_energy
from .field import SensorField, hop_lengths
from .routes import Route, nn_route, validate_route

POLICY_FIXED = "fixed-route"
POLICY_ROTATE = "rotate-start"
_POLICIES = (POLICY_FIXED, POLICY_ROTATE)


@dataclass(frozen=True)
class DelayParams:
    per_hop_s: float = 1e-3
    prop_speed: float = 3e8
    d_max_s: float = math.inf

    def __post_init__(self):
        if self.per_hop_s <= 0 or self.prop_speed <= 0 or self.d_max_s <= 0:
            raise ValueError("delay parameters must be positive")


@dataclass(frozen=True)
class DelayVerdict:
    feasible: bool
    excess_s: float = 0.0


@dataclass
class SimReport:
    rounds_completed: int
    first_death_round: int | None
    total_energy_j: float
    per_node_residual: list[float]
    deadline_violations: int


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
    0); ``rotate-start`` regenerates the greedy route with a rotating start.
    Deadline violations are counted for completed rounds whose route misses
    d_max_s. Deterministic given its inputs.
    """
    if policy not in _POLICIES:
        raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    n = len(field)
    if len(state.residual_j) != n:
        raise ValueError(f"energy state tracks {len(state.residual_j)} nodes, field has {n}")
    fixed_route = None
    fixed_charges = None
    fixed_ok = None
    if policy == POLICY_FIXED:
        fixed_route = route if route is not None else nn_route(field, 0)
        validate_route(field, fixed_route)
        fixed_charges = _round_charges(field, fixed_route, rp)
        fixed_ok = check_delay(field, fixed_route, dp).feasible

    residual = state.residual_j
    total = 0.0
    rounds_completed = 0
    first_death_round = None
    violations = 0
    for round_idx in range(max_rounds):
        if policy == POLICY_ROTATE:
            rt = nn_route(field, round_idx % n)
            charges = _round_charges(field, rt, rp)
            within_deadline = check_delay(field, rt, dp).feasible
        else:
            charges = fixed_charges
            within_deadline = fixed_ok
        dying = [i for i in range(n) if charges[i] > residual[i]]
        if dying:
            for i in dying:
                total += residual[i]
                residual[i] = 0.0
            first_death_round = round_idx + 1
            break
        for i in range(n):
            c = charges[i]
            if c:
                residual[i] -= c
                total += c
        rounds_completed += 1
        if not within_deadline:
            violations += 1
    return SimReport(
        rounds_completed=rounds_completed,
        first_death_round=first_death_round,
        total_energy_j=total,
        per_node_residual=list(residual),
        deadline_violations=violations,
    )
