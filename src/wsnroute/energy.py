"""Radio energy and composite link-cost model.

Implements the first-order radio model:

    E_tx(b, d) = e_elec * b + eps_amp * b * d^alpha
    E_rx(b)    = e_elec * b

and a weighted link cost combining normalized transmission energy, the
receiver's depleted battery fraction, and a distance-saturating error term.
The delay model's parameters and the battery level live here too, so that
one ``EnergyConfig`` holds every setting simulate and the link cost read.
The defaults below are workbench conventions, not measured hardware values;
everything is configurable, including via a flat key=value file. Each
setting is checked where it is built: finite and in range, never NaN;
only ``d_max_s`` may be +inf. Residual battery is one float64 array of
joules per node, which the lifetime simulator drains; the functions here
are pure and only read one.

Args conventions: energies in joules, distances in meters (field units),
packet sizes in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .field import SensorField, hop_lengths
from .routes import Route, validate_route

_LN2 = math.log(2.0)


def _check_positive(what: str, **values: float) -> None:
    """Raise ValueError unless every value is positive and finite; NaN fails every comparison."""
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{what} {name} must be positive and finite, got {v!r}")


class DeadNodeError(RuntimeError):
    """An operation required a sender whose battery is exhausted."""


@dataclass(frozen=True)
class RadioParams:
    """First-order radio constants.

    Args:
        e_elec: Electronics energy per bit (J/bit).
        eps_amp: Amplifier energy per bit per meter^alpha (J/bit/m^alpha).
        alpha: Path-loss exponent, between 2 (free space) and 4.
        packet_bits: Packet size used by link and lifetime accounting.
    """

    e_elec: float = 50e-9
    eps_amp: float = 100e-12
    alpha: float = 2.0
    packet_bits: int = 2000

    def __post_init__(self):
        _check_positive("radio parameter", e_elec=self.e_elec, eps_amp=self.eps_amp, packet_bits=self.packet_bits)
        if not 2.0 <= self.alpha <= 4.0:
            raise ValueError(f"alpha must be in [2, 4], got {self.alpha}")
        # An infinite eps_amp * bits would charge inf * 0.0 = NaN for a hop of length 0.
        for name in ("e_elec", "eps_amp"):
            try:
                per_packet = getattr(self, name) * self.packet_bits
            except OverflowError:  # an int packet_bits beyond the float range
                per_packet = math.inf
            if per_packet == math.inf:
                raise ValueError(f"radio parameter {name} * packet_bits overflows, "
                                 f"got {getattr(self, name)!r} * {self.packet_bits}")


@dataclass(frozen=True)
class LinkCostParams:
    """Weights for the composite link cost.

    ``error_ref_distance`` is the link length at which the error term equals
    0.5; it also normalizes the energy term to 1.0.
    """

    w_energy: float = 1.0
    w_reserve: float = 1.0
    w_error: float = 1.0
    error_ref_distance: float = 100.0

    def __post_init__(self):
        for name in ("w_energy", "w_reserve", "w_error"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"link cost weight {name} must be finite and >= 0, got {getattr(self, name)!r}")
        if self.w_energy == self.w_reserve == self.w_error == 0:
            raise ValueError("at least one link cost weight must be nonzero")
        _check_positive("link cost parameter", error_ref_distance=self.error_ref_distance)


@dataclass(frozen=True)
class DelayParams:
    """Per-hop delay model and the end-to-end deadline (seconds, meters/second); no deadline is +inf."""

    per_hop_s: float = 1e-3
    prop_speed: float = 3e8
    d_max_s: float = math.inf

    def __post_init__(self):
        _check_positive("delay parameter", per_hop_s=self.per_hop_s, prop_speed=self.prop_speed)
        if not self.d_max_s > 0:
            raise ValueError(f"delay parameter d_max_s must be positive, got {self.d_max_s!r}")


def tx_energy(p: RadioParams, bits: int, d: float) -> float:
    """Transmission energy for ``bits`` over distance ``d``.

    Raises ValueError when ``d**alpha`` overflows, which Python floats
    report as OverflowError rather than inf.
    """
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    try:
        return p.e_elec * bits + p.eps_amp * bits * d**p.alpha
    except OverflowError:
        raise ValueError(f"hop of {d!r} m overflows d**alpha at alpha={p.alpha!r}") from None


def rx_energy(p: RadioParams, bits: int) -> float:
    """Reception energy for ``bits``; distance-independent."""
    return p.e_elec * bits


def per_link_error(d: float, ref: float) -> float:
    """Saturating error term: 0 at d=0, 0.5 at d=ref, approaching 1 as d grows."""
    return 1.0 - math.exp(-_LN2 * d / ref)


def link_cost(field: SensorField, i: int, j: int, residual: np.ndarray, cfg: EnergyConfig) -> float:
    """Composite cost of sending one packet from node i to node j.

    ``residual`` holds each node's remaining battery in joules. Sum of, with
    the weights of ``cfg.link``: w_energy * tx energy normalized so a link at
    error_ref_distance costs exactly 1; w_reserve * the receiver's depleted
    fraction of ``cfg.initial_battery_j``; w_error * the per-link error term.
    """
    if i == j:
        raise ValueError(f"link endpoints must differ, got i == j == {i}")
    if len(residual) != len(field):
        raise ValueError(f"residual holds {len(residual)} nodes, field has {len(field)}")
    return _hop_cost(hop_lengths(field.coords, (i, j)).item(), i, j, residual, cfg)


def _hop_cost(d: float, i: int, j: int, residual: np.ndarray, cfg: EnergyConfig) -> float:
    """:func:`link_cost` of a hop from i to j whose length ``d`` is already known."""
    if residual[i] <= 0:
        raise DeadNodeError(f"node {i} has no residual energy")
    rp, lcp = cfg.radio, cfg.link
    e_norm = tx_energy(rp, rp.packet_bits, lcp.error_ref_distance)
    energy_term = tx_energy(rp, rp.packet_bits, d) / e_norm
    reserve_term = 1.0 - float(residual[j]) / cfg.initial_battery_j
    return (
        lcp.w_energy * energy_term
        + lcp.w_reserve * reserve_term
        + lcp.w_error * per_link_error(d, lcp.error_ref_distance)
    )


def route_cost(field: SensorField, route: Route, residual: np.ndarray, cfg: EnergyConfig) -> float:
    """Sum of link costs over consecutive pairs (plus the closing link iff closed).

    Note this is not geometric length: with weights (1,0,0) and alpha=2 it
    ranks routes by the sum of squared hop distances.
    """
    validate_route(field, route)
    if len(residual) != len(field):
        raise ValueError(f"residual holds {len(residual)} nodes, field has {len(field)}")
    order = route.order
    lengths = hop_lengths(field.coords, order, route.closed).tolist()
    total = 0.0
    # zip stops after the last hop, so order[:1] is the closing receiver iff closed.
    for a, b, d in zip(order, order[1:] + order[:1], lengths):
        total += _hop_cost(d, a, b, residual, cfg)
    return total


@dataclass(frozen=True)
class EnergyConfig:
    """Every setting of simulate and the link cost, loadable from key=value text.

    ``initial_battery_j`` is every node's battery at the start, in joules.
    """

    radio: RadioParams = RadioParams()
    link: LinkCostParams = LinkCostParams()
    delay: DelayParams = DelayParams()
    initial_battery_j: float = 0.5

    def __post_init__(self):
        _check_positive("battery", initial_battery_j=self.initial_battery_j)


# key -> (the dataclass that owns it, int or float as the field is declared)
_KEYS = {
    f.name: (cls, int if f.type == "int" else float)
    for cls in (RadioParams, LinkCostParams, DelayParams, EnergyConfig)
    for f in fields(cls)
    if f.type in ("int", "float")
}


def parse_config(text: str) -> EnergyConfig:
    """Parse flat ``key=value`` lines; ``#`` starts a comment, blanks ignored.

    Unknown keys are rejected so typos fail loudly, and so is a key given
    twice, which would otherwise silently keep the later value. Any subset of
    keys may be given; the rest keep their dataclass defaults.
    """
    values: dict[type, dict[str, float | int]] = {cls: {} for cls, _ in _KEYS.values()}
    first_line: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"config line {line_no}: {key} is given again, first on line {first_line[key]}")
        first_line[key] = line_no
        cls, kind = _KEYS[key]
        try:
            values[cls][key] = kind(val)
        except ValueError:
            raise ValueError(f"config line {line_no}: bad value for {key}: {val!r}") from None
    return EnergyConfig(
        radio=RadioParams(**values[RadioParams]),
        link=LinkCostParams(**values[LinkCostParams]),
        delay=DelayParams(**values[DelayParams]),
        **values[EnergyConfig],
    )
