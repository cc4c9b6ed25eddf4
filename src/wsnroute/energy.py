"""Radio energy model, delay parameters and the battery that simulate reads.

Implements the first-order radio model:

    E_tx(b, d) = e_elec * b + eps_amp * b * d^alpha
    E_rx(b)    = e_elec * b

``tx_energy`` alone computes ``d^alpha``, for one hop or a round's array:
``d * d`` at the default alpha = 2, which is correctly rounded, so the
default config's energies are the same bits on every host, and the C
library's ``pow`` at any other alpha.

The delay model's parameters and the battery level live here too, so that
one ``EnergyConfig`` holds every setting simulate reads.
The defaults below are workbench conventions, not measured hardware values;
everything is configurable, including via a flat key=value file. Each
setting is checked where it is built: finite and in range, never NaN;
only ``d_max_s`` may be +inf.

Args conventions: energies in joules, distances in meters (field units),
packet sizes in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np


def _check_positive(what: str, **values: float) -> None:
    """Raise ValueError unless every value is positive and finite; NaN fails every comparison."""
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{what} {name} must be positive and finite, got {v!r}")


@dataclass(frozen=True)
class RadioParams:
    """First-order radio constants.

    Args:
        e_elec: Electronics energy per bit (J/bit).
        eps_amp: Amplifier energy per bit per meter^alpha (J/bit/m^alpha).
        alpha: Path-loss exponent, between 2 (free space) and 4.
        packet_bits: Packet size used by lifetime accounting.
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
class DelayParams:
    """Per-hop delay model and the end-to-end deadline (seconds, meters/second); no deadline is +inf."""

    per_hop_s: float = 1e-3
    prop_speed: float = 3e8
    d_max_s: float = math.inf

    def __post_init__(self):
        _check_positive("delay parameter", per_hop_s=self.per_hop_s, prop_speed=self.prop_speed)
        if not self.d_max_s > 0:
            raise ValueError(f"delay parameter d_max_s must be positive, got {self.d_max_s!r}")


def tx_energy(p: RadioParams, bits: int, d: float | np.ndarray) -> float | np.ndarray:
    """Transmission energy for ``bits`` over distance ``d``, or over each of a float64 array of them.

    ``d**alpha`` is ``d * d`` at alpha 2 and C ``pow`` through ``math.pow`` at
    any other alpha, so an array entry has the scalar call's bits. Raises
    ValueError naming the first finite ``d`` whose power overflows; an
    infinite ``d``, or a charge that overflows, costs inf without a warning.
    """
    lengths = np.asarray(d, dtype=np.float64).reshape(-1)
    if (lengths < 0).any():
        raise ValueError(f"distance must be >= 0, got {float(lengths[lengths < 0][0])}")
    with np.errstate(over="ignore"):  # a Python float overflows to inf silently too
        if p.alpha == 2.0:
            powers = lengths * lengths
        else:
            ds = lengths.tolist()
            try:
                powers = np.fromiter(map(math.pow, ds, repeat(p.alpha)), np.float64, len(ds))
            except OverflowError:  # C pow raises on a finite d only; that hop is named below
                powers = np.fromiter(map(_pow_or_inf, ds, repeat(p.alpha)), np.float64, len(ds))
        overflowed = np.flatnonzero(np.isinf(powers) & np.isfinite(lengths))
        if len(overflowed):
            raise ValueError(f"hop of {float(lengths[overflowed[0]])!r} m overflows d**alpha at alpha={p.alpha!r}")
        charges = p.e_elec * bits + p.eps_amp * bits * powers
    return charges if np.ndim(d) else float(charges[0])


def _pow_or_inf(d: float, alpha: float) -> float:
    """C ``pow(d, alpha)``, or inf where it overflows."""
    try:
        return math.pow(d, alpha)
    except OverflowError:
        return math.inf


def rx_energy(p: RadioParams, bits: int) -> float:
    """Reception energy for ``bits``; distance-independent."""
    return p.e_elec * bits


@dataclass(frozen=True)
class EnergyConfig:
    """Every setting of simulate, loadable from key=value text.

    ``initial_battery_j`` is every node's battery at the start, in joules.
    """

    radio: RadioParams = RadioParams()
    delay: DelayParams = DelayParams()
    initial_battery_j: float = 0.5

    def __post_init__(self):
        _check_positive("battery", initial_battery_j=self.initial_battery_j)


# key -> (the dataclass that owns it, int or float as the field is declared)
_KEYS = {
    f.name: (cls, int if f.type == "int" else float)
    for cls in (RadioParams, DelayParams, EnergyConfig)
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
        delay=DelayParams(**values[DelayParams]),
        **values[EnergyConfig],
    )
