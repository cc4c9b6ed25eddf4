"""Radio model and composite link-cost tests."""

import math

import numpy as np
import pytest

from wsnroute import (
    DeadNodeError,
    DelayParams,
    EnergyConfig,
    LinkCostParams,
    RadioParams,
    Route,
    SensorField,
    link_cost,
    parse_config,
    per_link_error,
    route_cost,
    rx_energy,
    tx_energy,
)
from wsnroute import energy
from oracles import Point


def chain_field(xs):
    pts = tuple(Point(float(x), 0.0) for x in xs)
    return SensorField(coords=pts)


def test_tx_energy_zero_distance_is_electronics_only():
    p = RadioParams()
    assert tx_energy(p, 1234, 0.0) == p.e_elec * 1234


def test_tx_energy_default_parameters_worked_example():
    # 50e-9*2000 + 100e-12*2000*100^2 = 1.0e-4 + 2.0e-3
    p = RadioParams()
    assert tx_energy(p, 2000, 100.0) == pytest.approx(2.1e-3, rel=1e-12)


def test_tx_energy_strictly_increasing_in_distance():
    p = RadioParams()
    prev = tx_energy(p, 2000, 0.0)
    for d in (1.0, 10.0, 50.0, 200.0, 1e4):
        cur = tx_energy(p, 2000, d)
        assert cur > prev
        prev = cur


def test_tx_energy_rejects_negative_distance():
    with pytest.raises(ValueError):
        tx_energy(RadioParams(), 100, -1.0)


def test_rx_energy():
    p = RadioParams()
    assert rx_energy(p, 0) == 0.0
    assert rx_energy(p, 2000) == pytest.approx(1.0e-4, rel=1e-12)
    assert rx_energy(p, 2000) == tx_energy(p, 2000, 0.0)


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(e_elec=0.0)
    with pytest.raises(ValueError):
        RadioParams(alpha=1.5)
    with pytest.raises(ValueError):
        RadioParams(alpha=4.5)
    RadioParams(alpha=4.0)  # boundary allowed
    RadioParams(e_elec=8e304, eps_amp=8e304)  # 1.6e308 J per 2000-bit packet: finite, allowed


def test_link_cost_params_validation():
    with pytest.raises(ValueError):
        LinkCostParams(w_energy=-1.0)
    with pytest.raises(ValueError):
        LinkCostParams(w_energy=0.0, w_reserve=0.0, w_error=0.0)
    with pytest.raises(ValueError):
        LinkCostParams(error_ref_distance=0.0)


def test_error_term_anchors():
    assert per_link_error(0.0, 100.0) == 0.0
    assert per_link_error(100.0, 100.0) == pytest.approx(0.5, rel=1e-12)
    assert per_link_error(1e9, 100.0) == pytest.approx(1.0, abs=1e-9)


def test_link_cost_normalization_pin():
    # full batteries, hop exactly at the reference distance, unit weights:
    # 1 (energy, self-normalized) + 0 (reserve) + 0.5 (error) = 1.5
    f = chain_field([0, 100])
    cost = link_cost(f, 0, 1, np.full(2, 1.0), EnergyConfig(initial_battery_j=1.0))
    assert cost == pytest.approx(1.5, rel=1e-12)


def test_link_cost_zero_when_only_reserve_weighted_and_full():
    f = chain_field([0, 100])
    cfg = EnergyConfig(link=LinkCostParams(w_energy=0.0, w_reserve=1.0, w_error=0.0), initial_battery_j=1.0)
    assert link_cost(f, 0, 1, np.full(2, 1.0), cfg) == 0.0


def test_link_cost_rises_as_receiver_drains():
    f = chain_field([0, 100])
    residual = np.full(2, 1.0)
    cfg = EnergyConfig(initial_battery_j=1.0)
    prev = link_cost(f, 0, 1, residual, cfg)
    for left in (0.8, 0.5, 0.2, 0.05):
        residual[1] = left
        cur = link_cost(f, 0, 1, residual, cfg)
        assert cur > prev
        prev = cur


def test_link_cost_errors():
    f = chain_field([0, 100])
    residual = np.full(2, 1.0)
    cfg = EnergyConfig(initial_battery_j=1.0)
    with pytest.raises(ValueError):
        link_cost(f, 1, 1, residual, cfg)
    with pytest.raises(ValueError, match="residual holds 3 nodes"):
        link_cost(f, 0, 1, np.full(3, 1.0), cfg)
    with pytest.raises(ValueError, match="residual holds 1 nodes"):
        route_cost(f, Route([0, 1]), np.full(1, 1.0), cfg)
    residual[0] = 0.0
    with pytest.raises(DeadNodeError):
        link_cost(f, 0, 1, residual, cfg)


def test_route_cost_single_node():
    f = chain_field([0])
    assert route_cost(f, Route([0]), np.full(1, 1.0), EnergyConfig(initial_battery_j=1.0)) == 0.0


def test_route_cost_error_only_weights_stay_bounded():
    f = chain_field([0, 50, 500, 5000])
    cfg = EnergyConfig(link=LinkCostParams(w_energy=0.0, w_reserve=0.0, w_error=1.0), initial_battery_j=1.0)
    cost = route_cost(f, Route([0, 1, 2, 3]), np.full(4, 1.0), cfg)
    assert 0.0 <= cost < 3.0


def test_route_cost_collinear_hand_computed():
    # two links at d=100 and d=200, full batteries, unit weights
    f = chain_field([0, 100, 300])
    rp = RadioParams()
    e_norm = rp.e_elec * 2000 + rp.eps_amp * 2000 * 100.0**2
    tx200 = rp.e_elec * 2000 + rp.eps_amp * 2000 * 200.0**2
    want = (1.0 + 0.0 + (1 - math.exp(-math.log(2.0) * 1.0))) + (
        tx200 / e_norm + 0.0 + (1 - math.exp(-math.log(2.0) * 2.0))
    )
    got = route_cost(f, Route([0, 1, 2]), np.full(3, 1.0), EnergyConfig(initial_battery_j=1.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_route_cost_closed_adds_return_link():
    f = chain_field([0, 100, 300])
    residual = np.array([1.0, 0.25, 0.5])  # drained receivers raise every link's cost
    cfg = EnergyConfig(initial_battery_j=1.0)
    open_cost = route_cost(f, Route([0, 1, 2]), residual, cfg)
    closed_cost = route_cost(f, Route([0, 1, 2], closed=True), residual, cfg)
    assert closed_cost == pytest.approx(open_cost + link_cost(f, 2, 0, residual, cfg), rel=1e-12)


def test_link_cost_reads_every_link_key_and_the_battery_through_the_config():
    # one hop of 100 m into a receiver at 0.3 J: each key moves its own term
    f = chain_field([0, 100])
    residual = np.array([1.0, 0.3])
    rp = RadioParams()
    e_norm = tx_energy(rp, rp.packet_bits, 200.0)
    energy, error = tx_energy(rp, rp.packet_bits, 100.0) / e_norm, per_link_error(100.0, 200.0)
    lcp = LinkCostParams(w_energy=2.0, w_reserve=3.0, w_error=5.0, error_ref_distance=200.0)
    for battery in (0.5, 2.0):
        want = 2.0 * energy + 3.0 * (1.0 - 0.3 / battery) + 5.0 * error
        got = link_cost(f, 0, 1, residual, EnergyConfig(link=lcp, initial_battery_j=battery))
        assert got == pytest.approx(want, rel=1e-12)
        assert route_cost(f, Route([0, 1]), residual, EnergyConfig(link=lcp, initial_battery_j=battery)) == got


def test_battery_must_be_positive_and_finite():
    for battery in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="initial_battery_j"):
            EnergyConfig(initial_battery_j=battery)


def test_parse_config_full_and_partial():
    cfg = parse_config(
        """
        # radio
        e_elec = 60e-9
        eps_amp = 120e-12
        alpha = 3
        packet_bits = 512
        w_energy = 2
        w_reserve = 0.5
        w_error = 0   # disabled
        error_ref_distance = 250
        initial_battery_j = 1.5
        per_hop_s = 2e-3
        prop_speed = 2e8
        d_max_s = inf
        """
    )
    assert cfg.radio.e_elec == 60e-9
    assert cfg.radio.packet_bits == 512
    assert cfg.link.w_error == 0.0
    assert cfg.link.error_ref_distance == 250.0
    assert cfg.initial_battery_j == 1.5
    assert math.isinf(cfg.delay.d_max_s)

    partial = parse_config("initial_battery_j = 2.0")
    assert partial.initial_battery_j == 2.0
    assert partial.radio == RadioParams()
    assert partial.link == LinkCostParams()


def test_parse_config_rejects_unknown_key_and_bad_value():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("watts = 3")
    with pytest.raises(ValueError, match="bad value"):
        parse_config("alpha = fast")
    with pytest.raises(ValueError, match="key=value"):
        parse_config("just some words")


def test_parse_config_rejects_a_key_given_twice():
    # the later value would silently win; the error names the key and both lines
    with pytest.raises(ValueError, match=r"config line 4: alpha is given again, first on line 2"):
        parse_config("# radio\nalpha = 2\neps_amp = 1e-12\nalpha=4\n")
    with pytest.raises(ValueError, match="line 2: d_max_s is given again, first on line 1"):
        parse_config("d_max_s = 1\nd_max_s = 1  # the same value twice is still twice\n")


# Every float key parse_config accepts; int keys (packet_bits) refuse "nan" as a bad value.
FLOAT_KEYS = ["e_elec", "eps_amp", "alpha", "w_energy", "w_reserve", "w_error", "error_ref_distance",
              "per_hop_s", "prop_speed", "d_max_s", "initial_battery_j"]


def test_float_keys_are_every_float_key_of_the_config():
    assert set(FLOAT_KEYS) == {key for key, (_, kind) in energy._KEYS.items() if kind is float}


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_parse_config_rejects_nan_and_infinite_values(key, value):
    # NaN passes a `<= 0` bound, so every bound is written to fail it
    if key == "d_max_s" and value == "inf":
        assert parse_config(f"{key} = {value}").delay.d_max_s == math.inf  # no deadline
        return
    with pytest.raises(ValueError, match=key):
        parse_config(f"{key} = {value}")


@pytest.mark.parametrize("text, key", [
    ("eps_amp = 1e306", "eps_amp"),  # 2e309: a hop of length 0 would be charged inf * 0.0 = NaN
    ("e_elec = 1e306", "e_elec"),
    ("packet_bits = 1" + "0" * 400, "e_elec"),  # an int too large to convert to a float
], ids=["eps_amp", "e_elec", "packet_bits"])
def test_parse_config_rejects_a_per_packet_energy_that_overflows(text, key):
    with pytest.raises(ValueError, match=rf"{key} \* packet_bits overflows"):
        parse_config(text)
