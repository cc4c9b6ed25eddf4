"""Radio model and composite link-cost tests."""

import math

import pytest

from wsnroute import (
    DeadNodeError,
    EnergyState,
    LinkCostParams,
    Point,
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


def chain_field(xs):
    pts = tuple(Point(float(x), 0.0) for x in xs)
    return SensorField(coords=pts, width=max(max(xs), 1.0), height=1.0)


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
    state = EnergyState.fresh(2, 1.0)
    cost = link_cost(f, 0, 1, state, RadioParams(), LinkCostParams())
    assert cost == pytest.approx(1.5, rel=1e-12)


def test_link_cost_zero_when_only_reserve_weighted_and_full():
    f = chain_field([0, 100])
    state = EnergyState.fresh(2, 1.0)
    lcp = LinkCostParams(w_energy=0.0, w_reserve=1.0, w_error=0.0)
    assert link_cost(f, 0, 1, state, RadioParams(), lcp) == 0.0


def test_link_cost_rises_as_receiver_drains():
    f = chain_field([0, 100])
    state = EnergyState.fresh(2, 1.0)
    rp, lcp = RadioParams(), LinkCostParams()
    prev = link_cost(f, 0, 1, state, rp, lcp)
    for residual in (0.8, 0.5, 0.2, 0.05):
        state.residual_j[1] = residual
        cur = link_cost(f, 0, 1, state, rp, lcp)
        assert cur > prev
        prev = cur


def test_link_cost_errors():
    f = chain_field([0, 100])
    state = EnergyState.fresh(2, 1.0)
    with pytest.raises(ValueError):
        link_cost(f, 1, 1, state, RadioParams(), LinkCostParams())
    state.residual_j[0] = 0.0
    with pytest.raises(DeadNodeError):
        link_cost(f, 0, 1, state, RadioParams(), LinkCostParams())


def test_route_cost_single_node():
    f = chain_field([0])
    state = EnergyState.fresh(1, 1.0)
    assert route_cost(f, Route([0]), state, RadioParams(), LinkCostParams()) == 0.0


def test_route_cost_error_only_weights_stay_bounded():
    f = chain_field([0, 50, 500, 5000])
    state = EnergyState.fresh(4, 1.0)
    lcp = LinkCostParams(w_energy=0.0, w_reserve=0.0, w_error=1.0)
    cost = route_cost(f, Route([0, 1, 2, 3]), state, RadioParams(), lcp)
    assert 0.0 <= cost < 3.0


def test_route_cost_collinear_hand_computed():
    # two links at d=100 and d=200, full batteries, unit weights
    f = chain_field([0, 100, 300])
    state = EnergyState.fresh(3, 1.0)
    rp, lcp = RadioParams(), LinkCostParams()
    e_norm = rp.e_elec * 2000 + rp.eps_amp * 2000 * 100.0**2
    tx200 = rp.e_elec * 2000 + rp.eps_amp * 2000 * 200.0**2
    want = (1.0 + 0.0 + (1 - math.exp(-math.log(2.0) * 1.0))) + (
        tx200 / e_norm + 0.0 + (1 - math.exp(-math.log(2.0) * 2.0))
    )
    got = route_cost(f, Route([0, 1, 2]), state, rp, lcp)
    assert got == pytest.approx(want, rel=1e-12)


def test_route_cost_closed_adds_return_link():
    f = chain_field([0, 100, 300])
    state = EnergyState.fresh(3, 1.0)
    rp, lcp = RadioParams(), LinkCostParams()
    open_cost = route_cost(f, Route([0, 1, 2]), state, rp, lcp)
    closed_cost = route_cost(f, Route([0, 1, 2], closed=True), state, rp, lcp)
    assert closed_cost == pytest.approx(open_cost + link_cost(f, 2, 0, state, rp, lcp), rel=1e-12)


def test_energy_state_validation():
    with pytest.raises(ValueError):
        EnergyState.fresh(0, 1.0)
    with pytest.raises(ValueError):
        EnergyState.fresh(3, 0.0)


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
