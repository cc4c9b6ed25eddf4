"""Delay constraint and lifetime simulation tests."""

import math
import warnings

import numpy as np
import pytest

from wsnroute import (
    DelayParams,
    EnergyConfig,
    Point,
    RadioParams,
    Route,
    SensorField,
    check_delay,
    generate_uniform,
    path_delay,
    rx_energy,
    simulate_lifetime,
    tx_energy,
)
from wsnroute.field import hop_lengths
from wsnroute import lifetime
from wsnroute.lifetime import POLICY_FIXED, POLICY_ROTATE, _round_charges


def chain_field(xs):
    pts = tuple(Point(float(x), 0.0) for x in xs)
    return SensorField(coords=pts, width=max(max(xs), 1.0), height=1.0)


# Binary-exact radio constants: every charge is an integer multiple of 2^-18,
# so the battery arithmetic below has no rounding at all.
EXACT_RADIO = RadioParams(e_elec=2.0**-20, eps_amp=2.0**-30, alpha=2.0, packet_bits=1024)


def config(battery, radio=EXACT_RADIO, delay=DelayParams()):
    return EnergyConfig(radio=radio, delay=delay, initial_battery_j=battery)


def test_path_delay_single_node():
    f = chain_field([0])
    assert path_delay(f, Route([0]), DelayParams()) == 0.0


def test_path_delay_two_nodes_worked_example():
    # 300 m at 3e8 m/s plus one 1 ms hop: 1e-6 + 1e-3
    f = chain_field([0, 300])
    dp = DelayParams(per_hop_s=1e-3, prop_speed=3e8)
    assert path_delay(f, Route([0, 1]), dp) == pytest.approx(1.001e-3, rel=1e-12)


def test_path_delay_reversal_symmetric():
    rng = np.random.default_rng(3)
    dp = DelayParams()
    for _ in range(10):
        n = int(rng.integers(2, 10))
        f = generate_uniform(n, 1000, 1000, seed=int(rng.integers(2**32)))
        perm = [int(v) for v in rng.permutation(n)]
        fwd = path_delay(f, Route(order=perm), dp)
        rev = path_delay(f, Route(order=perm[::-1]), dp)
        assert fwd == pytest.approx(rev, rel=1e-12)


def test_path_delay_is_the_left_to_right_hop_sum():
    # the scalar loop the numpy delay replaced, bit for bit
    dp = DelayParams(prop_speed=1e5)
    for n in (1, 2, 3, 200):
        f = generate_uniform(n, 1000, 1000, seed=n)
        order = [int(v) for v in np.random.default_rng(n).permutation(n)]
        for closed in (False, True):
            want = 0.0
            lengths = hop_lengths(f.coords, order, closed)
            for d in lengths.tolist():
                want += d / dp.prop_speed + dp.per_hop_s
            assert path_delay(f, Route(order=order, closed=closed), dp) == want
            assert path_delay(f, Route(order=order, closed=closed), dp, lengths) == want


def test_check_delay_boundary_inclusive():
    f = chain_field([0, 300])
    dp = DelayParams(per_hop_s=1e-3, prop_speed=3e8)
    exact = path_delay(f, Route([0, 1]), dp)
    at_limit = check_delay(f, Route([0, 1]), DelayParams(per_hop_s=1e-3, prop_speed=3e8, d_max_s=exact))
    assert at_limit.feasible
    assert at_limit.excess_s == 0.0


def test_check_delay_violation_carries_excess():
    f = chain_field([0, 300])
    dp = DelayParams(per_hop_s=1e-3, prop_speed=3e8, d_max_s=1e-6)
    verdict = check_delay(f, Route([0, 1]), dp)
    assert not verdict.feasible
    assert verdict.excess_s == pytest.approx(1.001e-3 - 1e-6, rel=1e-9)


def test_check_delay_infinite_deadline_always_feasible():
    f = generate_uniform(30, 1000, 1000, seed=5)
    route = Route(order=list(range(30)))
    assert check_delay(f, route, DelayParams(d_max_s=math.inf)).feasible


def test_delay_params_validation():
    with pytest.raises(ValueError):
        DelayParams(per_hop_s=0.0)
    with pytest.raises(ValueError):
        DelayParams(prop_speed=-1.0)
    with pytest.raises(ValueError):
        DelayParams(d_max_s=0.0)


def test_simulate_zero_rounds():
    f = chain_field([0, 2])
    rep = simulate_lifetime(f, POLICY_FIXED, config(1.0), 0)
    assert rep.rounds_completed == 0
    assert rep.first_death_round is None
    assert rep.total_energy_j == 0.0
    assert rep.deadline_violations == 0
    assert rep.per_node_residual == [1.0, 1.0]


def test_simulate_two_node_death_arithmetic():
    # battery exactly three round-charges of node 0: rounds 1-3 drain it to
    # zero, the transmit attempt entering round 4 kills it; at d=32 the
    # charges are exact powers of two (tx = 2^-9, rx = 2^-10), so every
    # residual below is exact
    f = chain_field([0, 32])
    tx = tx_energy(EXACT_RADIO, 1024, 32.0)
    rx = rx_energy(EXACT_RADIO, 1024)
    assert tx == 2.0**-9 and rx == 2.0**-10
    rep = simulate_lifetime(f, POLICY_FIXED, config(3 * tx), 100)
    assert rep.rounds_completed == 3
    assert rep.first_death_round == 4
    assert rep.per_node_residual[0] == 0.0
    assert rep.per_node_residual[1] == 3 * tx - 3 * rx  # receiver survives untouched
    assert rep.total_energy_j == 3 * (tx + rx)


def test_simulate_simultaneous_deaths_drain_and_conserve():
    # equal batteries sized so both nodes fail the same round: each drains
    # its remainder to zero and the books still balance exactly
    f = chain_field([0, 2])
    tx = tx_energy(EXACT_RADIO, 1024, 2.0)
    rx = rx_energy(EXACT_RADIO, 1024)
    initial = 3 * tx
    rep = simulate_lifetime(f, POLICY_FIXED, config(initial), 100)
    assert rep.first_death_round == 4
    assert rep.per_node_residual == [0.0, 0.0]
    assert rep.total_energy_j == 2 * initial


def test_simulate_conservation_and_no_negative_residuals():
    rng = np.random.default_rng(44)
    rp = RadioParams()
    for _ in range(12):
        n = int(rng.integers(2, 15))
        f = generate_uniform(n, 500, 500, seed=int(rng.integers(2**32)))
        initial = float(rng.uniform(1e-4, 5e-3))
        rep = simulate_lifetime(f, POLICY_FIXED, config(initial, rp), 500)
        drained = sum(initial - r for r in rep.per_node_residual)
        assert rep.total_energy_j == pytest.approx(drained, rel=1e-9, abs=1e-18)
        assert all(r >= 0.0 for r in rep.per_node_residual)


def test_simulate_battery_monotonicity():
    f = generate_uniform(8, 300, 300, seed=12)
    rp = RadioParams()
    deaths = []
    for mult in (1.0, 2.0, 4.0):
        rep = simulate_lifetime(f, POLICY_FIXED, config(mult * 5e-2, rp), 10000)
        assert rep.first_death_round is not None
        deaths.append(rep.first_death_round)
    assert deaths == sorted(deaths) and deaths[0] < deaths[2]


def test_simulate_rotation_outlives_fixed_on_square():
    # symmetric 4-node unit square: rotating the start spreads the heavy
    # interior roles around, so the first death comes strictly later
    f = SensorField(
        coords=(Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)), width=1, height=1
    )
    rp = RadioParams()
    tx1 = tx_energy(rp, rp.packet_bits, 1.0)
    rx = rx_energy(rp, rp.packet_bits)
    initial = 20 * (tx1 + rx)
    fixed = simulate_lifetime(f, POLICY_FIXED, config(initial, rp), 10000)
    rotated = simulate_lifetime(f, POLICY_ROTATE, config(initial, rp), 10000)
    assert fixed.first_death_round is not None
    assert rotated.first_death_round is not None
    assert rotated.first_death_round > fixed.first_death_round


def test_simulate_rotate_single_node():
    f = chain_field([0])
    rep = simulate_lifetime(f, POLICY_ROTATE, config(1.0), 3)
    assert rep.rounds_completed == 3
    assert rep.first_death_round is None
    assert rep.total_energy_j == 0.0
    assert rep.per_node_residual == [1.0]


def test_simulate_rotate_two_nodes_alternate_roles():
    # rounds start at nodes 0, 1, 0, 1: after four rounds each node has sent
    # and received twice and is empty, so both die entering round 5
    f = chain_field([0, 32])
    tx = tx_energy(EXACT_RADIO, 1024, 32.0)
    rx = rx_energy(EXACT_RADIO, 1024)
    rep = simulate_lifetime(f, POLICY_ROTATE, config(2 * (tx + rx)), 100)
    assert rep.rounds_completed == 4
    assert rep.first_death_round == 5
    assert rep.per_node_residual == [0.0, 0.0]
    assert rep.total_energy_j == 4 * (tx + rx)


def test_simulate_rotate_shared_graph_changes_no_round(monkeypatch):
    # The kNN graph rotating rounds share only speeds up the greedy route.
    f = generate_uniform(300, 1000, 1000, seed=12)
    dp = DelayParams(d_max_s=0.29905215)  # about half the routes miss it
    shared = simulate_lifetime(f, POLICY_ROTATE, config(1.0, RadioParams(), dp), 30)
    monkeypatch.setattr("wsnroute.lifetime.build_knn_graph", lambda *args: None)
    plain = simulate_lifetime(f, POLICY_ROTATE, config(1.0, RadioParams(), dp), 30)
    assert shared == plain
    assert 0 < shared.deadline_violations < shared.rounds_completed


@pytest.mark.parametrize("policy", [POLICY_FIXED, POLICY_ROTATE])
def test_simulate_measures_each_route_once(policy, monkeypatch):
    # A planned route's hop lengths feed both its charges and its delay
    # check, which goes through the module's check_delay once per route.
    f = generate_uniform(50, 1000, 1000, seed=3)
    dp = DelayParams(d_max_s=0.05)
    want = simulate_lifetime(f, policy, config(1.0, RadioParams(), dp), 7)
    calls = {"hop_lengths": 0, "check_delay": 0}

    def counted(name):
        real = getattr(lifetime, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(lifetime, name, wrapper)

    counted("hop_lengths")
    counted("check_delay")
    assert simulate_lifetime(f, policy, config(1.0, RadioParams(), dp), 7) == want
    routes = 7 if policy == POLICY_ROTATE else 1
    assert calls == {"hop_lengths": routes, "check_delay": routes}


def test_simulate_counts_deadline_violations():
    f = chain_field([0, 300, 600])
    rp = EXACT_RADIO
    dp = DelayParams(per_hop_s=1e-3, prop_speed=3e8, d_max_s=1e-6)  # unmeetable
    rep = simulate_lifetime(f, POLICY_FIXED, config(1.0, rp, dp), 5)
    assert rep.rounds_completed == 5
    assert rep.deadline_violations == 5


def test_simulate_rejects_bad_args():
    f = chain_field([0, 1])
    with pytest.raises(ValueError):
        simulate_lifetime(f, "round-robin", config(1.0), 5)
    with pytest.raises(ValueError):
        simulate_lifetime(f, POLICY_FIXED, config(1.0), -1)


@pytest.mark.parametrize("policy", [POLICY_FIXED, POLICY_ROTATE])
def test_simulate_rejects_an_empty_field(policy):
    # rotate-start would divide by zero in round_idx % n; fixed-route has no node 0 to start from
    f = SensorField(coords=np.empty((0, 2)), width=1.0, height=1.0)
    for rounds in (0, 3):
        with pytest.raises(ValueError, match="no nodes"):
            simulate_lifetime(f, policy, config(1.0), rounds)
    with pytest.raises(ValueError, match="no nodes"):
        simulate_lifetime(f, POLICY_FIXED, config(1.0), 3, route=Route([]))


def test_simulate_rotate_start_rejects_route():
    f = chain_field([0, 5, 6])
    with pytest.raises(ValueError, match="route"):
        simulate_lifetime(f, POLICY_ROTATE, config(1.0), 1, route=Route([2, 1, 0]))


def test_simulate_fixed_route_override():
    f = chain_field([0, 5, 6])
    route = Route([2, 1, 0])
    rep = simulate_lifetime(f, POLICY_FIXED, config(1.0), 1, route=route)
    assert rep.rounds_completed == 1
    # terminal accounting: node 2 transmits only, node 0 receives only
    tx21 = tx_energy(EXACT_RADIO, 1024, 1.0)
    tx10 = tx_energy(EXACT_RADIO, 1024, 5.0)
    rx = rx_energy(EXACT_RADIO, 1024)
    assert rep.per_node_residual[2] == 1.0 - tx21
    assert rep.per_node_residual[1] == 1.0 - rx - tx10
    assert rep.per_node_residual[0] == 1.0 - rx


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("alpha", [2.0, 2.5, 3.7])
def test_round_charges_match_per_hop_radio_calls(alpha, closed):
    # the scalar sweep the numpy charges replaced, bit for bit
    rp = RadioParams(alpha=alpha)
    for n in (1, 2, 3, 200):
        f = generate_uniform(n, 1000, 1000, seed=n)
        order = [int(v) for v in np.random.default_rng(n).permutation(n)]
        route = Route(order=order, closed=closed)
        want = [0.0] * n
        hops = zip(order, order[1:] + order[:1], hop_lengths(f.coords, order, closed).tolist())
        for a, b, d in hops:
            want[a] += tx_energy(rp, rp.packet_bits, d)
            want[b] += rx_energy(rp, rp.packet_bits)
        assert _round_charges(f, route, rp, hop_lengths(f.coords, order, closed)).tolist() == want


def test_round_charges_overflow_to_inf_silently():
    # (eps_amp*bits) * d**4 overflows, and is inf as the Python float product was
    rp = RadioParams(eps_amp=1.0, packet_bits=10**6, alpha=4.0)
    f = SensorField(coords=[(0.0, 0.0), (1e76, 0.0)], width=1e76, height=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        charges = _round_charges(f, Route([0, 1]), rp, hop_lengths(f.coords, [0, 1])).tolist()
    assert charges == [math.inf, rx_energy(rp, rp.packet_bits)]
    assert tx_energy(rp, rp.packet_bits, 1e76) == math.inf
