"""Delay constraint and lifetime simulation tests."""

import errno
import gc
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from wsnroute import (
    DelayParams,
    EnergyConfig,
    RadioParams,
    Route,
    SensorField,
    check_delay,
    generate_uniform,
    nn_route,
    path_delay,
    rx_energy,
    simulate_lifetime,
    tx_energy,
)
from wsnroute.cli import main
from wsnroute.field import hop_lengths
from wsnroute import lifetime
from wsnroute.lifetime import POLICY_FIXED, POLICY_ROTATE, _round_charges
from oracles import Point


def chain_field(xs):
    pts = tuple(Point(float(x), 0.0) for x in xs)
    return SensorField(coords=pts)


# Binary-exact radio constants: every charge is an integer multiple of 2^-18,
# so the battery arithmetic below has no rounding at all.
EXACT_RADIO = RadioParams(e_elec=2.0**-20, eps_amp=2.0**-30, alpha=2.0, packet_bits=1024)


def config(battery, radio=EXACT_RADIO, delay=DelayParams()):
    return EnergyConfig(radio=radio, delay=delay, initial_battery_j=battery)


def test_path_delay_single_node():
    f = chain_field([0])
    assert path_delay(hop_lengths(f.coords, [0]), DelayParams()) == 0.0


def test_path_delay_two_nodes_worked_example():
    # 300 m at 3e8 m/s plus one 1 ms hop: 1e-6 + 1e-3
    f = chain_field([0, 300])
    dp = DelayParams(per_hop_s=1e-3, prop_speed=3e8)
    assert path_delay(hop_lengths(f.coords, [0, 1]), dp) == pytest.approx(1.001e-3, rel=1e-12)


def test_path_delay_reversal_symmetric():
    rng = np.random.default_rng(3)
    dp = DelayParams()
    for _ in range(10):
        n = int(rng.integers(2, 10))
        f = generate_uniform(n, 1000, 1000, seed=int(rng.integers(2**32)))
        perm = [int(v) for v in rng.permutation(n)]
        fwd = path_delay(hop_lengths(f.coords, perm), dp)
        rev = path_delay(hop_lengths(f.coords, perm[::-1]), dp)
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
            assert path_delay(lengths, dp) == want


def test_delay_and_ledger_sums_beyond_the_float_range_are_inf_without_a_warning():
    # as a Python float's division and += give inf
    lengths = np.array([1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert path_delay(lengths, DelayParams(prop_speed=5e-324)) == math.inf
        assert path_delay(lengths, DelayParams(per_hop_s=1e308)) == math.inf
        assert lifetime._left_sum(1e308, np.array([1e308, 1.0])) == math.inf


def test_check_delay_boundary_inclusive():
    lengths = hop_lengths(chain_field([0, 300]).coords, [0, 1])
    exact = path_delay(lengths, DelayParams(per_hop_s=1e-3, prop_speed=3e8))
    assert check_delay(lengths, DelayParams(per_hop_s=1e-3, prop_speed=3e8, d_max_s=exact)) is True
    below = math.nextafter(exact, 0.0)
    assert check_delay(lengths, DelayParams(per_hop_s=1e-3, prop_speed=3e8, d_max_s=below)) is False


def test_check_delay_violation_is_false():
    lengths = hop_lengths(chain_field([0, 300]).coords, [0, 1])
    assert check_delay(lengths, DelayParams(per_hop_s=1e-3, prop_speed=3e8, d_max_s=1e-6)) is False


def test_check_delay_infinite_deadline_always_feasible():
    f = generate_uniform(30, 1000, 1000, seed=5)
    assert check_delay(hop_lengths(f.coords, range(30)), DelayParams(d_max_s=math.inf)) is True


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
    f = SensorField(coords=np.empty((0, 2)))
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
        want = [0.0] * n
        hops = zip(order, order[1:] + order[:1], hop_lengths(f.coords, order, closed).tolist())
        for a, b, d in hops:
            want[a] += tx_energy(rp, rp.packet_bits, d)
            want[b] += rx_energy(rp, rp.packet_bits)
        charges = _round_charges(np.array(order, dtype=np.intp), rp, hop_lengths(f.coords, order, closed))
        assert charges.tolist() == want


def test_round_charges_overflow_to_inf_silently():
    # (eps_amp*bits) * d**4 overflows, and is inf as the Python float product was
    rp = RadioParams(eps_amp=1.0, packet_bits=10**6, alpha=4.0)
    f = SensorField(coords=[(0.0, 0.0), (1e76, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        charges = _round_charges(np.array([0, 1], dtype=np.intp), rp, hop_lengths(f.coords, [0, 1])).tolist()
    assert charges == [math.inf, rx_energy(rp, rp.packet_bits)]
    assert tx_energy(rp, rp.packet_bits, 1e76) == math.inf


def test_round_charges_at_alpha_2_square_each_hop():
    # d*d, not C pow: the hops include every length among 100,000 where this host's pow(d, 2.0) != d*d
    rp = RadioParams()
    candidates = np.random.default_rng(33).uniform(0, 30000, 100_000).tolist()
    lengths = [d for d in candidates if d**2.0 != d * d] + candidates[:500]
    f = generate_uniform(len(lengths) + 1, 1000, 1000, seed=1)
    order = np.arange(len(f), dtype=np.intp)
    charges = _round_charges(order, rp, np.array(lengths))
    bits = rp.packet_bits
    tx = [rp.e_elec * bits + rp.eps_amp * bits * (d * d) for d in lengths]
    rx = rx_energy(rp, bits)
    assert charges.tolist() == [tx[0], *(t + rx for t in tx[1:]), rx]
    assert [tx_energy(rp, bits, d) for d in lengths] == tx


def test_round_charges_at_alpha_2_raise_on_a_finite_overflow_and_charge_an_infinite_hop_inf():
    rp = RadioParams()
    f = generate_uniform(4, 1000, 1000, seed=1)
    order = np.arange(4, dtype=np.intp)
    with pytest.raises(ValueError, match=r"^hop of 1e\+155 m overflows d\*\*alpha at alpha=2\.0$"):
        _round_charges(order, rp, np.array([3.0, 1e155, 2e155]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        charges = _round_charges(order, rp, np.array([3.0, math.inf, 5.0])).tolist()
    rx = rx_energy(rp, rp.packet_bits)
    assert charges == [tx_energy(rp, rp.packet_bits, 3.0), math.inf, tx_energy(rp, rp.packet_bits, 5.0) + rx, rx]


# --- rotate-start's route worker ---


def battery_for_death_in_round_2(f, rp):
    """The largest round-1 charge of rotate-start: that node is empty after round 1 and dies in round 2."""
    order = np.array(nn_route(f, 0).order, dtype=np.intp)
    return float(_round_charges(order, rp, hop_lengths(f.coords, order)).max())


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns to this process, recorded from here on."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no child of this process has that pid any more
            os.waitpid(pid, os.WNOHANG)


def worker_case(n, side, seed, rounds, battery, delay=DelayParams(), death=None):
    f = generate_uniform(n, side, side, seed=seed)
    rp = RadioParams()
    battery = battery(f, rp) if callable(battery) else battery
    return f, EnergyConfig(radio=rp, delay=delay, initial_battery_j=battery), rounds, death


WRAP_DELAY = DelayParams(prop_speed=1e5, d_max_s=0.3315)  # about half the routes miss it
WORKER_CASES = {
    "n1-rounds0": worker_case(1, 10, 1, 0, 1.0),
    "n1-rounds2": worker_case(1, 10, 1, 2, 1.0),
    "n1-rounds3": worker_case(1, 10, 1, 3, 1.0),
    "n1-rounds4": worker_case(1, 10, 1, 4, 1.0),
    # a node dies in round 5, after starts 0, 1, 0, 1
    "n2-wraps": worker_case(2, 50, 2, 100, 1e-3, death=5),
    "n3-rounds7": worker_case(3, 1000, 3, 7, 1.0),
    "n3-rounds8": worker_case(3, 1000, 3, 8, 1.0),
    "n300-rounds30": worker_case(300, 200, 7, 30, 2.0, WRAP_DELAY),
    "n300-rounds31": worker_case(300, 200, 7, 31, 2.0, WRAP_DELAY),
    "n300-death-round1": worker_case(300, 200, 7, 31, 1e-9, death=1),
    "n300-death-round2": worker_case(300, 200, 7, 31, battery_for_death_in_round_2, death=2),
    # The start wraps past n, then a node dies in round 443 of 1000. The
    # worker runs ahead of the rounds until the pipe is full, so it is
    # blocked in a write when this process stops.
    "n300-wrap-death-mid-run": worker_case(300, 200, 7, 1000, 2.0, WRAP_DELAY, death=443),
    "n2000-rounds9": worker_case(2000, 20000, 1, 9, 1e4),
    "n2000-rounds10": worker_case(2000, 20000, 1, 10, 1e4),
    "n2000-death-round1": worker_case(2000, 20000, 1, 10, 0.5, death=1),
    "n2000-death-round2": worker_case(2000, 20000, 1, 10, battery_for_death_in_round_2, death=2),
}


@pytest.mark.parametrize("case", WORKER_CASES)
def test_rotate_worker_changes_no_report(case, forks, monkeypatch):
    f, cfg, rounds, death = WORKER_CASES[case]
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: False)
    alone = simulate_lifetime(f, POLICY_ROTATE, cfg, rounds)
    assert forks == []
    assert alone.first_death_round == death
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: True)
    shared = simulate_lifetime(f, POLICY_ROTATE, cfg, rounds)
    assert shared == alone
    # a worker is forked once round 0 has completed, and only when two rounds or more remain
    assert len(forks) == (rounds >= 3 and death != 1)
    assert_reaped(forks)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_rotate_worker_is_reaped_when_the_run_raises(error, forks, monkeypatch):
    f = generate_uniform(300, 200, 200, seed=7)
    calls = []
    real = lifetime.check_delay

    def failing(*args):
        calls.append(1)
        if len(calls) == 5:
            raise error("stop")
        return real(*args)
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: True)
    monkeypatch.setattr(lifetime, "check_delay", failing)
    with pytest.raises(error, match="stop"):
        simulate_lifetime(f, POLICY_ROTATE, config(2.0, RadioParams()), 100)
    assert len(forks) == 1
    assert_reaped(forks)


def test_rotate_run_without_a_process_to_spare_builds_every_round_here(forks, monkeypatch):
    f, cfg, rounds, death = WORKER_CASES["n300-wrap-death-mid-run"]
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: False)
    alone = simulate_lifetime(f, POLICY_ROTATE, cfg, rounds)
    pipes = []
    real_pipe = os.pipe

    def recording_pipe():
        pipes.extend(real_pipe())
        return tuple(pipes[-2:])

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: True)
    assert simulate_lifetime(f, POLICY_ROTATE, cfg, rounds) == alone
    assert len(pipes) == 2
    for fd in pipes:  # both ends of the unused pipe are closed
        with pytest.raises(OSError):
            os.fstat(fd)


def test_use_worker_needs_enough_node_rounds_two_cpus_one_thread_and_sigchld(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert threading.active_count() == 1
    limit = lifetime._MIN_WORKER_NODE_ROUNDS
    assert lifetime._use_worker(2000, limit // 2000)
    assert not lifetime._use_worker(2000, limit // 2000 - 1)
    # the golden n=30, 40-round and n=400, 5-round runs stay in one process
    assert not lifetime._use_worker(30, 39) and not lifetime._use_worker(400, 4)
    assert lifetime._use_worker(300, 999)  # and the 1000-round wrap does not

    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not lifetime._use_worker(2000, 49)
    finally:
        stop.set()
        thread.join()
    assert lifetime._use_worker(2000, 49)

    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert not lifetime._use_worker(2000, 49)
    finally:
        signal.signal(signal.SIGCHLD, previous)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not lifetime._use_worker(2000, 49)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert not lifetime._use_worker(2000, 49)


def test_small_rotate_run_forks_nothing(forks):
    f, cfg, rounds, _ = WORKER_CASES["n300-rounds31"]
    simulate_lifetime(f, POLICY_ROTATE, cfg, rounds)
    assert forks == []


def _in_worker(monkeypatch, action):
    """Make rotate-start's route worker call ``action`` before it builds its first route."""
    parent = os.getpid()
    real = lifetime.nn_route

    def route(*args):
        if os.getpid() != parent:
            action()
        return real(*args)
    monkeypatch.setattr(lifetime, "nn_route", route)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the worker is moved off this process's CPU only where there is another")
def test_rotate_worker_runs_off_this_process_cpu(forks, monkeypatch, tmp_path):
    cpus = os.sched_getaffinity(0)
    assert lifetime._cpu_now() in cpus
    monkeypatch.setattr(lifetime, "_cpu_now", lambda: min(cpus))
    seen = tmp_path / "worker-cpus"
    _in_worker(monkeypatch, lambda: seen.write_text(repr(sorted(os.sched_getaffinity(0)))))
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: True)
    f, cfg, rounds, _ = WORKER_CASES["n300-rounds31"]
    simulate_lifetime(f, POLICY_ROTATE, cfg, rounds)
    assert len(forks) == 1
    assert_reaped(forks)
    assert seen.read_text() == repr(sorted(cpus - {min(cpus)}))
    assert os.sched_getaffinity(0) == cpus  # this process is not moved


@pytest.mark.parametrize("enabled", [True, False])
def test_rotate_worker_runs_without_the_cyclic_gc(enabled, forks, monkeypatch, tmp_path):
    # the worker inherits this process's paused collector; the caller's state comes back here
    seen = tmp_path / "worker-gc"
    _in_worker(monkeypatch, lambda: seen.write_text(repr(gc.isenabled())))
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: True)
    f, cfg, rounds, _ = WORKER_CASES["n300-rounds31"]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        simulate_lifetime(f, POLICY_ROTATE, cfg, rounds)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(forks) == 1
    assert_reaped(forks)
    assert seen.read_text() == "False"


def test_rotate_rounds_run_here_without_the_cyclic_gc(monkeypatch):
    # this process pauses its collector for the rounds, and the caller's setting comes back when one raises
    f = generate_uniform(30, 200, 200, seed=7)
    seen = []
    real = lifetime.check_delay

    def spy(*args):
        seen.append(gc.isenabled())
        if len(seen) == 4:
            raise RuntimeError("stop")
        return real(*args)
    monkeypatch.setattr(lifetime, "check_delay", spy)
    was = gc.isenabled()
    gc.enable()
    try:
        with pytest.raises(RuntimeError, match="stop"):
            simulate_lifetime(f, POLICY_ROTATE, config(2.0, RadioParams()), 10)
        assert gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 4


def test_rotate_worker_plan_error_is_raised_here_at_its_round(forks, monkeypatch, tmp_path, capsys):
    # The d**4 overflow sets in at about 1.158e77 m. The greedy routes from
    # nodes 0 and 1 hop at most 6e76 m; round 2, the worker's first, starts
    # at node 2 and goes to node 3 first, then back 1.16e77 m to node 1.
    field = tmp_path / "field.txt"
    field.write_text("P (0 0)\nP (1e75 0)\nP (6e76 0)\nP (1.17e77 0)\n")
    params = tmp_path / "params.cfg"
    params.write_text("alpha = 4\ninitial_battery_j = 1e305\n")
    parent = os.getpid()
    planned_here = []
    real = lifetime._round_charges

    def counted(*args):
        if os.getpid() == parent:
            planned_here.append(1)
        return real(*args)
    monkeypatch.setattr(lifetime, "_round_charges", counted)
    runs = []
    for worker in (False, True):
        monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: worker)
        planned_here.clear()
        code = main(["simulate", "--input", str(field), "--rounds", "5", "--policy", "rotate-start",
                     "--config", str(params)])
        runs.append((code, capsys.readouterr(), len(planned_here)))
    assert runs[0] == runs[1]
    code, captured, planned = runs[1]
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: hop of 1.16e+77 m overflows d**alpha at alpha=4.0\n"
    assert planned == 3  # rounds 0, 1 and 2, where it raises; round 3 is never planned
    assert len(forks) == 1
    assert_reaped(forks)


def _starts_here(monkeypatch):
    """The start nodes of the routes this process builds from here on."""
    parent = os.getpid()
    starts = []
    real = lifetime.nn_route

    def route(field, start, *args):
        if os.getpid() == parent:
            starts.append(start)
        return real(field, start, *args)
    monkeypatch.setattr(lifetime, "nn_route", route)
    return starts


def test_rotate_worker_builds_the_even_rounds_after_round_0(forks, monkeypatch):
    # without the worker's share pinned, a worker that always fails would pass every report test
    f, cfg, rounds, _ = WORKER_CASES["n300-rounds31"]
    starts = _starts_here(monkeypatch)
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: True)
    simulate_lifetime(f, POLICY_ROTATE, cfg, rounds)
    assert starts == [0, *range(1, rounds, 2)]  # 16 of the 31 routes
    assert len(forks) == 1
    assert_reaped(forks)


@pytest.mark.parametrize("fault", ["raises", "killed", "killed-after-two-plans"])
def test_rotate_worker_failure_is_recovered_here(fault, forks, monkeypatch, capsys, tmp_path):
    # any round the worker does not send is built here at its turn, with every round after it
    params = tmp_path / "params.cfg"
    params.write_text("initial_battery_j = 2\n")
    argv = ["simulate", "--n", "300", "--width", "200", "--height", "200", "--seed", "7",
            "--rounds", "20", "--policy", "rotate-start", "--config", str(params)]
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: False)
    assert main(argv) == 0
    alone = capsys.readouterr()
    worker_routes = []

    def fail():
        worker_routes.append(1)
        if fault == "raises":
            raise ValueError("no route")
        if fault == "killed" or len(worker_routes) == 3:  # rounds 2 and 4 are sent, round 6 is not
            os.kill(os.getpid(), signal.SIGKILL)

    starts = _starts_here(monkeypatch)
    _in_worker(monkeypatch, fail)
    monkeypatch.setattr(lifetime, "_use_worker", lambda n, rounds_left: True)
    assert main(argv) == 0
    assert capsys.readouterr() == alone
    sent = [2, 4] if fault == "killed-after-two-plans" else []
    assert starts == [0, 1, *(r for r in range(2, 20) if r % 2 or r not in sent)]
    assert len(forks) == 1
    assert_reaped(forks)


def test_alternate_yields_every_item_in_order(forks):
    def work(i):
        return np.array([i, -i], dtype=np.float64)

    for first, stop in [(0, 0), (0, 1), (3, 5), (1, 8), (1, 9)]:
        want = [[i, -i] for i in range(first, stop)]
        for fork in (False, True):
            got = [item.tolist() for item in lifetime._alternate(work, first, stop, 2, fork)]
            assert got == want
    assert len(forks) == 3  # a worker is forked only when it has an item to compute
    assert_reaped(forks)


def test_rotate_worker_does_not_repeat_buffered_stdout(tmp_path):
    # stdout is a pipe here, so text printed before the fork is still in this
    # process's buffer, and the worker holds a copy of it that it must not flush
    script = (
        "import sys\n"
        "from wsnroute import lifetime\n"
        "from wsnroute.cli import main\n"
        "lifetime._use_worker = lambda n, rounds_left: True\n"
        "print('before the run')\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    params = tmp_path / "params.cfg"
    params.write_text("initial_battery_j = 2\n")
    argv = ["simulate", "--n", "30", "--width", "100", "--height", "100", "--seed", "5", "--rounds", "9",
            "--policy", "rotate-start", "--config", str(params), "--format", "csv"]
    src = str(Path(lifetime.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "before the run"
    assert len(lines) == 3 and lines[1].startswith("rounds_completed,") and lines[2].startswith("9,")
