"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Stated runtime budgets are asserted with
``time.perf_counter`` around the workload.
"""

import math
import time

import numpy as np

from wsnroute import (
    BenchConfig,
    BenchReport,
    BenchRun,
    DelayParams,
    EnergyConfig,
    RadioParams,
    Route,
    SensorField,
    build_knn_graph,
    export_report,
    generate_uniform,
    nn_route,
    parse_dataset,
    parse_report,
    route_length,
    run_experiment,
    rx_energy,
    simulate_lifetime,
    tx_energy,
    write_dataset,
)
from wsnroute.anneal import AnnealSchedule, default_schedule, sa_route
from wsnroute.bench import random_initial_route
from wsnroute.field import hop_lengths
from wsnroute.lifetime import POLICY_FIXED, POLICY_ROTATE, _round_charges
from oracles import Point, brute_force_knn, brute_force_optimal, distance, neighbor_set, points

REFERENCE_NN_COST = 730231.4981


def ok(name):
    print(f"\n[acceptance] {name}: PASS")


def test_knn_oracle_equivalence():
    # 20 random fields over n in {10, 100, 500}; for every valid k in
    # {1,3,5,10} and chunk_size in {1,3,64,n} the chunked build must equal
    # the brute-force oracle row for row (k=10 is skipped at n=10 where it
    # violates k <= n-1)
    t0 = time.perf_counter()
    allocation = ((10, 13), (100, 5), (500, 2))
    assert sum(count for _, count in allocation) == 20
    builds = 0
    for n, count in allocation:
        for fi in range(count):
            f = generate_uniform(n, 10000, 10000, seed=7000 + 31 * n + fi)
            for k in (1, 3, 5, 10):
                if k > n - 1:
                    continue
                oracle = brute_force_knn(f, k)
                want = [neighbor_set(oracle, r) for r in range(n)]
                for cs in (1, 3, 64, n):
                    g = build_knn_graph(f, k, cs)
                    assert all(neighbor_set(g, r) == want[r] for r in range(n))
                    builds += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"kNN sweep took {elapsed:.1f}s"
    ok(f"kNN oracle equivalence ({builds} builds, {elapsed:.1f}s)")


def test_nn_correctness_against_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(4, 10))
        start = int(rng.integers(n))
        f = generate_uniform(n, 1000, 1000, seed=int(rng.integers(2**32)))
        r = nn_route(f, start)
        assert route_length(f, r) >= route_length(f, brute_force_optimal(f, start=start))
        remaining = set(r.order)
        pts = points(f)
        for i in range(n - 1):
            remaining.discard(r.order[i])
            step = distance(pts[r.order[i]], pts[r.order[i + 1]])
            assert step == min(distance(pts[r.order[i]], pts[v]) for v in remaining)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"NN oracle sweep took {elapsed:.1f}s"
    ok(f"NN correctness vs exhaustive oracle (200 instances, {elapsed:.1f}s)")


def test_accelerated_equivalence():
    for seed in range(50):
        f = generate_uniform(200, 5000, 5000, seed=seed)
        graph = build_knn_graph(f, 5, 64)
        assert nn_route(f, 0, graph).order == nn_route(f, 0).order
    ok("accelerated NN equivalence (50 seeds, n=200, k=5)")


def test_reference_qualitative_ordering():
    # the reference tables' absolute costs are not reproducible (their field
    # and seed are unpublished); the targets are the ordering and magnitude:
    # every per-seed SA/NN ratio > 1, mean ratio in [1.1, 2.0], and the NN
    # mean within [0.5, 2.0] x 730231.4981 on the default 20000^2 field
    t0 = time.perf_counter()
    cfg = BenchConfig(n=2000, seeds=list(range(1, 11)), preset="paper-budget")
    report = run_experiment(cfg)
    ratios = report.seed_ratios()
    assert len(ratios) == 10
    assert all(r > 1.0 for r in ratios.values()), f"ratios: {ratios}"
    mean_ratio = report.mean_ratio_sa_nn()
    assert 1.1 <= mean_ratio <= 2.0, f"mean ratio {mean_ratio:.3f}"
    nn_mean = report.mean_cost("NN")
    assert 0.5 * REFERENCE_NN_COST <= nn_mean <= 2.0 * REFERENCE_NN_COST, f"NN mean {nn_mean:,.0f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"ordering bench took {elapsed:.1f}s"
    ok(
        f"reference ordering (mean SA/NN {mean_ratio:.3f}, "
        f"NN mean {nn_mean:,.0f} vs {REFERENCE_NN_COST:,.0f}, {elapsed:.1f}s)"
    )


def test_sa_sanity():
    t0 = time.perf_counter()
    # converged annealing should not lose to greedy at small n
    ratios = []
    for seed in range(1, 11):
        f = generate_uniform(100, 1000, 1000, seed=seed)
        nn_len = route_length(f, nn_route(f, 0))
        init = random_initial_route(100, seed)
        sa_len = route_length(f, sa_route(f, init, default_schedule(f, init), seed))
        ratios.append(sa_len / nn_len)
    mean_ratio = sum(ratios) / len(ratios)
    assert mean_ratio <= 1.0, f"generous mean ratio {mean_ratio:.3f}"

    # and on n=8 it should find the exact optimum almost always
    hits = 0
    for seed in range(1, 11):
        f = generate_uniform(8, 1000, 1000, seed=seed)
        init = random_initial_route(8, seed)
        base = default_schedule(f, init)
        sched = AnnealSchedule(
            initial_temp=base.initial_temp,
            cooling_factor=0.95,
            iters_per_temp=base.iters_per_temp,
            min_temp=1e-9 * base.initial_temp,
            max_iters=50000,
        )
        sa_len = route_length(f, sa_route(f, init, sched, seed))
        opt_len = route_length(f, brute_force_optimal(f))
        if math.isclose(sa_len, opt_len, rel_tol=1e-12):
            hits += 1
    assert hits >= 8, f"optimum hits {hits}/10"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"SA sanity took {elapsed:.1f}s"
    ok(f"SA sanity (generous ratio {mean_ratio:.3f}, optimum {hits}/10, {elapsed:.1f}s)")


def test_bhh_scaling_stability():
    # NN length / sqrt(n * area) should be nearly constant across n; this
    # underpins substituting desk-scale runs for the reference scale
    area = 20000.0 * 20000.0
    consts = []
    for n in (500, 1000, 2000):
        vals = []
        for seed in range(1, 11):
            f = generate_uniform(n, 20000, 20000, seed=seed)
            vals.append(route_length(f, nn_route(f, 0)) / math.sqrt(n * area))
        consts.append(sum(vals) / len(vals))
    spread = (max(consts) - min(consts)) / (sum(consts) / len(consts))
    assert spread < 0.10, f"scaling constant spread {spread:.3f}"
    ok(f"BHH scaling stability (constants {[f'{c:.4f}' for c in consts]}, spread {spread * 100:.1f}%)")


def test_nn_performance_at_scale():
    f = generate_uniform(2000, 20000, 20000, seed=42)
    t0 = time.perf_counter()
    r = nn_route(f, 0)
    elapsed = time.perf_counter() - t0
    assert len(r.order) == 2000
    assert elapsed < 1.0, f"nn_route(n=2000) took {elapsed:.3f}s"
    ok(f"NN performance at n=2000 ({elapsed * 1000:.0f} ms)")


def test_energy_conservation_and_battery_monotonicity():
    rng = np.random.default_rng(777)
    rp = RadioParams()
    for _ in range(50):
        n = int(rng.integers(2, 16))
        f = generate_uniform(n, 500, 500, seed=int(rng.integers(2**32)))
        policy = POLICY_ROTATE if rng.integers(2) else POLICY_FIXED
        initial = float(rng.uniform(1e-4, 5e-3))
        cfg = EnergyConfig(radio=rp, delay=DelayParams(), initial_battery_j=initial)
        rep = simulate_lifetime(f, policy, cfg, int(rng.integers(1, 400)))
        drained = sum(initial - r for r in rep.per_node_residual)
        scale = max(abs(rep.total_energy_j), abs(drained), 1e-300)
        assert abs(rep.total_energy_j - drained) / scale <= 1e-9
        assert all(r >= 0.0 for r in rep.per_node_residual)

    f = generate_uniform(10, 400, 400, seed=5)
    deaths = []
    for mult in (1.0, 2.0, 4.0):
        cfg = EnergyConfig(radio=rp, delay=DelayParams(), initial_battery_j=mult * 5e-2)
        rep = simulate_lifetime(f, POLICY_FIXED, cfg, 100000)
        assert rep.first_death_round is not None
        deaths.append(rep.first_death_round)
    assert deaths[0] <= deaths[1] <= deaths[2]
    assert deaths[0] < deaths[2]  # the sweep actually separates
    ok(f"energy conservation (50 sims) and battery monotonicity {deaths}")


def test_balancing_effect_on_square():
    f = SensorField(
        coords=(Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1))
    )
    rp = RadioParams()
    initial = 20 * (tx_energy(rp, rp.packet_bits, 1.0) + rx_energy(rp, rp.packet_bits))
    cfg = EnergyConfig(radio=rp, delay=DelayParams(), initial_battery_j=initial)
    fixed = simulate_lifetime(f, POLICY_FIXED, cfg, 100000)
    rotated = simulate_lifetime(f, POLICY_ROTATE, cfg, 100000)
    assert fixed.first_death_round is not None and rotated.first_death_round is not None
    assert rotated.first_death_round > fixed.first_death_round
    ok(
        f"balancing effect (rotate-start dies round {rotated.first_death_round} "
        f"> fixed round {fixed.first_death_round})"
    )


def test_rotation_outlives_the_fixed_route_over_seeds():
    # The paper's lifetime claim at a size where routes differ: rounds completed by
    # rotate-start over fixed-route on n=100 over 200^2 with the default config, seeds
    # 1..40, a range fixed before the bounds were set. Measured: median ratio 1.398
    # (quartiles 1.11-2.21), rotate-start longer on 32 seeds, shorter on 7 (seed 6: 166
    # against 331 rounds). The bounds are the 5th percentiles of 100,000 bootstrap
    # resamples of the 40 ratios: a median of 1.21 and 28 wins.
    ratios = []
    for seed in range(1, 41):
        f = generate_uniform(100, 200, 200, seed)
        fixed, rotated = (simulate_lifetime(f, policy, EnergyConfig(), 10**6).rounds_completed
                          for policy in (POLICY_FIXED, POLICY_ROTATE))
        ratios.append(rotated / fixed)
    median, wins = float(np.median(ratios)), sum(r > 1 for r in ratios)
    assert median >= 1.2 and wins >= 28, (median, wins)
    ok(f"rotate-start outlives fixed-route over 40 seeds (median ratio {median:.3f}, {wins} of 40 longer)")


def test_rotation_lifetime_is_the_battery_over_the_largest_mean_charge():
    # The model behind the claim, on the seeds of the test above where rotation
    # loses: a policy lasts about as many rounds as the battery holds of its
    # largest per-node charge. For fixed-route that is the largest charge of its
    # one round, exactly. For rotate-start it is the largest per-node mean over
    # the n rotated routes. Measured: 0.978-1.012 of the prediction.
    cfg = EnergyConfig()
    battery = cfg.initial_battery_j
    for seed in (4, 6, 7, 12, 13):
        f = generate_uniform(100, 200, 200, seed)
        graph = build_knn_graph(f, 8)  # the same routes as without it, sooner
        charges = []
        for start in range(len(f)):
            order = np.array(nn_route(f, start, graph).order, dtype=np.intp)
            charges.append(_round_charges(order, cfg.radio, hop_lengths(f.coords, order)))
        fixed, rotated = (simulate_lifetime(f, policy, cfg, 10**6).rounds_completed
                          for policy in (POLICY_FIXED, POLICY_ROTATE))
        assert fixed == int(battery / charges[0].max()), seed
        predicted = battery / np.mean(charges, axis=0).max()
        assert abs(rotated / predicted - 1) <= 0.03, (seed, rotated, predicted)
    ok("lifetime is the battery over the largest per-node charge, mean charge under rotation")


def test_format_fidelity():
    rng = np.random.default_rng(4096)
    for trial in range(100):
        n = int(rng.integers(1, 60))
        f = generate_uniform(n, 20000, 20000, seed=int(rng.integers(2**32)))
        if trial % 4 == 0:
            pts = tuple(Point(float(int(p.x)), float(int(p.y))) for p in points(f))
            f = SensorField(coords=pts)
        assert points(parse_dataset(write_dataset(f))) == points(f)

    sample = parse_dataset("P (14991 8390)\n")
    assert points(sample) == (Point(14991.0, 8390.0),)

    report = BenchReport(
        runs=[
            BenchRun(1, "NN", 730231.4981, 0.05),
            BenchRun(1, "SA", 1071055.255, 0.04),
            BenchRun(2, "NN", 812345.01, 0.051),
            BenchRun(2, "SA", 1123456.789, 0.039),
        ]
    )
    assert parse_report(export_report(report, "csv"), "csv") == report
    assert parse_report(export_report(report, "json"), "json") == report
    ok("format fidelity (dataset round-trip x100, sample record, report round-trips)")
