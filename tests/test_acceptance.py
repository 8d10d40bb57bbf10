"""Acceptance suite: the binding exit criteria, one test per criterion.

The heavyweight batches (ten thousand paths at ten thousand slots) are
session fixtures shared between criteria; every law of the law table is
enforced inside the engine, so a fixture that materializes at all is already
a zero-violation certificate for its batch.
"""

import json
import math
import time

import numpy as np
import pytest
from conftest import register_criterion
from helpers import (chained_deviation_check, exact_conditional_dpp_expectation,
                     option_marginals, random_small_instance)

from dpp_lab.analysis import (compute_constants, constants_for_horizon,
                              convergence_time_multi, convergence_time_single,
                              queue_tail_bound, queue_tail_vacuity_crossover)
from dpp_lab.cli import main
from dpp_lab.events import build_server_scheduling_spec, derive_seeds, uniform_block
from dpp_lab.montecarlo import (WILSON_Z, BatchConfig, InvariantViolation, run_batch,
                                simulate_paths, wilson_interval)
from dpp_lab.oracle import (grid_max_slackness, grid_stationary_optimum,
                            solve_max_slackness, solve_stationary_optimum)

BIG_PATHS = 10_000
BIG_T = 10_000
DELTA = 0.05


def _wilson_floor(n: int) -> float:
    return WILSON_Z ** 2 / (n + WILSON_Z ** 2)


@pytest.fixture(scope="session")
def sv_constants(sv_spec, sv_solution):
    return constants_for_horizon(sv_spec, sv_solution.xi_star / 2.0, BIG_T, DELTA)


@pytest.fixture(scope="session")
def sv_tail_levels(sv_constants):
    cross = queue_tail_vacuity_crossover(sv_constants)
    smaller = [cross + math.log(1.0 / b) / sv_constants.r
               for b in (0.25, 0.05, 0.005)]
    return (sv_constants.c1, *smaller)


@pytest.fixture(scope="session")
def big_benchmark_batch(sv_spec, sv_tail_levels):
    cfg = BatchConfig(spec=sv_spec, num_paths=BIG_PATHS, T=BIG_T,
                      master_seed=20260808, epsilon=0.1, delta=DELTA,
                      checks=("QueueTail", "XTail"),
                      queue_tail_levels=sv_tail_levels)
    return run_batch(cfg)


@pytest.fixture(scope="session")
def big_single_queue_batch(sq_spec):
    cfg = BatchConfig(spec=sq_spec, num_paths=BIG_PATHS, T=BIG_T,
                      master_seed=20260809, epsilon=0.1, delta=DELTA,
                      checks=("QueueTail", "XTail", "GTail", "Telescoping"))
    return run_batch(cfg)


@register_criterion(1, "benchmark optimum: simulate at V=100, T=1e6 and the LP certificate")
def test_criterion_1_benchmark_optimum(tmp_path):
    spec = build_server_scheduling_spec(V=100.0)
    sol = solve_stationary_optimum(spec)
    assert sol.z_opt == pytest.approx(1.1, abs=1e-9)
    marginals = option_marginals(sol, spec)
    for got, want in zip(marginals, (0.6, 0.3, 0.1)):
        assert got == pytest.approx(want, abs=1e-9)

    cfg = tmp_path / "bench.cfg"
    cfg.write_text("problem = server-scheduling-3x2\nV = 100.0\n"
                   "T = 1000000\nseed = 12345\n"
                   f"output = {tmp_path / 'out'}\n")
    started = time.perf_counter()
    assert main(["simulate", "--config", str(cfg)]) == 0
    elapsed = time.perf_counter() - started
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["time_avg_objective"] - 1.1) <= 0.03
    assert elapsed < 30.0, f"simulate took {elapsed:.1f}s"
    print(f"\n[criterion 1] time_avg={summary['time_avg_objective']:.5f} "
          f"z_opt={sol.z_opt} marginals={np.round(marginals, 12).tolist()} "
          f"elapsed={elapsed:.1f}s")


@register_criterion(2, "exact one-step conditional expectation on every visited state")
def test_criterion_2_exact_key_feature(sv_solution):
    rng = np.random.default_rng(97531)
    for v in (1.0, 10.0, 100.0):
        spec = build_server_scheduling_spec(V=v)
        sol = solve_stationary_optimum(spec)
        consts = constants_for_horizon(spec, sol.xi_star / 2.0, BIG_T, DELTA)
        # raises on the first violated state across 100 paths x 1e4 slots
        simulate_paths(spec, derive_seeds(555_000 + int(v), 0, 100), BIG_T, sol.z_opt,
                       consts, key_feature=True)
        worst = -np.inf
        for _ in range(200):
            q = rng.uniform(0.0, 50.0, size=3)
            val = exact_conditional_dpp_expectation(spec, q, sol.z_opt)
            worst = max(worst, val)
            assert val <= 1e-9
        print(f"\n[criterion 2] V={v}: 100 paths x {BIG_T} slots clean; "
              f"worst random-state value {worst:.3e}")
    # negative control: a controller that skips the minimization must trip it
    spec = build_server_scheduling_spec(V=10.0)
    cfg = BatchConfig(spec=spec, num_paths=50, T=2000, master_seed=31337,
                      checks=("KeyFeature",), chaos="skip-minimization")
    with pytest.raises(InvariantViolation) as err:
        run_batch(cfg)
    assert err.value.law == "exact conditional expectation"
    print(f"[criterion 2] negative control tripped at slot {err.value.slot}")


@register_criterion(3, "deterministic per-path laws over 1e4 paths x 1e4 slots")
def test_criterion_3_per_path_laws(big_benchmark_batch, big_single_queue_batch,
                                   sq_spec):
    # the fixtures exist, so the engine verified the law table on every path:
    # norm step bound, quadratic drift bound, and stopped and truncated
    # difference bounds on every slot, then the telescoping partial-sum law
    # and the full-horizon truncated-sum floor (the exact queue update is an
    # IEEE identity, property-tested in test_core)
    for summary, label in ((big_benchmark_batch, "benchmark"),
                           (big_single_queue_batch, "single queue")):
        assert summary.invariant_violations == 0
        assert summary.num_paths == BIG_PATHS and summary.T == BIG_T
    tele = big_single_queue_batch.checks["Telescoping"]
    assert tele.passed
    assert tele.details["max_gap_to_bound"] <= 1e-9
    assert tele.details["min_avg_truncated_sum"] >= -2.5 * sq_spec.B ** 2 - 1e-9
    consts = big_single_queue_batch.constants
    assert sq_spec.V >= sq_spec.B / consts.C0  # truncation regime hypothesis
    print(f"\n[criterion 3] zero violations across 2 x {BIG_PATHS} x {BIG_T} "
          f"path-slots; telescoping worst gap-to-bound "
          f"{tele.details['max_gap_to_bound']:.3e}, "
          f"worst truncated-sum average {tele.details['min_avg_truncated_sum']:.4f}")


@register_criterion(4, "queue-norm tail bound at the calibrated and three smaller levels")
def test_criterion_4_queue_tail(big_benchmark_batch, sv_constants, sv_tail_levels):
    res = big_benchmark_batch.checks["QueueTail"]
    assert res.passed
    rows = res.details["levels"]
    assert len(rows) == 4
    floor = _wilson_floor(BIG_PATHS)
    reported = []
    for row, c1 in zip(rows, sv_tail_levels):
        bound = queue_tail_bound(sv_constants, c1)
        assert row["theoretical_bound"] == pytest.approx(bound, rel=1e-12)
        assert not row["details"]["vacuous"]  # levels chosen past the crossover
        # the normative verdict: the Wilson interval never excludes the bound
        assert row["wilson_lower"] <= bound
        # the strict comparison wherever n = 1e4 can resolve the bound at all
        if bound >= floor:
            assert row["wilson_upper"] <= bound
        reported.append((c1, bound, row["empirical_frequency"],
                         bound >= floor))
    cross = queue_tail_vacuity_crossover(sv_constants)
    assert all(c1 > cross for c1 in sv_tail_levels)
    lines = ", ".join(f"c1={c1:.0f}: bound={b:.3g} freq={f:.3g}"
                      f"{'' if strict else ' (exclusion rule)'}"
                      for c1, b, f, strict in reported)
    print(f"\n[criterion 4] vacuous below c1={cross:.1f}; {lines}")


@register_criterion(5, "fit-then-validate the hidden approximation constant")
def test_criterion_5_convergence_theorems(sv_spec, sq_spec):
    cfg = BatchConfig(spec=sv_spec, num_paths=3000, T=64, master_seed=424242,
                      epsilon=0.1, delta=DELTA, checks=("Theorem2",))
    multi = run_batch(cfg).checks["Theorem2"]
    assert multi.details["horizon"] == convergence_time_multi(0.1, DELTA) == 5020
    assert multi.details["calibration_paths"] == 1000
    assert multi.num_paths == 2000
    assert multi.wilson_lower >= 0.90 and multi.passed

    cfg = BatchConfig(spec=sq_spec, num_paths=3000, T=64, master_seed=434343,
                      epsilon=0.1, delta=DELTA, checks=("Theorem3",))
    single = run_batch(cfg).checks["Theorem3"]
    probe = constants_for_horizon(sq_spec, 0.25, 898, DELTA)
    assert single.details["horizon"] == convergence_time_single(0.1, DELTA, probe) == 898
    assert single.wilson_lower >= 0.90 and single.passed

    # feasibility proxy at the same horizon: the final queue per slot stays
    # within the delta-calibrated excursion level, itself O(epsilon)
    eps, horizon = 0.1, 5020
    spec10 = sv_spec  # V = 1/epsilon already
    sol = solve_stationary_optimum(spec10)
    consts = constants_for_horizon(spec10, sol.xi_star / 2.0, horizon, DELTA)
    stats = simulate_paths(spec10, derive_seeds(515151, 0, 2000), horizon, sol.z_opt, consts)
    level = math.log(consts.D / DELTA) / consts.r
    exceed = int(np.count_nonzero(stats.final_qnorm > level))
    lo, _ = wilson_interval(exceed, 2000)
    assert lo <= DELTA
    proxy_constant = level / horizon / eps
    assert proxy_constant < 10.0  # the hidden constant is modest at this scale

    print(f"\n[criterion 5] multi: M={multi.details['fitted_M']:.3f} "
          f"pass_frac={multi.empirical_frequency:.4f} "
          f"wilson_lo={multi.wilson_lower:.4f}; "
          f"single: M={single.details['fitted_M']:.3f} "
          f"pass_frac={single.empirical_frequency:.4f} "
          f"wilson_lo={single.wilson_lower:.4f}; "
          f"queue/T proxy <= {proxy_constant:.2f}*eps "
          f"(exceedances {exceed}/2000)")


@register_criterion(6, "substituted horizon keeps the deviation level under 6*C*epsilon")
def test_criterion_6_horizon_arithmetic(sv_spec, sv_solution):
    consts = compute_constants(sv_spec, sv_solution.xi_star / 2.0, c1=1.0)
    worst = 0.0
    for eps in (0.1, 0.05, 0.02):
        for delta in (0.05, 0.01):
            lhs, rhs, ok = chained_deviation_check(consts, eps, delta,
                                                   rel_tol=1e-9)
            assert ok, f"eps={eps} delta={delta}: {lhs} > {rhs}"
            worst = max(worst, lhs / rhs)
    print(f"\n[criterion 6] all six (epsilon, delta) points hold; "
          f"worst lhs/rhs ratio {worst:.4f}")


@register_criterion(7, "supermartingale tail bound on synthetic bounded-difference walks")
def test_criterion_7_azuma_on_walks():
    n, T = 10_000, 1_000
    floor = _wilson_floor(n)
    seed = 777
    summary = []
    for c in (0.5, 1.0, 2.0):
        for kind in ("zero-drift", "negative-drift"):
            u = uniform_block(seed, 0, n * T).reshape(n, T)
            seed += 1
            down = 0.5 if kind == "zero-drift" else 0.6
            steps = np.where(u < down, -c, c)
            y_final = steps.sum(axis=1)
            for k in (2.0, 4.0, 6.0):
                lam = k * c * math.sqrt(T)
                bound = math.exp(-k * k / 2.0)
                exceed = int(np.count_nonzero(y_final >= lam))
                lo, hi = wilson_interval(exceed, n)
                # normative verdict: interval must not exclude the bound
                assert lo <= bound, (kind, c, k, exceed)
                strict = bound >= floor
                if strict:
                    assert hi <= bound, (kind, c, k, exceed)
                summary.append((kind, c, k, exceed, strict))
    strict_points = sum(1 for *_, s in summary if s)
    worst_exceed = max(row[3] for row in summary if row[2] > 2.0)
    print(f"\n[criterion 7] 18 (walk, level) points: {strict_points} strict, "
          f"{len(summary) - strict_points} via the exclusion rule "
          f"(bound below the n=1e4 Wilson floor {floor:.2e}); "
          f"worst count at the two extreme levels: {worst_exceed}")


@register_criterion(8, "simplex optimum and slackness match exhaustive grid search")
def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(20240611)
    worst_opt = 0.0
    worst_slack = 0.0
    for i in range(50):
        spec = random_small_instance(rng)
        sol = solve_stationary_optimum(spec)
        grid_opt = grid_stationary_optimum(spec, resolution=200)
        assert grid_opt is not None
        assert grid_opt >= sol.z_opt - 1e-9  # grid points are feasible points
        assert abs(grid_opt - sol.z_opt) <= 0.01
        xi = solve_max_slackness(spec)
        xi_grid = grid_max_slackness(spec, resolution=200)
        assert xi_grid <= xi + 1e-9
        assert abs(xi_grid - xi) <= 0.01
        worst_opt = max(worst_opt, abs(grid_opt - sol.z_opt))
        worst_slack = max(worst_slack, abs(xi_grid - xi))
    print(f"\n[criterion 8] 50 instances: worst optimum gap {worst_opt:.5f}, "
          f"worst slackness gap {worst_slack:.5f} (tolerance 0.01)")


@register_criterion(9, "time-average curves move the right way with the trade-off weight")
def test_criterion_9_tradeoff_sweep(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("problem = server-scheduling-3x2\nV = 1.0\nT = 300000\n"
                   f"seed = 2024\noutput = {tmp_path / 'out'}\n"
                   "sweep.V_list = 1, 10, 100\nsweep.checkpoints = 12\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    final = {}
    for row in rows:
        v, t, obj, qsum = row.split(",")
        final[float(v)] = (int(t), float(obj), float(qsum))
    assert all(final[v][0] == 300000 for v in (1.0, 10.0, 100.0))
    objs = [final[v][1] for v in (1.0, 10.0, 100.0)]
    qsums = [final[v][2] for v in (1.0, 10.0, 100.0)]
    assert objs[0] > objs[1] > objs[2]          # strictly decreasing
    assert qsums[0] < qsums[1] < qsums[2]       # strictly increasing
    assert abs(objs[2] - 1.1) <= 0.03           # settles at the optimum
    assert abs(objs[1] - 1.1) <= 0.03
    print(f"\n[criterion 9] objectives {np.round(objs, 5).tolist()} "
          f"queue sums {np.round(qsums, 2).tolist()}")
