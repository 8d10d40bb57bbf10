import dataclasses
import math

import numpy as np
import pytest
from helpers import (bound_params, build_trace_from_z, chained_deviation_check,
                     check_trace_laws, deviation_over_horizon)
from hypothesis import given, settings
from hypothesis import strategies as st

from dpp_lab.analysis import (ConsistencyError, azuma_bound, calibrated_deviation_level,
                              compute_constants, constants_for_horizon,
                              convergence_time_multi, convergence_time_single,
                              default_truncation_level, g_tail_bound, queue_tail_bound,
                              queue_tail_vacuity_crossover, xtail_bound)
from dpp_lab.controller import run_path
from dpp_lab.oracle import SlacknessError

SV_PARAMS = bound_params(2.0, math.sqrt(3.0), 10.0)  # z_max, B, V of the benchmark


def test_constants_benchmark_values():
    c = compute_constants(SV_PARAMS, xi=0.1, c1=1.0)
    assert c.C0 == pytest.approx((8.0 + 0.3 - 0.00025) / 0.1, abs=1e-12)
    assert c.C0 == pytest.approx(82.9975, abs=1e-10)
    assert c.r == pytest.approx(0.3 / (18.0 + math.sqrt(3.0) * 0.1), rel=1e-12)
    assert c.rho == pytest.approx(1.0 - c.r * 0.1 / 4.0, rel=1e-12)
    assert 0.0 < c.rho < 1.0
    assert c.D >= 1.0
    assert c.c2 == pytest.approx(2.0 * 10.0 * 2.0 + math.sqrt(3.0) * 1.0, rel=1e-12)
    assert c.C2 == pytest.approx(2.0 * 2.0 + c.C0 * math.sqrt(3.0), rel=1e-12)
    expected_C = 2.0 * math.sqrt(2.0) * (
        4.0 + c.B / (c.r * 10.0)
        + (c.B / (c.r * 10.0)) * math.log((8.0 * math.exp(c.r * c.B) + 0.2 * c.r - 8.0)
                                          / (c.r * 0.1))
        + c.B * c.C0)
    assert c.C == pytest.approx(expected_C, rel=1e-12)


def test_constants_generic_drift_identity():
    # specializing the generic exponential-moment rate beta/(gamma^2 + gamma*beta/3)
    # at gamma=B, beta=xi/2 must reproduce the packaged 3*xi/(6B^2 + B*xi)
    rng = np.random.default_rng(11)
    for _ in range(100):
        B = float(rng.uniform(0.1, 5.0))
        xi = float(rng.uniform(0.01, 1.0)) * B
        c = compute_constants(bound_params(1.0, B, 1.0), xi=xi, c1=1.0)
        beta, gamma = xi / 2.0, B
        r_generic = beta / (gamma * gamma + gamma * beta / 3.0)
        assert c.r == pytest.approx(r_generic, rel=1e-12)
        rho_generic = 1.0 - r_generic * beta / 2.0
        assert c.rho == pytest.approx(rho_generic, rel=1e-12)
        # the two surface forms of the moment ceiling agree
        sigma = c.C0 * 1.0
        d_generic = ((math.exp(r_generic * gamma) - rho_generic)
                     * math.exp(r_generic * sigma) / (1.0 - rho_generic))
        assert c.D == pytest.approx(d_generic, rel=1e-9)


def test_constants_validation():
    with pytest.raises(SlacknessError):
        compute_constants(SV_PARAMS, xi=0.0, c1=1.0)
    with pytest.raises(SlacknessError):
        compute_constants(SV_PARAMS, xi=10.0, c1=1.0)  # xi > B
    with pytest.raises(ValueError):
        compute_constants(SV_PARAMS, xi=0.1, c1=0.0)


def test_default_truncation_level_calibration():
    xi, T, delta = 0.1, 1000, 0.05
    c1 = default_truncation_level(SV_PARAMS, xi, T, delta)
    c = compute_constants(SV_PARAMS, xi, c1)
    assert T * c.D * math.exp(-c.r * c.c1) == pytest.approx(delta / 2.0, rel=1e-9)


def test_azuma_bound_values():
    assert azuma_bound(100, 1.0, 30.0) == pytest.approx(math.exp(-4.5), rel=1e-12)
    assert azuma_bound(100, 1.0, 30.0) == pytest.approx(0.011109, abs=1e-6)
    assert azuma_bound(10, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-9)
    b1 = azuma_bound(50, 2.0, 5.0)
    b2 = azuma_bound(50, 2.0, 10.0)
    assert b2 == pytest.approx(b1 ** 4, rel=1e-9)
    with pytest.raises(ValueError):
        azuma_bound(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        azuma_bound(10, 1.0, -1.0)


def test_queue_tail_bound_inversion_and_clamp():
    c = compute_constants(SV_PARAMS, xi=0.1, c1=1.0)
    delta = 0.01
    c1 = math.log(c.D / delta) / c.r
    assert queue_tail_bound(c, c1) == pytest.approx(delta, rel=1e-9)
    assert queue_tail_bound(c, 1e-9) == 1.0  # D >= 1 makes tiny levels vacuous
    cross = queue_tail_vacuity_crossover(c)
    assert queue_tail_bound(c, cross * 0.99) == 1.0
    assert queue_tail_bound(c, cross * 1.01) < 1.0
    with pytest.raises(ValueError):
        queue_tail_bound(c, 0.0)


def test_moment_ceiling_at_least_one_across_sweep():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(200):
        z_max = float(rng.uniform(0.1, 5.0))
        B = float(rng.uniform(0.1, 5.0))
        V = float(rng.uniform(0.5, 100.0))
        xi = float(rng.uniform(0.05, 1.0)) * B
        try:
            c = compute_constants(bound_params(z_max, B, V), xi=xi, c1=1.0)
        except ConsistencyError:
            continue  # representable-range guard; parameters too extreme
        assert c.D >= 1.0
        checked += 1
    assert checked > 100


def test_constants_fail_closed_past_float_range():
    with pytest.raises(ConsistencyError):
        compute_constants(bound_params(5.0, 0.1, 1000.0), xi=0.005, c1=1.0)


def test_xtail_bound_calibrated_to_delta():
    T, delta, xi = 500, 0.05, 0.1
    c = constants_for_horizon(SV_PARAMS, xi, T, delta)
    lam = calibrated_deviation_level(c, T, delta)
    assert xtail_bound(c, T, lam) == pytest.approx(delta, rel=1e-9)
    # one-sided monotonicity in lambda
    lams = np.linspace(lam * 0.2, lam * 3.0, 20)
    vals = [xtail_bound(c, T, float(l)) for l in lams]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    # monotone in the truncation level up to the calibrated point, where the
    # excursion term dominates; past it the difference bound c2 takes over
    levels = np.linspace(c.c1 * 0.3, c.c1, 10)
    vals = [xtail_bound(compute_constants(SV_PARAMS, xi, float(l)), T, lam)
            for l in levels]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    past = xtail_bound(compute_constants(SV_PARAMS, xi, c.c1 * 4.0), T, lam)
    assert past > vals[-1]  # the turn is real, not a float artifact


def test_xtail_bound_tiny_for_huge_levels():
    c = compute_constants(SV_PARAMS, xi=0.1, c1=1e7)
    assert xtail_bound(c, 1, 1e9) < 1e-12


def test_convergence_time_multi_values():
    assert convergence_time_multi(0.1, 0.05) == 5020
    # budget at which the failure-term logarithm collapses to one
    delta = 2.0 / math.e
    for eps in (0.5, 0.1, 0.03):
        le = math.log(1.0 / eps)
        assert convergence_time_multi(eps, delta) == math.ceil(
            max(le * le, 1.0) / (eps * eps))
    for eps in (0.2, 0.1, 0.04):
        assert convergence_time_multi(eps / 2, 0.05) >= 4 * convergence_time_multi(eps, 0.05)
    with pytest.raises(ValueError):
        convergence_time_multi(0.0, 0.05)
    with pytest.raises(ValueError):
        convergence_time_multi(0.1, 1.5)


def test_convergence_time_single_values():
    c = compute_constants(bound_params(1.0, 1.0, 10.0), xi=0.25, c1=1.0)
    assert convergence_time_single(0.1, 0.05, c) == 898
    assert convergence_time_single(0.1, 1.0 / math.e, c) == 100
    for eps in (0.1, 0.05):
        for delta in (0.2, 0.1, 0.05, 0.01):
            assert (convergence_time_single(eps, delta, c)
                    <= convergence_time_multi(eps, delta))
    with pytest.raises(ValueError):
        convergence_time_single(c.C0 / c.B * 1.01, 0.05, c)  # past the valid range
    for delta in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)$"):
            convergence_time_single(0.1, delta, c)


def test_convergence_times_fail_closed():
    # a positive horizon that underflows still takes one slot
    assert convergence_time_multi(1e300, 0.05) == 1
    wide = dataclasses.replace(compute_constants(SV_PARAMS, xi=0.1, c1=1.0), C0=1e308)
    assert convergence_time_single(1e300, 0.05, wide) == 1
    # eps^2 underflows to zero at 1e-200; at 1e-160 the quotient overflows
    for eps in (1e-200, 1e-160):
        with pytest.raises(ValueError, match=f"epsilon={eps!r}"):
            convergence_time_multi(eps, 0.05)
        with pytest.raises(ValueError, match=f"epsilon={eps!r}"):
            convergence_time_single(eps, 0.05, wide)


def test_chained_deviation_inequality_grid():
    c = compute_constants(SV_PARAMS, xi=2.0 / 30.0, c1=1.0)
    for eps in (0.1, 0.05, 0.02):
        for delta in (0.05, 0.01):
            lhs, rhs, ok = chained_deviation_check(c, eps, delta)
            assert ok and lhs <= rhs
    # the deviation level itself is positive and finite
    assert deviation_over_horizon(c, 100, 0.05) > 0.0


def test_g_tail_threshold_algebra():
    c = compute_constants(bound_params(1.0, 1.0, 10.0), xi=0.25, c1=1.0)
    lam = g_tail_bound(c, 400, 1.0 / math.e)
    assert lam == pytest.approx(2.0 * c.C2 * c.V * 20.0, rel=1e-12)
    assert g_tail_bound(c, 1600, 1.0 / math.e) == pytest.approx(2.0 * lam, rel=1e-12)
    with pytest.raises(ValueError):
        g_tail_bound(c, 0, 0.5)
    with pytest.raises(ValueError):
        g_tail_bound(c, 10, 1.5)


def test_trace_laws_flat_trace():
    tr = build_trace_from_z([1.1] * 8, [[0.0]] * 8)
    c = compute_constants(bound_params(2.0, 1.0, 5.0), xi=0.5, c1=10.0)
    rep = check_trace_laws(tr, z_opt=1.1, constants=c)
    assert rep.violated == ()
    assert rep.x_final == rep.y_final == rep.g_final == 0.0


def test_trace_laws_single_slot():
    tr = build_trace_from_z([0.9], [[0.4]])
    c = compute_constants(bound_params(2.0, 1.0, 5.0), xi=0.5, c1=10.0)
    rep = check_trace_laws(tr, z_opt=0.5, constants=c)
    assert rep.x_final == rep.y_final == rep.g_final == 5.0 * (0.9 - 0.5)  # queue empty


def test_trace_laws_stopping(sv_spec, sv_solution):
    tr = run_path(sv_spec, seed=6, T=2000)
    tight = compute_constants(sv_spec, xi=2.0 / 30.0, c1=5.0)  # force an early stop
    qn = np.sqrt(np.einsum("ij,ij->i", tr.q_before, tr.q_before))
    tau = int(np.nonzero(qn > 5.0)[0][0]) + 1  # first slot starting above c1
    # brute-force X and the process Y frozen before slot tau, summed left to right
    qz = np.zeros(tr.T)
    for l in range(sv_spec.L):
        qz += tr.q_before[:, l] * tr.z[:, l]
    x = y = 0.0
    for t, dx in enumerate((sv_spec.V * (tr.z0 - sv_solution.z_opt) + qz).tolist(), 1):
        x += dx
        y += dx if t < tau else 0.0
    rep = check_trace_laws(tr, sv_solution.z_opt, tight)
    assert rep.violated == ()
    assert (rep.x_final, rep.y_final) == (x, y) and x != y
    loose = constants_for_horizon(sv_spec, 2.0 / 30.0, tr.T, 0.05)
    assert np.all(qn <= loose.c1)
    rep = check_trace_laws(tr, sv_solution.z_opt, loose)
    assert rep.violated == ()
    assert rep.y_final == rep.x_final == x
    assert rep.g_final is None


def test_truncated_and_stopped_processes_coincide_without_excursions(sq_spec, sq_solution):
    tr = run_path(sq_spec, seed=13, T=3000)
    xi = sq_solution.xi_star / 2.0
    base = compute_constants(sq_spec, xi=xi, c1=1.0)
    c = compute_constants(sq_spec, xi=xi, c1=base.C0 * sq_spec.V)
    assert np.max(tr.q[:, 0]) <= c.C0 * sq_spec.V  # no excursion on this path
    rep = check_trace_laws(tr, sq_solution.z_opt, c)
    assert rep.y_final == rep.x_final
    assert rep.g_final == rep.x_final
    assert rep.nJ == tr.T + 1  # every slot's queue lies in [0, C0*V]


def test_difference_bounds_flag_crafted_jump():
    # a trace whose costs overrun the declared z_max breaks the c2 law
    tr = build_trace_from_z([5.0, 0.0], [[0.0], [0.0]])
    tiny = compute_constants(bound_params(1e-3, 1.0, 1.0), xi=0.9, c1=1e-3)
    assert tiny.c2 < 1.0
    rep = check_trace_laws(tr, z_opt=0.0, constants=tiny)
    assert rep.violated == ("stopped process difference bound",
                            "truncated process difference bound")
    assert rep.problems["stopped process difference bound"] == [
        f"slot 1: 5.0 exceeds {tiny.c2!r}"]
    assert rep.nJ is None  # C0*V < B: the telescoping laws do not apply


def test_telescoping_trivial_paths():
    c = compute_constants(bound_params(1.0, 1.0, 1.0), xi=1.0, c1=1.0)
    assert c.C0 == pytest.approx(4.75)
    flat = build_trace_from_z([0.0] * 6, [[0.0]] * 6)
    rep = check_trace_laws(flat, 0.0, c)
    assert rep.violated == () and rep.nJ == 7 and rep.tele_gap == 0.0
    assert rep.tele_avg == 0.0


def test_telescoping_with_active_truncation():
    # drive the queue above C0*V = 4.75 and back down; the laws hold for any
    # increment sequence bounded by B once the cap clears one step
    c = compute_constants(bound_params(1.0, 1.0, 1.0), xi=1.0, c1=100.0)
    ups = [[1.0]] * 8
    downs = [[-1.0]] * 8
    tr = build_trace_from_z([0.0] * 16, ups + downs)
    assert np.max(tr.q[:, 0]) == 8.0 > c.C0
    rep = check_trace_laws(tr, 0.0, c)
    assert rep.violated == ()
    # last visit to [0, 4.75]: queue returns below the cap on the way down
    q = tr.q[:, 0]
    expected_nJ = int(np.nonzero(q <= c.C0)[0][-1]) + 1
    assert rep.nJ == expected_nJ
    # hand check of the partial-sum gap at nJ
    cap = c.C0 * 1.0
    terms = np.minimum(q[:-1], cap) * tr.z[:, 0]
    gap = abs(float(np.sum(terms[:rep.nJ - 1])) - 0.5 * float(q[rep.nJ - 1]) ** 2)
    assert rep.tele_gap == pytest.approx(gap, abs=1e-12)
    assert rep.tele_gap <= 2.5 * (rep.nJ - 1) + 1e-9


def test_telescoping_randomized_paths(sq_spec, sq_solution):
    xi = sq_solution.xi_star / 2.0
    c = constants_for_horizon(sq_spec, xi, 2000, 0.05)
    for seed in range(30):
        tr = run_path(sq_spec, seed=seed, T=2000)
        rep = check_trace_laws(tr, sq_solution.z_opt, c)
        assert rep.violated == ()
        assert rep.tele_avg >= -2.5 * sq_spec.B ** 2 - 1e-9


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_telescoping_laws_hold_for_any_bounded_increments(z_seq):
    # the partial-sum and floor laws are deterministic statements about the
    # queue recursion itself, not about any particular decision rule
    c = compute_constants(bound_params(1.0, 1.0, 1.0), xi=1.0, c1=100.0)
    tr = build_trace_from_z([0.0] * len(z_seq), [[z] for z in z_seq])
    rep = check_trace_laws(tr, 0.0, c)
    assert rep.violated == () and rep.tele_gap is not None


def test_trace_laws_skip_single_constraint_laws_on_multi_constraint(sv_spec, sv_solution):
    tr = run_path(sv_spec, seed=1, T=50)
    c = constants_for_horizon(sv_spec, 2.0 / 30.0, 50, 0.05)
    rep = check_trace_laws(tr, sv_solution.z_opt, c)
    assert rep.violated == ()
    assert rep.nJ is None and rep.tele_gap is None and rep.tele_avg is None


def test_understated_B_trips_the_telescoping_laws():
    # the queue alternates 0, 1, 0, ...: the truncated sum falls by 1 every
    # second slot, more than the 2.5*B^2 per slot allowed at B = 1/4
    c = compute_constants(bound_params(1.0, 1.0, 1.0), xi=1.0, c1=100.0)
    tr = build_trace_from_z([0.0] * 40, [[1.0], [-1.0]] * 20)
    assert check_trace_laws(tr, 0.0, c).violated == ()
    rep = check_trace_laws(tr, 0.0, dataclasses.replace(c, B=0.25))
    assert rep.violated == ("queue norm step bound", "quadratic drift bound",
                            "telescoping partial-sum law", "truncated sum lower bound")
    assert (rep.nJ, rep.tele_gap, rep.tele_avg) == (41, 20.0, -0.5)
    assert rep.problems["telescoping partial-sum law"] == ["slot 40: 20.0 exceeds 6.25"]


def test_rho_out_of_range_is_impossible_by_construction():
    # xi <= B keeps r*xi/4 inside (0, 1); the guard still exists for bad input
    with pytest.raises((ConsistencyError, SlacknessError)):
        compute_constants(bound_params(1.0, 1.0, 1.0), xi=5.0, c1=1.0)
