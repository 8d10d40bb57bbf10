import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import (check_trace_laws, derive_seed, empirical_tail,
                     exact_conditional_dpp_expectation,
                     exact_conditional_truncated_expectation, ragged_spec,
                     reference_dpp_expectation, reference_kf_expectations,
                     reference_truncated_expectation, tight_step_spec, unchecked_spec)
from hypothesis import given, settings
from hypothesis import strategies as st

from dpp_lab import montecarlo
from dpp_lab.analysis import (calibrated_deviation_level, compute_constants,
                              constants_for_horizon, convergence_time_multi)
from dpp_lab.controller import ScoreTensor, run_path
from dpp_lab.core import ProblemSpec
from dpp_lab.events import builtin_spec, derive_seeds
from dpp_lab.montecarlo import (CHUNK, BatchConfig, ChunkStats, InvariantViolation,
                                run_batch, simulate_chunk, simulate_paths,
                                wilson_interval)
from dpp_lab.oracle import solve_stationary_optimum
from dpp_lab.schema import load_schema, validate


def test_wilson_interval_properties():
    lo, hi = wilson_interval(0, 10_000)
    assert lo == 0.0
    assert hi == pytest.approx(1.96 ** 2 / (10_000 + 1.96 ** 2), rel=1e-12)
    lo, hi = wilson_interval(10_000, 10_000)
    assert hi == pytest.approx(1.0, abs=1e-12) and lo > 0.99
    prev_lo = -1.0
    for k in (0, 5, 50, 500, 5000):
        lo, hi = wilson_interval(k, 10_000)
        assert 0.0 <= lo <= k / 10_000 <= hi <= 1.0
        assert lo >= prev_lo
        prev_lo = lo
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


def test_empirical_tail_degenerate_thresholds(sv_spec, sv_solution):
    traces = [run_path(sv_spec, seed=s, T=50) for s in range(30)]
    consts = constants_for_horizon(sv_spec, sv_solution.xi_star / 2, 50, 0.05)
    est = empirical_tail(traces, "QueueNormMax", float("-inf"))
    assert est.frequency == 1.0
    est = empirical_tail(traces, "QueueNormMax", float("inf"))
    assert est.frequency == 0.0
    est = empirical_tail(traces, "XT", float("inf"),
                         z_opt=sv_solution.z_opt, constants=consts)
    assert est.frequency == 0.0
    with pytest.raises(ValueError):
        empirical_tail(traces[:29], "QueueNormMax", 0.0)
    with pytest.raises(ValueError):
        empirical_tail(traces, "GT", 0.0, z_opt=1.1, constants=consts)
    with pytest.raises(ValueError):
        empirical_tail(traces, "height", 0.0)


def test_empirical_tail_at_calibrated_level(sv_spec, sv_solution):
    # the deviation threshold calibrated to delta is far beyond what paths
    # reach, and with 200 paths the Wilson upper bound sits below delta
    T, delta = 300, 0.05
    consts = constants_for_horizon(sv_spec, sv_solution.xi_star / 2, T, delta)
    traces = [run_path(sv_spec, seed=1000 + s, T=T) for s in range(200)]
    lam = calibrated_deviation_level(consts, T, delta)
    est = empirical_tail(traces, "XT", lam, z_opt=sv_solution.z_opt, constants=consts)
    assert est.wilson_upper <= delta


def test_batch_reproducibility(sq_spec):
    cfg = BatchConfig(spec=sq_spec, num_paths=64, T=400, master_seed=5,
                      checks=("QueueTail", "XTail", "GTail", "Telescoping"))
    a = run_batch(cfg).to_json_dict()
    b = run_batch(cfg).to_json_dict()
    assert a == b


ENGINE_SPECS = {
    "server": lambda: builtin_spec("server-scheduling-3x2", 10.0),
    "single": lambda: builtin_spec("single-queue-serve-idle", 10.0),
    "ragged": ragged_spec,
}


def _split_run(spec, master_seed, cuts, T, z_opt, consts):
    """simulate_paths' paths run as simulate_chunk pieces cut at ``cuts``."""
    seeds = np.asarray([derive_seed(master_seed, i) for i in range(cuts[-1])],
                       dtype=np.uint64)
    return ChunkStats.concat([simulate_chunk(spec, seeds[lo:hi], lo, T, z_opt, consts)
                              for lo, hi in zip(cuts, cuts[1:])])


def _assert_stats_equal(a, b):
    for f in fields(ChunkStats):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x is None and y is None) or x.tobytes() == y.tobytes(), f.name


CUTS = (0, 1000, 7000, 2 * CHUNK + 17)  # a split other than simulate_paths' own


@pytest.mark.parametrize("name", ["server", "single"])
def test_batch_is_invariant_to_chunking(name):
    spec = ENGINE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    T = 52
    consts = constants_for_horizon(spec, sol.xi_star / 2, T, 0.05)
    whole = simulate_paths(spec, derive_seeds(1, 0, CUTS[-1]), T, sol.z_opt, consts)
    _assert_stats_equal(whole, _split_run(spec, 1, CUTS, T, sol.z_opt, consts))


def test_violation_path_index_is_invariant_to_chunking(sv_spec, sv_solution):
    # a B understated by 0.1% trips on one rare path of the second chunk of
    # 4096 and the third piece of CUTS: both runs name the same global path
    T = 52
    consts = constants_for_horizon(sv_spec, sv_solution.xi_star / 2, T, 0.05)
    spec = unchecked_spec(sv_spec, B=sv_spec.B * 0.999)
    found = []
    seeds = derive_seeds(1, 0, CUTS[-1])
    for run in (lambda: simulate_paths(spec, seeds, T, sv_solution.z_opt, consts),
                lambda: _split_run(spec, 1, CUTS, T, sv_solution.z_opt, consts)):
        with pytest.raises(InvariantViolation) as err:
            run()
        e = err.value
        found.append((e.law, e.path_index, e.path_seed, e.slot, e.detail))
    assert found[0] == found[1]
    assert found[0][:4] == ("quadratic drift bound", 7121, derive_seed(1, 7121), 51)


def test_earliest_violation_is_invariant_to_chunk_size(sv_spec, sv_solution, monkeypatch):
    # with B understated by 1%, paths 0-999 first fail at slot 57 (path 911)
    # but path 2001 fails at slot 55: every chunk size must report path 2001
    T = 60
    consts = constants_for_horizon(sv_spec, sv_solution.xi_star / 2, T, 0.05)
    spec = unchecked_spec(sv_spec, B=sv_spec.B * 0.99)
    found = set()
    for chunk in (1000, 2000, 4096, 8192):
        monkeypatch.setattr(montecarlo, "CHUNK", chunk)
        with pytest.raises(InvariantViolation) as err:
            simulate_paths(spec, derive_seeds(8, 0, 8192), T, sv_solution.z_opt, consts)
        e = err.value
        found.add((e.law, e.path_index, e.path_seed, e.slot, e.detail))
    assert len(found) == 1
    assert next(iter(found))[:4] == ("quadratic drift bound", 2001, derive_seed(8, 2001), 55)


@pytest.mark.parametrize("chunk", [CHUNK, 7])
@pytest.mark.parametrize("name", sorted(ENGINE_SPECS))
def test_merged_seed_sets_match_separate_calls(name, chunk, monkeypatch):
    # a theorem check's calibration and validation seeds run as one batch,
    # also with a chunk that straddles the two; each set's per-path results
    # are bit-equal to its own call
    monkeypatch.setattr(montecarlo, "CHUNK", chunk)
    spec = ENGINE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    T = 120
    consts = constants_for_horizon(spec, sol.xi_star / 2, T, 0.05)
    sets = (derive_seeds(4, 1 << 32, 5), derive_seeds(4, 2 << 32, 11))
    both = simulate_paths(spec, np.concatenate(sets), T, sol.z_opt, consts)
    assert both.avg_obj.shape == (16,)
    for lo, seeds in zip((0, 5), sets):
        alone = simulate_paths(spec, seeds, T, sol.z_opt, consts)
        for f in fields(ChunkStats):
            x, y = getattr(both, f.name), getattr(alone, f.name)
            assert (x is None and y is None) or x[lo:lo + len(seeds)].tobytes() == y.tobytes()


@pytest.mark.parametrize("seed,expected", [
    # the validation set's path 1, batch path 2, fails at slot 32
    (7, ("quadratic drift bound", 2, derive_seed(7, (2 << 32) + 1), 32)),
    # the validation set's path 0 fails at slot 11, before the calibration
    # path's failure at slot 30
    (2, ("quadratic drift bound", 1, derive_seed(2, 2 << 32), 11)),
])
def test_theorem_violation_names_its_own_set(sv_spec, monkeypatch, seed, expected):
    # B understated by 0.1%; epsilon = 1 gives V = 1 and a Theorem2 horizon
    # of 51 slots over 1 calibration and 2 validation paths, while the main
    # batch (5 slots) stays clean
    monkeypatch.setattr(ProblemSpec, "with_v", lambda self, V: unchecked_spec(self, V=V))
    spec = unchecked_spec(sv_spec, B=sv_spec.B * 0.999)
    sol = solve_stationary_optimum(spec)
    cfg = BatchConfig(spec=spec, num_paths=3, T=5, master_seed=seed, epsilon=1.0,
                      checks=("Theorem2",))
    with pytest.raises(InvariantViolation) as err:
        run_batch(cfg)
    e = err.value
    horizon = convergence_time_multi(1.0, cfg.delta)
    assert (e.law, e.path_index, e.path_seed, e.slot, e.T, e.V) == expected + (horizon, 1.0)
    # the batch of the theorem's seeds, calibration first, raises it too
    v_spec = spec.with_v(1.0)
    consts = constants_for_horizon(v_spec, sol.xi, horizon, cfg.delta)
    seeds = np.concatenate([derive_seeds(seed, 1 << 32, 1), derive_seeds(seed, 2 << 32, 2)])
    with pytest.raises(InvariantViolation) as alone:
        simulate_paths(v_spec, seeds, horizon, sol.z_opt, consts)
    assert str(alone.value) == str(e)


def test_batch_reports_earliest_slot_then_law_then_path(sv_spec, monkeypatch):
    raised = {0: InvariantViolation("quadratic drift bound", 1, 0, 7),
              2: InvariantViolation("queue norm step bound", 2, 0, 7),
              4: InvariantViolation("queue norm step bound", 5, 0, 7),
              6: InvariantViolation("exact conditional expectation", 6, 0, 8)}

    def fail(spec, seeds, path_offset, *args, **kwargs):
        raise raised[path_offset]
    monkeypatch.setattr(montecarlo, "CHUNK", 2)
    monkeypatch.setattr(montecarlo, "simulate_chunk", fail)
    with pytest.raises(InvariantViolation) as err:
        simulate_paths(sv_spec, derive_seeds(1, 0, 8), 10, 0.0, None)
    assert err.value is raised[2]


def test_single_path_batch_matches_direct_run(sv_spec, sv_solution):
    T = 300
    cfg = BatchConfig(spec=sv_spec, num_paths=1, T=T, master_seed=13,
                      checks=("QueueTail",))
    summary = run_batch(cfg)
    consts = constants_for_horizon(sv_spec, sv_solution.xi_star / 2, T, cfg.delta)
    tr = run_path(sv_spec, derive_seed(13, 0), T)
    med = [row for row in summary.objective_quantiles if row[0] == 0.5][0][1]
    assert med == pytest.approx(np.sum(tr.z0) / T, rel=1e-12)
    rep = check_trace_laws(tr, sv_solution.z_opt, consts)
    stats = simulate_paths(sv_spec, derive_seeds(13, 0, 1), T, sv_solution.z_opt, consts)
    assert stats.x_final[0] == rep.x_final
    qn = float(np.max(np.sqrt(np.einsum("ij,ij->i", tr.q_before, tr.q_before))))
    assert stats.max_qnorm[0] == qn


@pytest.mark.parametrize("key_feature,chaos", [
    (False, None), (True, None),
    (False, "skip-minimization"), (False, "worst-action"),
], ids=["False", "True", "skip-minimization", "worst-action"])
@pytest.mark.parametrize("name", sorted(ENGINE_SPECS))
def test_lockstep_matches_scalar_engine_bitwise(name, key_feature, chaos):
    # action choices, queue paths, and running sums agree bit for bit, also
    # when the KeyFeature expectations are read from the same score tensor,
    # and under each chaos rule (which trips KeyFeature, so it runs bare)
    spec = ENGINE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    T, N = 250, 8
    consts = constants_for_horizon(spec, sol.xi_star / 2, T, 0.05)
    stats = simulate_paths(spec, derive_seeds(21, 0, N), T, sol.z_opt, consts,
                           chaos=chaos, key_feature=key_feature)
    for i in range(N):
        tr = run_path(spec, derive_seed(21, i), T, chaos=chaos)
        s = 0.0
        for v in tr.z0.tolist():
            s += v
        assert stats.avg_obj[i] == s / T
        dots = np.zeros(T)
        na2 = 0.0
        for l in range(spec.L):
            dots += tr.q_before[:, l] * tr.z[:, l]
            na2 += tr.q[-1, l] * tr.q[-1, l]
        x = 0.0
        for v in (spec.V * (tr.z0 - sol.z_opt) + dots).tolist():
            x += v
        assert stats.x_final[i] == x
        assert stats.final_qnorm[i] == np.sqrt(na2)


@pytest.mark.parametrize("chaos", [None, "skip-minimization", "worst-action"])
@pytest.mark.parametrize("name", sorted(ENGINE_SPECS))
def test_score_tensor_expectations_match_per_event_loop(name, chaos):
    # random queue states, integer-valued ones too (exact score ties), and
    # random truncation caps: the tensor gives the reference loop's
    # expectations bit for bit, and so does a 1-state tensor on each state,
    # so the event sums do not depend on the chunk size
    spec = ENGINE_SPECS[name]()
    rng = np.random.default_rng(2024)
    N, z_opt = 500, solve_stationary_optimum(spec).z_opt
    tensor, one = ScoreTensor(spec, N), ScoreTensor(spec, 1)
    for draw in range(6):
        if draw % 2:
            q = [rng.integers(0, 12, N).astype(float) for _ in range(spec.L)]
        else:
            q = [rng.uniform(0.0, 60.0, N) for _ in range(spec.L)]
        cap = rng.uniform(0.0, 30.0)
        trunc = np.minimum(q[0], cap) if spec.L == 1 else None
        tensor.choose(q, chaos)
        got = tensor.expectations(z_opt, trunc)
        want = reference_kf_expectations(spec, q, z_opt, trunc, chaos)
        assert got[0].tobytes() == want[0].tobytes()
        if trunc is None:
            assert got[1] is None and want[1] is None
        else:
            assert got[1].tobytes() == want[1].tobytes()
        for i in range(N):
            one.choose([ql[i:i + 1] for ql in q], chaos)
            alone = one.expectations(z_opt, None if trunc is None else trunc[i:i + 1])
            assert alone[0].tobytes() == got[0][i:i + 1].tobytes()
            if trunc is not None:
                assert alone[1].tobytes() == got[1][i:i + 1].tobytes()
        if chaos is None:  # the oracles and the scalar rule agree on the honest rule
            for i in range(20):
                qi = [float(ql[i]) for ql in q]
                oracle = exact_conditional_dpp_expectation(spec, qi, z_opt)
                assert float(got[0][i]).hex() == oracle.hex()
                assert oracle.hex() == reference_dpp_expectation(spec, qi, z_opt).hex()
                if trunc is not None:
                    oracle = exact_conditional_truncated_expectation(spec, qi[0], z_opt, cap)
                    assert float(got[1][i]).hex() == oracle.hex()
                    want = reference_truncated_expectation(spec, qi[0], z_opt, cap)
                    assert oracle.hex() == want.hex()


def test_batch_config_validation(sv_spec, sq_spec):
    with pytest.raises(ValueError):
        BatchConfig(spec=sv_spec, num_paths=0, T=10, master_seed=1)
    with pytest.raises(ValueError):
        BatchConfig(spec=sv_spec, num_paths=1, T=0, master_seed=1)
    with pytest.raises(ValueError):
        BatchConfig(spec=sv_spec, num_paths=1, T=10, master_seed=1,
                    checks=("Theorem3",))
    with pytest.raises(ValueError):
        BatchConfig(spec=sv_spec, num_paths=1, T=10, master_seed=1,
                    checks=("Sharpness",))
    BatchConfig(spec=sq_spec, num_paths=1, T=10, master_seed=1,
                checks=("Theorem3", "GTail", "Telescoping"))


@pytest.mark.parametrize("check", ["Theorem2", "Theorem3"])
def test_theorem_checks_need_epsilon_at_most_one(sq_spec, check):
    def config(epsilon, checks):
        return BatchConfig(spec=sq_spec, num_paths=1, T=10, master_seed=1,
                           epsilon=epsilon, checks=checks)
    for bad in (0.0, -0.1, 1.0 + 1e-12, 1e300, math.nan):
        with pytest.raises(ValueError, match=rf"^check {check} needs epsilon in \(0, 1\]"):
            config(bad, ("QueueTail", check))
        config(bad, ("QueueTail",))  # the other checks do not read epsilon
    for ok in (1.0, 1e-300):
        config(ok, (check,))


def test_chaos_raises_with_replay_information(sv_spec, sv_solution):
    cfg = BatchConfig(spec=sv_spec, num_paths=16, T=400, master_seed=3,
                      checks=("KeyFeature",), chaos="skip-minimization")
    with pytest.raises(InvariantViolation) as err:
        run_batch(cfg)
    v = err.value
    assert v.law == "exact conditional expectation"
    assert v.path_seed == derive_seed(3, v.path_index)
    # replay the offending slot in isolation and confirm the violation
    tr = run_path(sv_spec, v.path_seed, v.slot, chaos="skip-minimization")
    q = tr.q_before[v.slot - 1].tolist()
    val = 0.0
    for e in sv_spec.events:
        a = e.actions[0]  # the chaotic rule always picks index 0
        term = sv_spec.V * (a.z0 - sv_solution.z_opt)
        for l in range(sv_spec.L):
            term += q[l] * a.z[l]
        val += e.probability * term
    assert val > 1e-9
    # the honest rule at the same queue state stays nonpositive
    assert exact_conditional_dpp_expectation(sv_spec, q, sv_solution.z_opt) <= 1e-9


def test_violation_message_prints_plain_floats(sv_spec):
    cfg = BatchConfig(spec=sv_spec, num_paths=16, T=400, master_seed=3,
                      checks=("KeyFeature",), chaos="skip-minimization")
    with pytest.raises(InvariantViolation) as err:
        run_batch(cfg)
    msg = str(err.value)
    assert "np.float64" not in msg
    assert msg.endswith(f": {err.value.detail}")
    value = float(err.value.detail.removeprefix("value "))
    assert err.value.detail == f"value {value!r}" and value > 1e-9


@pytest.mark.xfail(strict=True, raises=InvariantViolation,
                   reason="fl(q + z) rounds by up to half an ulp of q, so on a queue near "
                          "3.4e3 the drift exceeds B^2/2 + q*z by more than LAW_TOL")
def test_quadratic_drift_bound_survives_queue_update_rounding():
    # an honest batch: the law is tight (||z|| = B) and the data are not integers;
    # path 10 (seed 9337564633507329004) fails at slot 177 by about 1.3e-9
    cfg = BatchConfig(spec=tight_step_spec(33.3, V=4e5), num_paths=11, T=200,
                      master_seed=1, checks=("QueueTail",))
    run_batch(cfg)


def _engine_violation(spec, consts, z_opt, *, key_feature=False):
    seeds = np.asarray([derive_seed(5, i) for i in range(64)], dtype=np.uint64)
    with pytest.raises(InvariantViolation) as err:
        simulate_chunk(spec, seeds, 0, 300, z_opt, consts, key_feature=key_feature)
    assert err.value.path_seed == int(seeds[err.value.path_index])
    return err.value


@pytest.mark.parametrize("factor,law,path,slot", [
    (0.5, "queue norm step bound", 1, 1),
    (0.75, "quadratic drift bound", 7, 2),
])
def test_understated_B_trips_the_engine(sv_spec, sv_solution, factor, law, path, slot):
    consts = constants_for_horizon(sv_spec, sv_solution.xi_star / 2.0, 300, 0.05)
    err = _engine_violation(unchecked_spec(sv_spec, B=sv_spec.B * factor), consts,
                            sv_solution.z_opt)
    assert (err.law, err.path_index, err.slot) == (law, path, slot)
    assert "np.float64" not in str(err) and " exceeds " in err.detail


def test_understated_z_max_trips_the_stopped_difference_bound(sv_spec, sv_solution):
    # c2 = 2*V*z_max + B*c1 is far below |dY| = V*|z0 - z_opt| on slot 1
    spec = unchecked_spec(sv_spec, z_max=sv_spec.z_max / 100.0)
    consts = compute_constants(spec, sv_solution.xi_star / 2.0, c1=0.01)
    err = _engine_violation(spec, consts, sv_solution.z_opt)
    assert (err.law, err.path_index, err.slot) == ("stopped process difference bound", 0, 1)


def test_understated_z_max_trips_the_truncated_difference_bound(sq_spec, sq_solution):
    # 2*V*z_max + C0*V*B drops below |dG| = V*|z0 - z_opt| = 5 on slot 1
    spec = unchecked_spec(sq_spec, z_max=sq_spec.z_max / 1000.0)
    consts = constants_for_horizon(spec, sq_solution.xi_star / 2.0, 300, 0.05)
    err = _engine_violation(spec, consts, sq_solution.z_opt)
    assert (err.law, err.path_index, err.slot) == ("truncated process difference bound", 0, 1)


def test_understated_z_max_trips_the_truncated_key_feature(sq_spec, sq_solution):
    # the truncation cap C0*V computed from a wrong z_max is too low for the
    # truncated drift argument, while every difference bound still holds
    spec = unchecked_spec(sq_spec, z_max=sq_spec.z_max / 100.0)
    consts = constants_for_horizon(spec, sq_solution.xi_star / 2.0, 300, 0.05)
    err = _engine_violation(spec, consts, sq_solution.z_opt, key_feature=True)
    assert (err.law, err.path_index, err.slot) == (
        "exact truncated conditional expectation", 13, 15)


@pytest.mark.parametrize("nan_in,key_feature,law", [
    ("c2", False, "stopped process difference bound"),
    ("z_opt", True, "exact conditional expectation"),
])
def test_nan_fails_the_engine(sq_spec, sq_solution, nan_in, key_feature, law):
    # a NaN fails every law comparison, as it does on stored traces
    consts = constants_for_horizon(sq_spec, sq_solution.xi_star / 2.0, 300, 0.05)
    z_opt = sq_solution.z_opt
    if nan_in == "c2":
        consts = replace(consts, c2=math.nan)
    else:
        z_opt = math.nan
    err = _engine_violation(sq_spec, consts, z_opt, key_feature=key_feature)
    assert (err.law, err.path_index, err.slot) == (law, 0, 1)


@pytest.mark.parametrize("chaos", [None, "skip-minimization"])
def test_trace_checker_matches_engine_telescoping(sq_spec, sq_solution, chaos):
    # skip-minimization never serves, so the queue climbs past the cap C0*V
    # and nJ falls before the horizon; the laws hold for any decision rule
    T, N = 600, 12
    consts = constants_for_horizon(sq_spec, sq_solution.xi_star / 2.0, T, 0.05)
    stats = simulate_paths(sq_spec, derive_seeds(9, 0, N), T, sq_solution.z_opt, consts,
                           chaos=chaos)
    cap = consts.C0 * sq_spec.V
    nJs = []
    for i in range(N):
        tr = run_path(sq_spec, derive_seed(9, i), T, chaos=chaos)
        rep = check_trace_laws(tr, sq_solution.z_opt, consts)
        assert rep.violated == ()
        assert rep.tele_gap == stats.tele_gap[i]
        assert rep.tele_avg == stats.tele_avg[i]
        assert 2.5 * sq_spec.B * sq_spec.B * (rep.nJ - 1) == stats.tele_bound[i]
        nJs.append(rep.nJ)
        assert np.any(tr.q[:, 0] > cap) == (chaos is not None)
    assert (min(nJs) < T + 1) == (chaos is not None)


@pytest.mark.parametrize("c1", [None, 3.0])
@pytest.mark.parametrize("name", ["server", "single"])
def test_trace_checker_matches_engine_finals(name, c1):
    # X, Y and G at the horizon, from a stored trace, equal the engine's bit
    # for bit; at c1 = 3 every path stops, so Y differs from X
    spec = ENGINE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    T, N = 400, 16
    xi = sol.xi_star / 2.0
    consts = (constants_for_horizon(spec, xi, T, 0.05) if c1 is None
              else compute_constants(spec, xi, c1))
    stats = simulate_paths(spec, derive_seeds(17, 0, N), T, sol.z_opt, consts)
    assert np.all(stats.stopped) == (c1 is not None)
    for i in range(N):
        rep = check_trace_laws(run_path(spec, derive_seed(17, i), T), sol.z_opt, consts)
        assert rep.violated == ()
        assert rep.x_final == stats.x_final[i]
        assert rep.y_final == stats.y_final[i]
        if spec.L == 1:
            assert rep.g_final == stats.g_final[i]
        else:
            assert rep.g_final is None and stats.g_final is None
    assert np.any(stats.x_final != stats.y_final) == (c1 is not None)


@given(st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.floats(min_value=0.5, max_value=30.0))
@settings(max_examples=25, deadline=None)
def test_stopped_process_differs_only_after_a_stop(sv_spec, sv_solution, seed, c1):
    # the stopping-time divergence law is an identity of how Y is built
    consts = compute_constants(sv_spec, sv_solution.xi_star / 2.0, c1)
    stats = simulate_paths(sv_spec, derive_seeds(seed, 0, 16), 200, sv_solution.z_opt, consts)
    assert np.all((stats.x_final == stats.y_final) | stats.stopped)
    assert np.all(stats.stopped == (stats.max_qnorm > c1))


def test_ragged_action_sets_run_clean():
    # events with different action counts exercise the padded tables
    spec = ragged_spec()
    cfg = BatchConfig(spec=spec, num_paths=50, T=500, master_seed=4,
                      checks=("KeyFeature", "QueueTail", "GTail", "Telescoping"))
    summary = run_batch(cfg)
    assert summary.invariant_violations == 0
    # scalar engine agrees on a sample path
    consts = constants_for_horizon(spec, summary.xi, 500, 0.05)
    stats = simulate_paths(spec, derive_seeds(4, 0, 8), 500, summary.z_opt, consts)
    for i in range(8):
        tr = run_path(spec, derive_seed(4, i), 500)
        s = 0.0
        for v in tr.z0.tolist():
            s += v
        assert stats.avg_obj[i] == s / 500


def test_batch_summary_schema(sq_spec):
    cfg = BatchConfig(spec=sq_spec, num_paths=40, T=200, master_seed=2,
                      checks=("KeyFeature", "QueueTail", "XTail", "GTail",
                              "Telescoping"))
    payload = run_batch(cfg).to_json_dict()
    validate(payload, load_schema("batch_summary"))
    blob = json.dumps(payload)
    assert json.loads(blob) == payload


def test_theorem_checks_record_horizons(sq_spec):
    cfg = BatchConfig(spec=sq_spec, num_paths=90, T=100, master_seed=6,
                      epsilon=0.1, delta=0.05, checks=("Theorem2", "Theorem3"))
    summary = run_batch(cfg)
    assert summary.checks["Theorem2"].details["horizon"] == 5020
    assert summary.checks["Theorem3"].details["horizon"] == 898
    assert summary.checks["Theorem2"].details["V"] == 10.0
    assert set(summary.fitted_M) == {"Theorem2", "Theorem3"}
