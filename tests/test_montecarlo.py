import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from helpers import (check_trace_laws, derive_seed, empirical_tail,
                     exact_conditional_dpp_expectation,
                     exact_conditional_truncated_expectation, non_lattice_spec,
                     ragged_spec, reference_dpp_expectation, reference_kf_expectations,
                     reference_truncated_expectation, tight_step_spec, unchecked_spec)

from dpp_lab import events, montecarlo
from dpp_lab.analysis import (calibrated_deviation_level, compute_constants,
                              constants_for_horizon, convergence_time_multi)
from dpp_lab.controller import ScoreTensor, run_path
from dpp_lab.core import LAW_TOL, ProblemSpec, trace_law_values
from dpp_lab.events import builtin_spec, derive_seeds
from dpp_lab.montecarlo import (BatchConfig, InvariantViolation, PathStats, run_batch,
                                simulate_paths, wilson_interval)
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


def _assert_rows_equal(whole, lo, part):
    """Every PathStats field of ``part`` is bit-equal to rows ``lo:`` of
    ``whole``'s."""
    for f in fields(PathStats):
        x, y = getattr(whole, f.name), getattr(part, f.name)
        assert (x is None and y is None) or x[lo:lo + len(y)].tobytes() == y.tobytes(), f.name


CUTS = (0, 1000, 7000, 8209)  # a split of the seeds into uneven pieces


@pytest.mark.parametrize("name", ["server", "single"])
def test_batch_is_invariant_to_splitting(name):
    # each piece of a split of the seeds, run as its own batch, gives the
    # whole batch's per-path bits
    spec = ENGINE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    T = 52
    consts = constants_for_horizon(spec, sol.xi_star / 2, T, 0.05)
    seeds = derive_seeds(1, 0, CUTS[-1])
    whole = simulate_paths(spec, seeds, T, sol.z_opt, consts)
    for lo, hi in zip(CUTS, CUTS[1:]):
        _assert_rows_equal(whole, lo, simulate_paths(spec, seeds[lo:hi], T, sol.z_opt, consts))


def test_violation_path_index_is_invariant_to_splitting(sv_spec, sv_solution):
    # a B understated by 0.1% trips on one rare path of the third piece of
    # CUTS: that piece names the same seed, slot and detail, with the path's
    # index counted within the piece, and the other pieces run clean
    T = 52
    consts = constants_for_horizon(sv_spec, sv_solution.xi_star / 2, T, 0.05)
    spec = unchecked_spec(sv_spec, B=sv_spec.B * 0.999)
    seeds = derive_seeds(1, 0, CUTS[-1])
    with pytest.raises(InvariantViolation) as err:
        simulate_paths(spec, seeds, T, sv_solution.z_opt, consts)
    e = err.value
    whole = (e.law, e.path_index, e.path_seed, e.slot, e.detail)
    assert whole[:4] == ("quadratic drift bound", 7121, derive_seed(1, 7121), 51)
    for lo, hi in zip(CUTS[:2], CUTS[1:3]):
        simulate_paths(spec, seeds[lo:hi], T, sv_solution.z_opt, consts)
    with pytest.raises(InvariantViolation) as err:
        simulate_paths(spec, seeds[CUTS[2]:], T, sv_solution.z_opt, consts)
    e = err.value
    assert (e.law, CUTS[2] + e.path_index, e.path_seed, e.slot, e.detail) == whole


@pytest.mark.parametrize("name", sorted(ENGINE_SPECS))
def test_merged_seed_sets_match_separate_calls(name):
    # a theorem check's calibration and validation seeds run as one batch;
    # each set's per-path results are bit-equal to its own call
    spec = ENGINE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    T = 120
    consts = constants_for_horizon(spec, sol.xi_star / 2, T, 0.05)
    sets = (derive_seeds(4, 1 << 32, 5), derive_seeds(4, 2 << 32, 11))
    both = simulate_paths(spec, np.concatenate(sets), T, sol.z_opt, consts)
    assert both.avg_obj.shape == (16,)
    for lo, seeds in zip((0, 5), sets):
        _assert_rows_equal(both, lo, simulate_paths(spec, seeds, T, sol.z_opt, consts))


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


def test_earliest_violation_is_invariant_to_batch_size(sv_spec, sv_solution):
    # slot first: with B understated by 1%, path 911 alone fails at slot 57
    # and path 2001 alone at slot 55; paths 0-999 as a batch name path 911,
    # and every batch that holds path 2001 names it, however many paths
    # follow it in the one lockstep run
    T = 60
    consts = constants_for_horizon(sv_spec, sv_solution.xi_star / 2, T, 0.05)
    spec = unchecked_spec(sv_spec, B=sv_spec.B * 0.99)
    seeds = derive_seeds(8, 0, 8192)
    drift = "quadratic drift bound"
    for i, slot in ((911, 57), (2001, 55)):
        assert _outcome(spec, seeds[i:i + 1], T, sv_solution.z_opt, consts)[:4] == (
            drift, 0, int(seeds[i]), slot)
    assert _outcome(spec, seeds[:1000], T, sv_solution.z_opt, consts)[:4] == (
        drift, 911, int(seeds[911]), 57)
    found = {_outcome(spec, seeds[:n], T, sv_solution.z_opt, consts)
             for n in (2002, 4096, 8192)}
    assert len(found) == 1
    assert next(iter(found))[:4] == (drift, 2001, derive_seed(8, 2001), 55)


def test_batch_reports_earliest_slot_then_law_then_path(sv_spec, sv_solution):
    # slot order is test_earliest_violation_is_invariant_to_batch_size's;
    # then law, then path: with B halved and z_max a hundredth, path 0 alone
    # fails the stopped process difference bound at slot 1, and paths 1 and 7
    # the earlier queue norm step bound there; the batch names path 1
    T = 60
    spec = unchecked_spec(sv_spec, B=sv_spec.B * 0.5, z_max=sv_spec.z_max / 100.0)
    consts = compute_constants(spec, sv_solution.xi_star / 2.0, c1=0.01)
    seeds = derive_seeds(5, 0, 16)
    step = "queue norm step bound"
    for i, law in ((0, "stopped process difference bound"), (1, step), (7, step)):
        assert _outcome(spec, seeds[i:i + 1], T, sv_solution.z_opt, consts)[:4] == (
            law, 0, int(seeds[i]), 1)
    assert _outcome(spec, seeds, T, sv_solution.z_opt, consts)[:4] == (
        step, 1, int(seeds[1]), 1)


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


class _ScoreLog:
    """Wraps ``montecarlo.ScoreTensor`` for one batch of ``n`` paths: the
    queue vectors its transition table scored, and whether and at which slot
    (that of the latest ``montecarlo.uniform_across`` call) it handed over
    (built the n-path tensor of the per-slot loop; a table batch holds fewer
    than n states, as it hands over past n/2 entries)."""

    def __init__(self, monkeypatch, n: int):
        self.rows, self.slot, self.hand_over_slot = [], None, None
        log = self

        def uniform_across(seeds, t, out):
            log.slot = t
            return events.uniform_across(seeds, t, out=out)

        class Tensor(ScoreTensor):
            def __init__(self, spec, N):
                super().__init__(spec, N)
                if N == n:
                    log.hand_over_slot = log.slot

            def choose(self, q, chaos):
                if self.scores.shape[2] != n:
                    log.rows += [row.tobytes() for row in np.column_stack(q)]
                super().choose(q, chaos)
        monkeypatch.setattr(montecarlo, "ScoreTensor", Tensor)
        monkeypatch.setattr(montecarlo, "uniform_across", uniform_across)

    @property
    def handed_over(self) -> bool:
        return self.hand_over_slot is not None


def _outcome(spec, seeds, T, z_opt, consts, **kwargs):
    """Every PathStats field's bytes, or the violation's replay fields."""
    try:
        stats = simulate_paths(spec, seeds, T, z_opt, consts, **kwargs)
    except InvariantViolation as e:
        return e.law, e.path_index, e.path_seed, e.slot, e.detail
    return {f.name: None if getattr(stats, f.name) is None else getattr(stats, f.name).tobytes()
            for f in fields(PathStats)}


TABLE_SPECS = {**ENGINE_SPECS, "non_lattice": non_lattice_spec,
               "tight": lambda: tight_step_spec(33.3, V=4e5)}
VARIANTS = {"bare": {}, "KeyFeature": {"key_feature": True},
            "skip-minimization": {"chaos": "skip-minimization"},
            "worst-action": {"chaos": "worst-action"}}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
def test_table_matches_per_slot_loop(name, variant, monkeypatch):
    # the batch's own hand-over rule, a state cap of half its table (a
    # mid-run hand-over) and a cap of 0 (the per-slot loop from slot 1) give
    # the same bits
    spec = TABLE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    N, T = 1024, 150
    consts = constants_for_horizon(spec, sol.xi, T, 0.05)
    seeds = derive_seeds(6, 0, N)
    logs, outcomes = [], []
    for cap in (montecarlo.TABLE_STATES, None, 0):
        if cap is None:  # half the states the unforced run scored, rounded up
            cap = half = (len(logs[0].rows) + 1) // 2
        monkeypatch.setattr(montecarlo, "TABLE_STATES", cap)
        logs.append(_ScoreLog(monkeypatch, N))
        outcomes.append(_outcome(spec, seeds, T, sol.z_opt, consts, **VARIANTS[variant]))
        assert len(logs[-1].rows) == len(set(logs[-1].rows)) <= cap
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    assert logs[1].handed_over == (logs[0].handed_over or len(logs[0].rows) > half)
    assert logs[1].rows and logs[2].handed_over and not logs[2].rows


def test_telescoping_visit_matches_per_slot_loop_where_it_switches(monkeypatch):
    # with C0 = 0.55 the cap is 5.5: the sixth of the 12 states scored is the
    # first with an entry above it, so a table of 3..5 states hands over
    # while every slot so far was a visit, one of 6 or 7 states switches to
    # the per-slot visit check and then hands over, and the unforced table
    # switches and runs to the end
    spec = ENGINE_SPECS["single"]()
    sol = solve_stationary_optimum(spec)
    N, T = 1024, 150
    consts = replace(constants_for_horizon(spec, sol.xi, T, 0.05), C0=0.55)
    seeds = derive_seeds(6, 0, N)
    outcomes = {}
    for cap in (montecarlo.TABLE_STATES, 3, 4, 5, 6, 7, 0):
        monkeypatch.setattr(montecarlo, "TABLE_STATES", cap)
        log = _ScoreLog(monkeypatch, N)
        outcomes[cap] = _outcome(spec, seeds, T, sol.z_opt, consts)
        assert log.handed_over == (cap < 12) and len(log.rows) == min(cap, 12)
    assert isinstance(outcomes[0], dict)  # a clean run
    assert len(np.unique(np.frombuffer(outcomes[0]["tele_bound"]))) > 1  # nJ varies
    for cap, outcome in outcomes.items():
        assert outcome == outcomes[0], cap


def test_non_lattice_table_matches_per_slot_loop_without_hand_over(monkeypatch):
    # four slots of a spec whose queue vectors do not repeat fit the table
    spec = non_lattice_spec()
    sol = solve_stationary_optimum(spec)
    N, T = 1024, 4
    consts = constants_for_horizon(spec, sol.xi, T, 0.05)
    seeds = derive_seeds(6, 0, N)
    log = _ScoreLog(monkeypatch, N)
    table = _outcome(spec, seeds, T, sol.z_opt, consts, key_feature=True)
    assert not log.handed_over and 64 < len(log.rows) == len(set(log.rows))
    monkeypatch.setattr(montecarlo, "TABLE_STATES", 0)
    assert _outcome(spec, seeds, T, sol.z_opt, consts, key_feature=True) == table


@pytest.mark.parametrize("name", ["server", "single"])
def test_builtin_batch_scores_each_state_once(name, monkeypatch):
    # a batch on a builtin runs over one table to the end, scoring each of a
    # few hundred queue vectors once, so it never pays per-slot scoring; on
    # the server builtin, an 8192-path batch too
    spec = ENGINE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    T = 500
    consts = constants_for_horizon(spec, sol.xi, T, 0.05)
    for n in (4096, 8192) if name == "server" else (4096,):
        log = _ScoreLog(monkeypatch, n)
        simulate_paths(spec, derive_seeds(2, 0, n), T, sol.z_opt, consts, key_feature=True)
        assert not log.handed_over
        assert len(log.rows) == len(set(log.rows)) <= 300


def test_non_lattice_batch_hands_over_within_the_cap(monkeypatch):
    spec = non_lattice_spec()
    sol = solve_stationary_optimum(spec)
    N, T = 4096, 200
    log = _ScoreLog(monkeypatch, N)
    simulate_paths(spec, derive_seeds(2, 0, N), T, sol.z_opt,
                   constants_for_horizon(spec, sol.xi, T, 0.05))
    assert log.handed_over
    assert len(log.rows) == len(set(log.rows)) <= min(montecarlo.TABLE_STATES, N // 2)


def test_stopped_flag_counts_only_before_the_stop(sv_spec, sv_solution, monkeypatch):
    # with c2 understated to 10.5 and c1 = 13.1, path 930 takes a (state,
    # event) entry with |dX| = 11 after its stop, at slot 52, and path 864
    # takes the same entry before its stop, at slot 56: only the latter fails
    T, N = 80, 1024
    consts = replace(constants_for_horizon(sv_spec, sv_solution.xi, T, 0.05),
                     c1=13.1, c2=10.5)
    seeds = derive_seeds(11, 0, N)
    taken = []
    for i, t in ((930, 52), (864, 56)):
        tr = run_path(sv_spec, int(seeds[i]), t)
        dx = sv_spec.V * (tr.z0[-1] - sv_solution.z_opt) + trace_law_values(tr).qz[-1]
        stopped = bool(np.max(np.sqrt(np.sum(tr.q_before ** 2, axis=1))) > consts.c1)
        taken.append((tr.q_before[-1].tolist(), int(tr.event_ids[-1]), float(dx), stopped))
    assert taken[0][:3] == taken[1][:3] and abs(taken[0][2]) > consts.c2 + LAW_TOL
    assert [stopped for *_, stopped in taken] == [True, False]
    for cap in (montecarlo.TABLE_STATES, 0):
        monkeypatch.setattr(montecarlo, "TABLE_STATES", cap)
        log = _ScoreLog(monkeypatch, N)
        assert _outcome(sv_spec, seeds, T, sv_solution.z_opt, consts) == (
            "stopped process difference bound", 864, int(seeds[864]), 56, "11.0 exceeds 10.5")
        assert log.hand_over_slot == (56 if cap else 1) and bool(log.rows) == bool(cap)


@pytest.mark.parametrize("chaos", [None, "skip-minimization", "worst-action"])
@pytest.mark.parametrize("name", sorted(ENGINE_SPECS))
def test_score_tensor_expectations_match_per_event_loop(name, chaos):
    # random queue states, integer-valued ones too (exact score ties), and
    # random truncation caps: the tensor gives the reference loop's
    # expectations bit for bit, and so does a 1-state tensor on each state,
    # so the event sums do not depend on the number of states
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


def test_quadratic_drift_bound_survives_queue_update_rounding():
    # an honest batch: the law is tight (||z|| = B) and the data are not integers;
    # fl(q + z) rounds by up to half an ulp of q, so on path 10 (seed
    # 9337564633507329004) at slot 177 the drift exceeds B^2/2 + q*z by about
    # 1.3e-9, past LAW_TOL alone but within the law's rounding slack
    cfg = BatchConfig(spec=tight_step_spec(33.3, V=4e5), num_paths=11, T=200,
                      master_seed=1, checks=("QueueTail",))
    run_batch(cfg)


def _engine_violation(spec, consts, z_opt, *, key_feature=False):
    """The violation of a 64-path batch.  It and that of a 4096-path batch,
    whose table lasts to the violation, are the same with the table and
    with the per-slot loop from slot 1."""
    for n in (4096, 64):
        seeds = np.asarray([derive_seed(5, i) for i in range(n)], dtype=np.uint64)
        found = []
        for cap in (montecarlo.TABLE_STATES, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(montecarlo, "TABLE_STATES", cap)
                log = _ScoreLog(mp, n)
                with pytest.raises(InvariantViolation) as err:
                    simulate_paths(spec, seeds, 300, z_opt, consts, key_feature=key_feature)
            e = err.value
            found.append((e.law, e.path_index, e.path_seed, e.slot, e.detail))
            # the table batch scores states and hands over at the violation
            assert log.hand_over_slot == (e.slot if cap else 1) and bool(log.rows) == bool(cap) \
                or n == 64
        assert found[0] == found[1]
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
    # X and G at the horizon, from a stored trace, equal the engine's bit for
    # bit; at c1 = 3 every path stops, which changes neither
    spec = ENGINE_SPECS[name]()
    sol = solve_stationary_optimum(spec)
    T, N = 400, 16
    xi = sol.xi_star / 2.0
    consts = (constants_for_horizon(spec, xi, T, 0.05) if c1 is None
              else compute_constants(spec, xi, c1))
    stats = simulate_paths(spec, derive_seeds(17, 0, N), T, sol.z_opt, consts)
    assert np.all(stats.max_qnorm > consts.c1) == (c1 is not None)
    for i in range(N):
        rep = check_trace_laws(run_path(spec, derive_seed(17, i), T), sol.z_opt, consts)
        assert rep.violated == ()
        assert rep.x_final == stats.x_final[i]
        if spec.L == 1:
            assert rep.g_final == stats.g_final[i]
        else:
            assert rep.g_final is None and stats.g_final is None


def test_ragged_action_sets_run_clean():
    # events with different action counts exercise the padded tables
    spec = ragged_spec()
    cfg = BatchConfig(spec=spec, num_paths=50, T=500, master_seed=4,
                      checks=("KeyFeature", "QueueTail", "GTail", "Telescoping"))
    summary = run_batch(cfg)
    assert summary.to_json_dict()["invariant_violations"] == 0
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
