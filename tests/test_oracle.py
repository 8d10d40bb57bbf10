import math
import tracemalloc

import numpy as np
import pytest
from helpers import (exact_conditional_dpp_expectation,
                     exact_conditional_truncated_expectation, option_marginals,
                     random_small_instance, reference_grid_chunks,
                     reference_grid_max_slackness,
                     reference_grid_stationary_optimum, reference_simplex_grid,
                     u64_at)

from dpp_lab import oracle
from dpp_lab.core import ActionVector, EventOutcome, ProblemSpec
from dpp_lab.events import build_server_scheduling_spec
from dpp_lab.oracle import (SlacknessError, _iter_grid_chunks, _lp_matrices,
                            grid_max_slackness, grid_points_budget,
                            grid_stationary_optimum, simplex_grid, simplex_grid_size,
                            solve_max_slackness, solve_stationary_optimum)
from dpp_lab.schema import SchemaError, load_schema, validate
from dpp_lab.simplex import solve_lp


def test_benchmark_optimum(sv_spec, sv_solution):
    assert sv_solution.z_opt == pytest.approx(1.1, abs=1e-9)
    marginals = option_marginals(sv_solution, sv_spec)
    assert marginals == pytest.approx([0.6, 0.3, 0.1], abs=1e-9)


def test_benchmark_policy_is_proper(sv_spec, sv_solution):
    for e, row in zip(sv_spec.events, sv_solution.policy):
        assert len(row) == len(e.actions)
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= -1e-12 for p in row)
    # constraints hold at the returned policy
    for l in range(sv_spec.L):
        ez = sum(e.probability * p * a.z[l]
                 for e, row in zip(sv_spec.events, sv_solution.policy)
                 for p, a in zip(row, e.actions))
        assert ez <= 1e-9


def test_event_independent_mixture_is_optimal(sv_spec, sv_solution):
    # the (0.6, 0.3, 0.1) mixture is feasible and attains the optimum
    mix = (0.6, 0.3, 0.1)
    cost = sum(e.probability * p * a.z0
               for e in sv_spec.events for p, a in zip(mix, e.actions))
    assert cost == pytest.approx(sv_solution.z_opt, abs=1e-12)
    for l in range(3):
        ez = sum(e.probability * p * a.z[l]
                 for e in sv_spec.events for p, a in zip(mix, e.actions))
        assert ez <= 1e-12


def test_single_feasible_policy_sets_optimum():
    a = ActionVector(0.7, (-1.0,))
    spec = ProblemSpec(events=(EventOutcome(1.0, (a,)),),
                       L=1, z_max=1.0, B=1.0, V=1.0)
    sol = solve_stationary_optimum(spec)
    assert sol.z_opt == pytest.approx(0.7, abs=1e-12)
    assert solve_max_slackness(spec) == pytest.approx(1.0, abs=1e-9)


def test_benchmark_max_slackness(sv_spec, sv_solution):
    xi = solve_max_slackness(sv_spec)
    assert xi == pytest.approx(2.0 / 15.0, abs=1e-9)
    assert sv_solution.xi_star == pytest.approx(2.0 / 15.0, abs=1e-9)
    assert xi <= sv_spec.B


def test_slackness_margin_is_half_the_maximal_slackness(sv_solution):
    assert sv_solution.xi == sv_solution.xi_star / 2.0
    # feasible, but only with zero slack: the bound constants are undefined
    spec = ProblemSpec(events=(EventOutcome(1.0, (ActionVector(0.5, (0.0,)),)),),
                       L=1, z_max=1.0, B=1.0, V=1.0)
    sol = solve_stationary_optimum(spec)
    assert sol.z_opt == 0.5 and sol.xi_star == 0.0
    # one positivity rule, with one message, for the margin and the LP
    with pytest.raises(SlacknessError, match="^maximal slackness 0.0 is not positive$"):
        sol.xi
    with pytest.raises(SlacknessError, match="^maximal slackness 0.0 is not positive$"):
        solve_max_slackness(spec)


def test_overloaded_system_has_no_slackness():
    spec = build_server_scheduling_spec(arrival_means=(0.9, 0.9, 0.9), V=1.0)
    with pytest.raises(SlacknessError):
        solve_max_slackness(spec)
    with pytest.raises(SlacknessError, match="^instance is infeasible; no stationary "
                                             "policy meets the constraints$"):
        solve_stationary_optimum(spec)


def test_slackness_margin_is_feasible(sv_spec, sv_solution):
    # tightening every constraint to -xi* must stay feasible
    n, cost, A_ub, A_eq = _lp_matrices(sv_spec)
    solve_lp(cost, A_ub=A_ub, b_ub=np.full(sv_spec.L, -sv_solution.xi_star + 1e-12),
             A_eq=A_eq, b_eq=np.ones(len(sv_spec.events)))  # raises if infeasible


def test_exact_conditional_expectation_examples(sv_spec, sv_solution):
    val = exact_conditional_dpp_expectation(sv_spec, [3.0, 4.0, 0.0],
                                            sv_solution.z_opt)
    assert val <= 0.0
    # zero-cost do-nothing spec: value never positive at q = 0
    a0 = ActionVector(0.5, (0.0, 0.0))
    a1 = ActionVector(0.9, (-0.5, -0.5))
    spec = ProblemSpec(events=(EventOutcome(1.0, (a0, a1)),),
                       L=2, z_max=1.0, B=1.0, V=3.0)
    sol = solve_stationary_optimum(spec)
    assert exact_conditional_dpp_expectation(spec, [0.0, 0.0], sol.z_opt) <= 1e-12


def test_exact_conditional_expectation_random_sweep(sv_spec, sv_solution):
    rng = np.random.default_rng(u64_at(1, 1) % (1 << 32))
    for _ in range(200):
        q = rng.uniform(0.0, 50.0, size=3)
        val = exact_conditional_dpp_expectation(sv_spec, q, sv_solution.z_opt)
        assert val <= 1e-9


def test_exact_conditional_expectation_input_validation(sv_spec, sq_spec):
    with pytest.raises(ValueError):
        exact_conditional_dpp_expectation(sv_spec, [1.0], 1.1)
    with pytest.raises(ValueError):
        exact_conditional_dpp_expectation(sv_spec, [-1.0, 0.0, 0.0], 1.1)
    # non-finite queues, z_opt and cap fail closed instead of returning nan
    # or, for a nan cap, silently dropping the truncation
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            exact_conditional_dpp_expectation(sv_spec, [1.0, bad, 0.0], 1.1)
        with pytest.raises(ValueError):
            exact_conditional_dpp_expectation(sv_spec, [1.0, 0.0, 0.0], bad)
        with pytest.raises(ValueError):
            exact_conditional_truncated_expectation(sq_spec, bad, 0.5, 3.0)
    with pytest.raises(ValueError):
        exact_conditional_truncated_expectation(sq_spec, 4.0, 0.5, math.nan)
    with pytest.raises(ValueError):
        exact_conditional_truncated_expectation(sq_spec, 4.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        exact_conditional_truncated_expectation(sv_spec, 4.0, 0.5, 3.0)


def test_simplex_grid_shape_and_content():
    g = simplex_grid(3, 10)
    assert g.shape == (simplex_grid_size(3, 10), 3)
    assert g.shape[0] == math.comb(12, 2)
    counts = np.rint(g * 10).astype(np.int64)
    assert np.array_equal(counts / 10.0, g)
    assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == 10)
    assert len({tuple(row) for row in counts.tolist()}) == g.shape[0]
    assert simplex_grid(1, 200).tolist() == [[1.0]]


@pytest.mark.parametrize("n_actions,resolution",
                         [(n, r) for n in range(1, 6) for r in (1, 2, 3, 10, 50)]
                         + [(n, 200) for n in range(1, 5)])
def test_simplex_grid_matches_reference(n_actions, resolution):
    g = simplex_grid(n_actions, resolution)
    ref = reference_simplex_grid(n_actions, resolution)
    assert g.dtype == ref.dtype and g.shape == ref.shape
    assert g.tobytes() == ref.tobytes()


def test_simplex_grid_memory_stays_near_its_output():
    # the last split writes into the output and divides in place, so the
    # peak is the output plus about one column of temporaries
    tracemalloc.start()
    try:
        g = simplex_grid(4, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * g.nbytes, (peak, g.nbytes)


def test_grid_rejects_invalid_arguments(sq_spec):
    # simplex_grid checks before numpy sees a negative count
    for n_actions, resolution, name in ((3, 0, "resolution"), (3, -1, "resolution"),
                                        (0, 5, "n_actions"), (-2, 5, "n_actions")):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            simplex_grid(n_actions, resolution)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            simplex_grid_size(n_actions, resolution)
    with pytest.raises(ValueError, match="resolution"):
        grid_stationary_optimum(sq_spec, resolution=0)
    with pytest.raises(ValueError, match="resolution"):
        grid_max_slackness(sq_spec, resolution=0)


def _sorted_rows(a: np.ndarray) -> bytes:
    return a[np.lexsort(a.T[::-1])].tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 100, 1 << 20])
def test_grid_chunks_enumerate_reference_values(chunk):
    # every chunking path (prefix only, split event, later events added in
    # place) yields exactly the reference's joint values, bit for bit
    spec = random_small_instance(np.random.default_rng(31), L=2, shape=(2, 2, 2))
    ref = np.concatenate(list(reference_grid_chunks(spec, 20)))
    chunks = list(_iter_grid_chunks(spec, 20, chunk=chunk))
    assert all(c.shape[1] <= chunk for c in chunks)
    got = np.concatenate(chunks, axis=1).T
    assert got.shape == ref.shape
    assert _sorted_rows(got) == _sorted_rows(ref)


def test_grid_oracle_matches_reference_on_criterion_8_instances():
    rng = np.random.default_rng(20240611)  # the criterion-8 instances
    for _ in range(50):
        spec = random_small_instance(rng)
        assert (repr(grid_stationary_optimum(spec, resolution=50))
                == repr(reference_grid_stationary_optimum(spec, 50)))
        assert (repr(grid_max_slackness(spec, resolution=50))
                == repr(reference_grid_max_slackness(spec, 50)))


@pytest.mark.parametrize("shape", [(3, 2, 1), (1,)])
def test_grid_oracle_single_action_events(shape):
    spec = random_small_instance(np.random.default_rng(7), L=2, shape=shape)
    assert (repr(grid_stationary_optimum(spec, resolution=200))
            == repr(reference_grid_stationary_optimum(spec, 200)))
    assert (repr(grid_max_slackness(spec, resolution=200))
            == repr(reference_grid_max_slackness(spec, 200)))


def test_grid_chunks_memory_stays_within_chunk_bound():
    # (3, 2, 1): the joint grid is 4.08M points, but memory must stay at a
    # chunk plus the prefix table and the per-event arrays, also when the
    # last event has a single action
    spec = random_small_instance(np.random.default_rng(7), L=2, shape=(3, 2, 1))
    chunk = 1 << 16
    row_bytes = (spec.L + 1) * 8
    event_bytes = sum(simplex_grid_size(len(e.actions), 200)
                      * max(len(e.actions), spec.L + 1) * 8 for e in spec.events)
    # one chunk and the prefix table; per event, its simplex grid and the
    # weighted contributions being built from it
    bound = 2 * chunk * row_bytes + 4 * event_bytes
    joint_bytes = grid_points_budget(spec, 200) * row_bytes
    assert bound < joint_bytes / 10
    rows = 0
    tracemalloc.start()
    try:
        for acc in _iter_grid_chunks(spec, 200, chunk=chunk):
            assert acc.shape[1] <= chunk
            rows += acc.shape[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == grid_points_budget(spec, 200)
    assert peak <= bound, (peak, bound)


def test_lp_matches_grid_on_small_instances():
    rng = np.random.default_rng(4242)
    checked = 0
    for _ in range(8):
        spec = random_small_instance(rng)
        sol = solve_stationary_optimum(spec)
        grid_opt = grid_stationary_optimum(spec, resolution=200)
        assert grid_opt is not None
        # grid points are a subset of the feasible set: one-sided dominance
        assert grid_opt >= sol.z_opt - 1e-9
        assert abs(grid_opt - sol.z_opt) <= 0.01
        xi_lp = solve_max_slackness(spec)
        xi_grid = grid_max_slackness(spec, resolution=200)
        assert xi_grid <= xi_lp + 1e-9
        assert abs(xi_grid - xi_lp) <= 0.01
        checked += 1
    assert checked == 8


def test_policy_lp_agrees_with_reference_solver():
    # the exact LP shape this package produces: per-event distribution rows
    # (equality, b=1) plus constraint rows (inequality, b=0, degenerate)
    from scipy.optimize import linprog
    rng = np.random.default_rng(555)
    solved = 0
    for _ in range(80):
        W = int(rng.integers(1, 7))
        L = int(rng.integers(1, 4))
        weights = rng.integers(1, 10, size=W).astype(float)
        probs = weights / weights.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        events = []
        feasible_bias = rng.random() < 0.8
        for eid in range(W):
            acts = []
            for k in range(int(rng.integers(1, 5))):
                z0 = float(rng.uniform(-1, 1))
                lo = -1.0 if not (k == 0 and feasible_bias) else -1.0
                hi = 0.0 if (k == 0 and feasible_bias) else 1.0
                z = rng.uniform(lo, hi, size=L) / math.sqrt(L)
                acts.append(ActionVector(z0, tuple(float(v) for v in z)))
            events.append(EventOutcome(float(probs[eid]), tuple(acts)))
        spec = ProblemSpec(tuple(events), L, 1.0, 1.0, 1.0)
        n, cost, A_ub, A_eq = _lp_matrices(spec)
        ref = linprog(cost, A_ub=A_ub, b_ub=np.zeros(L), A_eq=A_eq,
                      b_eq=np.ones(W), bounds=[(0, None)] * n, method="highs")
        if ref.status == 0:
            sol = solve_stationary_optimum(spec)
            assert sol.z_opt == pytest.approx(ref.fun, abs=1e-8)
            solved += 1
        elif ref.status == 2:
            with pytest.raises(SlacknessError, match="^instance is infeasible"):
                solve_stationary_optimum(spec)
    assert solved >= 40


def _count_walks(monkeypatch) -> list:
    walks = []

    def counted(*args, **kwargs):
        walks.append(args)
        return _iter_grid_chunks(*args, **kwargs)

    monkeypatch.setattr(oracle, "_iter_grid_chunks", counted)
    oracle._grid_extremes.cache_clear()
    return walks


def test_grid_oracle_pair_walks_the_grid_once(monkeypatch):
    walks = _count_walks(monkeypatch)
    spec = random_small_instance(np.random.default_rng(7), L=2, shape=(3, 2))
    opt, xi = grid_stationary_optimum(spec, 50), grid_max_slackness(spec, resolution=50)
    assert len(walks) == 1
    assert (repr(opt), repr(xi)) == (repr(reference_grid_stationary_optimum(spec, 50)),
                                     repr(reference_grid_max_slackness(spec, 50)))


def test_grid_budget_guard(monkeypatch):
    walks = _count_walks(monkeypatch)
    spec = build_server_scheduling_spec(V=1.0)  # 8 events x 3 actions
    for oracle_fn in (grid_stationary_optimum, grid_max_slackness):
        with pytest.raises(ValueError, match="joint grid too large"):
            oracle_fn(spec, resolution=200)
    assert walks == []


def test_solution_serialization_schema(sv_solution):
    payload = sv_solution.to_json_dict()
    validate(payload, load_schema("stationary_solution"))
    assert payload["lp_status"] == "Optimal"
    # an infeasible instance raises instead, so no document holds its states
    for key, value in (("z_opt", None), ("lp_status", "Infeasible")):
        with pytest.raises(SchemaError):
            validate({**payload, key: value}, load_schema("stationary_solution"))


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("policy"), "$: missing required key 'policy'"),
    (lambda d: d.update(solver="simplex"), "$: unexpected keys ['solver']"),
], ids=["missing", "unexpected"])
def test_schema_rejects_a_missing_or_unexpected_key(sv_solution, edit, message):
    payload = sv_solution.to_json_dict()
    edit(payload)
    with pytest.raises(SchemaError) as err:
        validate(payload, load_schema("stationary_solution"))
    assert str(err.value) == message


def test_single_queue_oracle(sq_spec, sq_solution):
    assert sq_solution.z_opt == pytest.approx(0.5, abs=1e-9)
    assert sq_solution.xi_star == pytest.approx(0.5, abs=1e-9)
