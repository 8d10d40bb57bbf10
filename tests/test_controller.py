import numpy as np
import pytest
from helpers import (action_score, drift, exact_conditional_dpp_expectation,
                     exact_conditional_truncated_expectation, non_lattice_spec, select_action)
from hypothesis import given
from hypothesis import strategies as st

from dpp_lab import controller
from dpp_lab.analysis import constants_for_horizon
from dpp_lab.controller import pick_actions, run_path
from dpp_lab.core import ActionVector, EventOutcome, ProblemSpec, verify_trace_dynamics
from dpp_lab.events import sample_block


def _event_by_bits(spec, bits):
    eid = 4 * (1 - bits[0]) + 2 * (1 - bits[1]) + (1 - bits[2])
    return spec.events[eid]


def test_select_action_matches_option_formulas(sv_spec):
    # option scores differ from V*z0 + q.z only by the constant q.a, so the
    # pairwise differences and the argmin must match the service-only form
    q = [3.0, 4.0, 0.0]
    V = sv_spec.V
    option_vals = [V - q[0] - q[1], V - q[0] - q[2], 2 * V - q[1] - q[2]]
    assert option_vals == [3.0, 7.0, 16.0]
    for e in sv_spec.events:
        k, score = select_action(q, e, V)
        assert k == 0
        scores = [action_score(q, a, V) for a in e.actions]
        for i in range(3):
            for j in range(3):
                assert scores[i] - scores[j] == pytest.approx(
                    option_vals[i] - option_vals[j], abs=1e-9)


def test_select_action_tie_goes_to_lowest_index(sv_spec):
    for e in sv_spec.events:
        k, _ = select_action([0.0, 0.0, 0.0], e, 10.0)
        assert k == 0  # scores (10, 10, 20): exact tie between first two


def test_select_action_single_action_event():
    ev = EventOutcome(1.0, (ActionVector(0.3, (0.1,)),))
    assert select_action([7.0], ev, 2.0)[0] == 0
    assert select_action([0.0], ev, 100.0)[0] == 0


def test_step_benchmark_zero_queue(sv_spec):
    # one slot of the rule from empty queues
    ev = _event_by_bits(sv_spec, (1, 1, 0))
    k, _ = select_action([0.0, 0.0, 0.0], ev, sv_spec.V)
    assert k == 0                              # tie broken low
    assert ev.actions[k].z == (0.0, 0.0, 0.0)  # a - (1,1,0) = 0
    q_after = np.maximum(np.add([0.0, 0.0, 0.0], ev.actions[k].z), 0.0)
    assert q_after.tolist() == [0.0, 0.0, 0.0]
    assert drift([0.0, 0.0, 0.0], q_after) == 0.0


def test_step_single_action_drain():
    a = ActionVector(0.0, (-1.0,))
    spec = ProblemSpec(events=(EventOutcome(1.0, (a,)),),
                       L=1, z_max=1.0, B=1.0, V=1.0)
    tr = run_path(spec, seed=0, T=1)
    assert tr.q[1].tolist() == [0.0]


def _spec(request, name):
    return non_lattice_spec() if name == "non_lattice" else request.getfixturevalue(name)


@pytest.mark.parametrize("chaos", [None, "worst-action", "skip-minimization"])
@pytest.mark.parametrize("block", [controller.RUN_PATH_BLOCK, 7])
@pytest.mark.parametrize("name", ["sv_spec", "sq_spec", "non_lattice"])
def test_run_path_matches_step_loop(request, monkeypatch, name, block, chaos):
    # every slot of the trace against the scalar references: the decision,
    # the queue update and the drift; 7-slot blocks hand over to the
    # slot-by-slot loop early, the default ones late or never
    spec = _spec(request, name)
    monkeypatch.setattr(controller, "RUN_PATH_BLOCK", block)
    T = 400
    tr = run_path(spec, seed=17, T=T, chaos=chaos)
    ids = sample_block(spec, 17, T)
    assert np.array_equal(tr.event_ids, ids)
    for i in range(T):
        event = spec.events[int(ids[i])]
        q = tr.q[i].tolist()
        if chaos is None:
            k, _ = select_action(q, event, spec.V)
        else:
            scores = [[action_score(q, a, spec.V) for a in event.actions]]
            k = int(pick_actions(np.array(scores), chaos)[0])
        a = event.actions[k]
        assert int(tr.action_indices[i]) == k
        assert tr.z0[i] == a.z0 and tuple(tr.z[i].tolist()) == a.z
        q_after = np.maximum(np.add(q, a.z), 0.0)
        assert tr.q[i + 1].tolist() == q_after.tolist()
        assert tr.drift[i] == drift(q, q_after)


@pytest.mark.parametrize("name", ["sv_spec", "sq_spec"])
def test_run_path_tables_then_hands_over(request, monkeypatch, name):
    # 21 slots of the last event (no arrival) keep the queues empty, so the
    # first three 7-slot blocks replay one decision; the sampled events
    # after them bring new states, so a block of mostly fresh decisions
    # hands the rest of the path to the slot-by-slot loop
    spec = _spec(request, name)
    T, B = 400, 7
    events = np.concatenate([np.full(21, len(spec.events) - 1), sample_block(spec, 5, T - 21)])
    monkeypatch.setattr(controller, "sample_block", lambda spec, seed, T: events.copy())
    full = run_path(spec, seed=17, T=T)  # one table for the whole path
    calls = []
    rule = controller._step_rule

    def counted_rule(spec, chaos):
        step = rule(spec, chaos)

        def counted(e, q):
            calls.append(e)
            return step(e, q)
        return counted
    monkeypatch.setattr(controller, "_step_rule", counted_rule)
    monkeypatch.setattr(controller, "RUN_PATH_BLOCK", B)
    tr = run_path(spec, seed=17, T=T)
    for f in ("event_ids", "action_indices", "z0", "z", "q", "drift"):
        assert np.array_equal(getattr(tr, f), getattr(full, f)), f
    # the decisions the rule asks for: each fresh (event, state) pair of a
    # tabled block, then every slot after the first mostly-fresh block
    seen, fresh, t = set(), 0, 0
    while t < T:
        new = 0
        for i in range(t, min(t + B, T)):
            pair = (int(tr.event_ids[i]), tuple(tr.q[i].tolist()))
            new += pair not in seen
            seen.add(pair)
        fresh, t = fresh + new, min(t + B, T)
        if 2 * new > B:
            break
    assert 21 < t < T and fresh < t
    assert len(calls) == fresh + T - t


scores_st = st.lists(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.5]),
                              min_size=3, max_size=3), min_size=1, max_size=6)


@given(scores_st, st.integers(min_value=0, max_value=2))
def test_pick_actions_rules(rows, pad):
    # per-slot minimality is an identity of the chooser: the chosen score is
    # the row minimum, at its lowest index; +inf padding never wins
    scores = np.array(rows)
    scores[:, 3 - pad:] = np.inf
    for row, k in zip(scores.tolist(), pick_actions(scores).tolist()):
        assert row[k] == min(row) and row.index(min(row)) == k
    assert pick_actions(scores, "skip-minimization").tolist() == [0] * len(rows)
    for row, k in zip(scores.tolist(), pick_actions(scores, "worst-action").tolist()):
        finite = [v for v in row if v != np.inf]
        assert row[k] == max(finite) and row.index(max(finite)) == k


@given(scores_st, st.integers(min_value=0, max_value=2))
def test_pick_actions_on_the_score_tensor(rows, pad):
    # the lockstep engine's (event, action, path) layout gives the row-wise
    # picks of each event
    scores = np.array(rows)
    scores[:, 3 - pad:] = np.inf
    events = np.stack([scores, scores[::-1]])
    tensor = np.ascontiguousarray(np.moveaxis(events, 2, 1))
    for chaos in (None, "skip-minimization", "worst-action"):
        want = [pick_actions(ev, chaos).tolist() for ev in events]
        assert pick_actions(tensor, chaos).tolist() == want


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=3, max_size=3))
def test_pick_actions_matches_select_action(sv_spec, q):
    for e in sv_spec.events:
        scores = np.array([[action_score(q, a, sv_spec.V) for a in e.actions]])
        assert int(pick_actions(scores)[0]) == select_action(q, e, sv_spec.V)[0]


def test_run_path_rejects_empty_horizon(sv_spec):
    with pytest.raises(ValueError):
        run_path(sv_spec, seed=1, T=0)


def test_run_path_first_slot_starts_empty(sv_spec):
    tr = run_path(sv_spec, seed=8, T=1)
    assert np.all(tr.q[0] == 0.0)
    assert tr.T == 1


def test_queue_sum_grows_with_v():
    from dpp_lab.events import build_server_scheduling_spec
    lo = build_server_scheduling_spec(V=10.0)
    hi = build_server_scheduling_spec(V=100.0)
    t_lo = run_path(lo, seed=99, T=20_000)
    t_hi = run_path(hi, seed=99, T=20_000)
    assert np.sum(t_hi.q_before) > np.sum(t_lo.q_before)


def _slots_not_minimal(spec, trace):
    """Slots whose recorded action scores strictly above the minimizer."""
    bad = []
    for i in range(trace.T):
        event = spec.events[int(trace.event_ids[i])]
        q = trace.q_before[i].tolist()
        chosen = action_score(q, event.actions[int(trace.action_indices[i])], spec.V)
        if select_action(q, event, spec.V)[1] < chosen:
            bad.append(i + 1)
    return bad


def test_minimality_clean_and_chaos_flagged(sv_spec):
    good = run_path(sv_spec, seed=4, T=300)
    assert _slots_not_minimal(sv_spec, good) == []
    bad = run_path(sv_spec, seed=4, T=300, chaos="worst-action")
    assert _slots_not_minimal(sv_spec, bad)
    # chaos still produces dynamics-consistent traces
    assert verify_trace_dynamics(bad, sv_spec.B) == []


def test_chaos_mode_validation(sv_spec):
    with pytest.raises(ValueError):
        run_path(sv_spec, seed=4, T=10, chaos="meltdown")


def test_exact_conditional_expectation_on_visited_states(sv_spec, sv_solution):
    tr = run_path(sv_spec, seed=21, T=500)
    for q in tr.q_before.tolist():
        val = exact_conditional_dpp_expectation(sv_spec, q, sv_solution.z_opt)
        assert val <= 1e-9


def test_truncated_conditional_expectation_on_visited_states(sq_spec, sq_solution):
    consts = constants_for_horizon(sq_spec, sq_solution.xi_star / 2.0, 500, 0.05)
    assert sq_spec.V >= sq_spec.B / consts.C0
    cap = consts.C0 * sq_spec.V
    tr = run_path(sq_spec, seed=22, T=500)
    for q1 in tr.q_before[:, 0].tolist():
        val = exact_conditional_truncated_expectation(sq_spec, q1,
                                                      sq_solution.z_opt, cap)
        assert val <= 1e-9
