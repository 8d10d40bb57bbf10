import math
import warnings

import numpy as np
import pytest
from helpers import build_trace_from_z
from hypothesis import given
from hypothesis import strategies as st

from dpp_lab import (LAWS, ActionVector, EventOutcome, ProblemSpec, drift,
                     queue_update, read_trace_csv, run_path, time_average,
                     write_trace_csv)
from dpp_lab.core import (DYNAMICS_LAWS, law_problems, norm_sq,
                          trace_csv_header, trace_law_values,
                          verify_trace_dynamics)


def test_queue_update_clamps_at_zero():
    assert queue_update([2.0], [-3.0]).tolist() == [0.0]


def test_queue_update_componentwise():
    assert queue_update([1.5, 0.0], [0.7, -0.2]).tolist() == [2.2, 0.0]


def test_queue_update_identity():
    assert queue_update([5.0], [0.0]).tolist() == [5.0]


def test_queue_update_dimension_mismatch():
    with pytest.raises(ValueError):
        queue_update([1.0, 2.0], [0.5])


def test_drift_values():
    assert drift([0.0], [0.0]) == 0.0
    assert drift([3.0], [4.0]) == 3.5
    assert drift([1.0, 2.0], [2.0, 2.0]) == 1.5


def test_drift_dimension_mismatch():
    with pytest.raises(ValueError):
        drift([1.0], [1.0, 2.0])


finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0), finite_floats),
                min_size=1, max_size=6))
def test_queue_update_matches_componentwise_max(pairs):
    q = [p[0] for p in pairs]
    z = [p[1] for p in pairs]
    out = queue_update(q, z)
    assert all(v >= 0.0 for v in out)
    assert out.tolist() == [max(a + b, 0.0) for a, b in zip(q, z)]
    # the exact queue update is an IEEE identity: max(u, 0) == (u + |u|)/2
    u = np.asarray(q) + np.asarray(z)
    assert np.array_equal(np.maximum(u, 0.0), (u + np.abs(u)) / 2.0)


@given(st.lists(finite_floats, min_size=1, max_size=5),
       st.lists(finite_floats, min_size=1, max_size=5))
def test_drift_antisymmetry(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert drift(a, b) == pytest.approx(-drift(b, a), abs=1e-9)


def test_law_table_names_and_order():
    assert [law.name for law in LAWS] == [
        "queue norm step bound", "quadratic drift bound",
        "stopped process difference bound", "truncated process difference bound",
        "telescoping partial-sum law", "truncated sum lower bound"]
    assert [law.single for law in LAWS] == [False, False, False, True, True, True]
    assert [law.final for law in LAWS] == [False, False, False, False, True, True]
    assert DYNAMICS_LAWS == LAWS[:2]


def test_drift_upper_bound_examples():
    drift_law = (LAWS[1],)
    tr = build_trace_from_z("", [0.0], [[1.0]])
    assert tr.drift[0] == 0.5
    v = trace_law_values(tr)
    v.B = 1.0
    assert law_problems(drift_law, v, tr.T) == {}

    tr = build_trace_from_z("", [0.0, 0.0, 0.0, 0.0],
                            [[3.0], [-1.0], [0.0], [0.0]])
    assert tr.drift[1] == -2.5  # q_before=(3), z=(-1): drift=-2.5 <= 4.5-3
    v = trace_law_values(tr)
    v.B = 3.0
    assert law_problems(drift_law, v, tr.T) == {}
    v.B = 0.5  # an understated B: 4.5 > 0.125 + 0 and -2.5 > 0.125 - 3
    assert law_problems(drift_law, v, tr.T) == {
        "quadratic drift bound": ["slot 1: 4.5 exceeds 0.125",
                                  "slot 2: -2.5 exceeds -2.875"]}


def test_drift_upper_bound_holds_on_simulated_path(sv_spec):
    # the table's drift-law inputs against the scalar references, slot by slot
    tr = run_path(sv_spec, seed=5, T=2000)
    v = trace_law_values(tr)
    v.B = sv_spec.B
    lhs, rhs = LAWS[1].lhs(v), LAWS[1].rhs(v)
    for i in range(tr.T):
        qb, z = tr.q_before[i].tolist(), tr.z[i].tolist()
        qz = 0.0
        for a, b in zip(qb, z):
            qz += a * b
        assert lhs[i] == drift(qb, tr.q_after[i].tolist())
        assert rhs[i] == sv_spec.B * sv_spec.B / 2.0 + qz
        assert lhs[i] <= rhs[i] + 1e-9


def test_trace_dynamics_clean_on_real_path(sv_spec):
    tr = run_path(sv_spec, seed=9, T=5000)
    assert verify_trace_dynamics(tr, sv_spec.B) == []
    # chain consistency and queue nonnegativity
    assert np.array_equal(tr.q_before[1:], tr.q_after[:-1])
    assert np.all(tr.q >= 0.0)
    assert np.all(tr.q[0] == 0.0)


def test_trace_dynamics_flags_corruption(sv_spec):
    tr = run_path(sv_spec, seed=9, T=200)
    tr.q[50, 0] += 0.5
    assert verify_trace_dynamics(tr, sv_spec.B)
    tr2 = run_path(sv_spec, seed=9, T=200)
    tr2.drift[10] += 1.0
    assert verify_trace_dynamics(tr2, sv_spec.B)
    # an understated B trips the two table laws verify_trace_dynamics runs
    tr3 = run_path(sv_spec, seed=9, T=200)
    problems = verify_trace_dynamics(tr3, 0.5)
    assert any(p.startswith("queue norm step bound: ") for p in problems)
    assert any(p.startswith("quadratic drift bound: ") for p in problems)


@given(st.lists(st.tuples(st.floats(min_value=-0.7, max_value=0.7),
                          st.floats(min_value=-0.7, max_value=0.7)),
                min_size=1, max_size=50))
def test_dynamics_laws_hold_for_any_bounded_increments(rows):
    # step bound and drift bound are facts about the recursion, independent
    # of how the increments were chosen; ||z|| <= 0.7*sqrt(2) < 1 here
    tr = build_trace_from_z("", [0.0] * len(rows), [list(r) for r in rows])
    assert verify_trace_dynamics(tr, B=1.0) == []


def test_time_average_constant_objective():
    tr = build_trace_from_z("", [1.1] * 10, [[0.0]] * 10)
    assert time_average(tr, "objective") == pytest.approx(1.1, abs=1e-12)


def test_time_average_alternating_constraint():
    tr = build_trace_from_z("", [0.0] * 4, [[1.0], [-1.0], [1.0], [-1.0]])
    assert time_average(tr, "constraint", 1) == 0.0


def test_time_average_errors(sv_spec):
    tr = run_path(sv_spec, seed=1, T=10)
    with pytest.raises(ValueError):
        time_average(tr, "constraint", 0)
    with pytest.raises(ValueError):
        time_average(tr, "constraint", 4)
    with pytest.raises(ValueError):
        time_average(tr, "volume")
    empty = build_trace_from_z("", [], np.zeros((0, 1)))
    with pytest.raises(ValueError):
        time_average(empty, "objective")


def test_replay_is_bit_identical(sv_spec):
    a = run_path(sv_spec, seed=77, T=3000)
    b = run_path(sv_spec, seed=77, T=3000)
    assert np.array_equal(a.event_ids, b.event_ids)
    assert np.array_equal(a.action_indices, b.action_indices)
    assert np.array_equal(a.z0, b.z0)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.drift, b.drift)
    assert a.spec_digest == b.spec_digest == sv_spec.digest


def test_csv_round_trip(tmp_path, sv_spec):
    tr = run_path(sv_spec, seed=3, T=500)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, str(path))
    header = path.read_text().splitlines()[0]
    assert header == trace_csv_header(sv_spec.L)
    back = read_trace_csv(str(path), spec_digest=tr.spec_digest, seed=tr.seed)
    assert np.array_equal(back.event_ids, tr.event_ids)
    assert np.array_equal(back.action_indices, tr.action_indices)
    assert np.array_equal(back.z0, tr.z0)
    assert np.array_equal(back.z, tr.z)
    assert np.array_equal(back.q, tr.q)
    assert np.array_equal(back.drift, tr.drift)


def test_csv_round_trip_single_constraint(tmp_path, sq_spec):
    tr = run_path(sq_spec, seed=11, T=64)
    path = tmp_path / "t.csv"
    write_trace_csv(tr, str(path))
    back = read_trace_csv(str(path))
    assert np.array_equal(back.q, tr.q)
    assert np.array_equal(back.z, tr.z)


def test_read_trace_csv_rejects_a_trace_without_slots(tmp_path, sv_spec):
    path = tmp_path / "empty.csv"
    path.write_text(trace_csv_header(sv_spec.L) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fails before numpy warns
        with pytest.raises(ValueError, match="^trace has no slots$"):
            read_trace_csv(str(path))


def test_extreme_seeds_replay(sv_spec):
    for seed in (0, (1 << 64) - 1):
        a = run_path(sv_spec, seed=seed, T=200)
        b = run_path(sv_spec, seed=seed, T=200)
        assert np.array_equal(a.q, b.q)


def test_spec_validation_rejects_bad_instances():
    a = ActionVector(1.0, (0.5,))
    ev = EventOutcome(id=0, probability=1.0, actions=(a,))
    ProblemSpec(events=(ev,), L=1, z_max=1.0, B=1.0, V=1.0)
    with pytest.raises(ValueError):  # probabilities off
        bad = EventOutcome(id=0, probability=0.5, actions=(a,))
        ProblemSpec(events=(bad,), L=1, z_max=1.0, B=1.0, V=1.0)
    with pytest.raises(ValueError):  # z_max not a true bound
        ProblemSpec(events=(ev,), L=1, z_max=0.5, B=1.0, V=1.0)
    with pytest.raises(ValueError):  # B not a true bound
        ProblemSpec(events=(ev,), L=1, z_max=1.0, B=0.1, V=1.0)
    with pytest.raises(ValueError):  # dimension mismatch
        ProblemSpec(events=(ev,), L=2, z_max=1.0, B=1.0, V=1.0)
    with pytest.raises(ValueError):  # empty action set
        EventOutcome(id=0, probability=1.0, actions=())
    with pytest.raises(ValueError):  # nonpositive probability
        EventOutcome(id=0, probability=0.0, actions=(a,))


def test_digest_distinguishes_specs(sv_spec):
    other = sv_spec.with_v(11.0)
    assert other.digest != sv_spec.digest
    assert sv_spec.with_v(10.0).digest == sv_spec.digest


def test_digest_pins(sv_spec, sq_spec):
    # the digest hashes the literal "tie=lowest-index;", so stored digests
    # stay valid
    assert sv_spec.digest == "17a5d0d5ba23b750c3d4c92ec1cf4083bbf2b9d38f1458a2c3b5f552bd943537"
    assert sq_spec.digest == "179ff16602e4aec9a1692347c690fdcf840c7d49a579f0737b63426542be5a85"


def test_norm_helpers_fixed_order():
    # left-to-right accumulation, the contract the two engines share
    v = [1e16, 1.0, -1e16]
    acc = 0.0
    for x in v:
        acc += x * x
    assert norm_sq(v) == acc
