import math
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from helpers import (build_trace_from_z, drift, non_lattice_spec, norm_sq, ragged_spec,
                     reference_write_trace_csv, tight_step_spec, unchecked_spec)
from hypothesis import given, settings
from hypothesis import strategies as st

from dpp_lab import core
from dpp_lab.controller import run_path
from dpp_lab.core import (DYNAMICS_LAWS, LAWS, ActionVector, EventOutcome, PathTrace,
                          ProblemSpec, law_problems, laws_for, read_trace_csv,
                          trace_csv_header, trace_law_values, verify_trace_dynamics,
                          write_trace_csv)
from dpp_lab.events import build_server_scheduling_spec, build_single_queue_spec


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
    u = np.asarray(q) + np.asarray(z)
    out = np.maximum(u, 0.0)
    assert out.tolist() == [max(a + b, 0.0) for a, b in zip(q, z)]
    # the exact queue update is an IEEE identity: max(u, 0) == (u + |u|)/2,
    # which verify_trace_dynamics relies on
    assert np.array_equal(out, (u + np.abs(u)) / 2.0)


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
    tr = build_trace_from_z([0.0], [[1.0]])
    assert tr.drift[0] == 0.5
    v = trace_law_values(tr)
    v.B = 1.0
    assert law_problems(drift_law, v, tr.T) == {}

    tr = build_trace_from_z([0.0, 0.0, 0.0, 0.0],
                        [[3.0], [-1.0], [0.0], [0.0]])
    assert tr.drift[1] == -2.5  # q_before=(3), z=(-1): drift=-2.5 <= 4.5-3
    v = trace_law_values(tr)
    v.B = 3.0
    assert law_problems(drift_law, v, tr.T) == {}
    v.B = 0.5  # an understated B: 4.5 > 0.125 + 0 and -2.5 > 0.125 - 3
    assert law_problems(drift_law, v, tr.T) == {
        "quadratic drift bound": ["slot 1: 4.5 exceeds 0.125",
                                  "slot 2: -2.5 exceeds -2.875"]}


def test_trace_drift_law_survives_queue_update_rounding():
    # an honest trace: the law is tight (||z|| = B) and the data are not
    # integers; fl(q + z) rounds by up to half an ulp of q, so near q = 870
    # the drift exceeds B^2/2 + q*z by more than LAW_TOL (first at slot 19005,
    # by about 1.3e-9), but not by more than the law's rounding slack
    assert verify_trace_dynamics(run_path(tight_step_spec(0.3, V=1e4), 1, 20000), 0.3) == []


@pytest.mark.parametrize("step,V,T", [
    (0.3, 1e4, 200_000), (0.3, 1e6, 200_000), (33.3, 4e5, 200_000),
    (0.1, 1e7, 200_000), (1 / 3, 1e5, 200_000),
    (33.3, 1e9, 400_000),  # the queue norm reaches about 6.6e6
])
def test_long_tight_traces_report_no_violation(step, V, T):
    # both rounding-prone laws are tight here and the queues grow large: the
    # drift overshoots B^2/2 + q*z by up to about 0.44 machine epsilons of
    # ||q||^2 + ||q'||^2 + B^2 (2.7e-3 absolute at the largest queue), and the
    # norm step overshoots B by about 0.2 epsilons of ||q|| + ||q'||
    assert verify_trace_dynamics(run_path(tight_step_spec(step, V), 1, T), step) == []


def test_a_slightly_understated_B_still_trips_the_drift_law_on_a_tight_trace():
    # B lowered by a relative 1e-6 lowers the rhs by about 1.1e-3, while the
    # rounding slack stays below 1e-7 up to the largest queue (about 6e3), so
    # the drift law fails on exactly the slots that are tight in exact
    # arithmetic, at every queue size
    step = 33.3
    tr = run_path(tight_step_spec(step, V=4e5), 1, 200_000)
    v = trace_law_values(tr)
    v.B = step * (1.0 - 1e-6)
    _, _, bad = LAWS[1].violations(v)
    tight = np.abs(tr.z[:, 0]) == step
    assert np.array_equal(bad, tight)
    assert tr.q_before[bad, 0].max() > 6e3
    problems = verify_trace_dynamics(tr, v.B)
    assert "quadratic drift bound: slot 4: 554.4449999999999 exceeds 554.4438911105544" \
        in problems


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


def test_trace_dynamics_flags_a_negative_start_queue(sv_spec):
    # slot 1 adds nothing to queue 1, so its update from -1 is still exact,
    # and the stored drift is recomputed; only the nonnegativity check can
    # see the corrupted start
    tr = run_path(sv_spec, seed=3, T=50)
    assert tr.z[0, 0] <= 0.0
    tr.q[0, 0] = -1.0
    tr.drift[0] = drift(tr.q[0], tr.q[1])
    assert verify_trace_dynamics(tr, sv_spec.B) == ["negative queue component"]


def test_trace_dynamics_flags_nan_drift(sv_spec):
    # a NaN compares false either way, so every check must count it as a
    # violation rather than as a pass
    tr = run_path(sv_spec, seed=9, T=200)
    tr.drift[10] = np.nan
    problems = verify_trace_dynamics(tr, sv_spec.B)
    assert "slot 11: stored drift differs from recomputed value" in problems
    assert any(p.startswith("quadratic drift bound: slot 11: nan exceeds ")
               for p in problems)


def test_law_problems_counts_a_nan_end_of_path_value_as_a_violation():
    v = SimpleNamespace(tele_gap=math.nan, tele_avg=0.0, B=1.0, nJ=3)
    assert law_problems(laws_for(1, final=True), v, 10) == {
        "telescoping partial-sum law": ["slot 10: nan exceeds 5.0"]}


@given(st.lists(st.tuples(st.floats(min_value=-0.7, max_value=0.7),
                          st.floats(min_value=-0.7, max_value=0.7)),
                min_size=1, max_size=50))
def test_dynamics_laws_hold_for_any_bounded_increments(rows):
    # step bound and drift bound are facts about the recursion, independent
    # of how the increments were chosen; ||z|| <= 0.7*sqrt(2) < 1 here
    tr = build_trace_from_z([0.0] * len(rows), [list(r) for r in rows])
    assert verify_trace_dynamics(tr, B=1.0) == []


def test_replay_is_bit_identical(sv_spec):
    a = run_path(sv_spec, seed=77, T=3000)
    b = run_path(sv_spec, seed=77, T=3000)
    assert np.array_equal(a.event_ids, b.event_ids)
    assert np.array_equal(a.action_indices, b.action_indices)
    assert np.array_equal(a.z0, b.z0)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.drift, b.drift)


def test_csv_round_trip(tmp_path, sv_spec):
    tr = run_path(sv_spec, seed=3, T=500)
    path = tmp_path / "trace.csv"
    write_trace_csv(tr, str(path))
    header = path.read_text().splitlines()[0]
    assert header == trace_csv_header(sv_spec.L)
    back = read_trace_csv(str(path))
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


@pytest.mark.parametrize("header", [
    "t,event_id,action_index,z0,z_1,q_1,cost",   # a column misnamed
    "t,event_id,action_index,z0,z_1,q_1",        # a column missing
    "t,event_id,action_index,z0,z_1,z_2,q_1,drift",  # L unequal in z and q
])
def test_read_trace_csv_rejects_an_unrecognized_header(tmp_path, header):
    path = tmp_path / "t.csv"
    path.write_text(header + "\n1,0,0,0.0,1.0,0.0,0.5\n")
    with pytest.raises(ValueError, match=f"^unrecognized trace header {re.escape(repr(header))}$"):
        read_trace_csv(str(path))


def _rewrite_cell(path: Path, row: int, col: int, value: str) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("row,col,value,reason", [
    (3, 0, "2", "t is not the row number"),
    (1, 0, "0", "t is not the row number"),
    (2, 1, "1.5", "event_id or action_index is not an integer in 0..2**53"),
    (4, 2, "-2", "event_id or action_index is not an integer in 0..2**53"),
    (5, 6, "nan", "a value is not finite"),
    (1, 4, "-inf", "a value is not finite"),
])
def test_read_trace_csv_rejects_malformed_rows(tmp_path, sq_spec, row, col, value, reason):
    path = tmp_path / "t.csv"
    write_trace_csv(run_path(sq_spec, seed=11, T=6), str(path))
    read_trace_csv(str(path))
    _rewrite_cell(path, row, col, value)
    with pytest.raises(ValueError, match=rf"^trace row {row}: {re.escape(reason)}: "):
        read_trace_csv(str(path))


def test_read_trace_csv_counts_data_rows_not_lines(tmp_path, sq_spec):
    # a blank line is skipped, so the bad row after it is still data row 4
    path = tmp_path / "t.csv"
    write_trace_csv(run_path(sq_spec, seed=11, T=6), str(path))
    _rewrite_cell(path, 4, -1, "nan")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + ["\n"] + lines[3:]))
    with pytest.raises(ValueError, match=r"^trace row 4: a value is not finite: "):
        read_trace_csv(str(path))


@pytest.mark.parametrize("row", [5, 50])
def test_read_trace_csv_leaves_queue_values_to_the_checker(tmp_path, sv_spec, row):
    # the reader parses, whichever row holds the negative queue, the last
    # included; the checker reports it
    path = tmp_path / "t.csv"
    write_trace_csv(run_path(sv_spec, seed=3, T=50), str(path))
    _rewrite_cell(path, row, 4 + sv_spec.L, "-1.0")  # q_1
    problems = verify_trace_dynamics(read_trace_csv(str(path)), sv_spec.B)
    assert "negative queue component" in problems


def test_read_trace_csv_reports_the_first_bad_row(tmp_path):
    # every rule broken at once: the first row is named, with its first rule
    path = tmp_path / "t.csv"
    path.write_text(trace_csv_header(1) + "\n7,1.5,-2,0.0,1.0,0.0,0.5\n"
                    "7,1,0,0.0,1.0,1.0,nan\n")
    with pytest.raises(ValueError, match=r"^trace row 1: t is not the "
                                         r"row number: 7\.0,1\.5,-2\.0,"):
        read_trace_csv(str(path))


# ---------------------------------------------------------------------------
# the block writer against the row-by-row reference writer
# ---------------------------------------------------------------------------

def _assert_writers_agree(trace: PathTrace, directory: str) -> bytes:
    want, got = Path(directory, "reference.csv"), Path(directory, "block.csv")
    reference_write_trace_csv(trace, str(want))
    write_trace_csv(trace, str(got))
    assert got.read_bytes() == want.read_bytes()
    return got.read_bytes()


@pytest.mark.parametrize("build", [build_server_scheduling_spec, build_single_queue_spec])
def test_writer_matches_reference_across_blocks(tmp_path, build):
    T = core.TRACE_CSV_BLOCK + 4464  # one full block and part of the next
    _assert_writers_agree(run_path(build(V=100.0), seed=2, T=T), str(tmp_path))


def test_writer_matches_reference_on_signed_zeros_and_thirds(tmp_path):
    events = (
        EventOutcome(0.5, (ActionVector(-0.0, (-0.0, 0.1)),
                           ActionVector(0.1, (1 / 3, -0.0)),
                           ActionVector(1 / 3, (-1 / 3, -0.1)))),
        EventOutcome(0.5, (ActionVector(0.0, (0.1, 1 / 3)),
                           ActionVector(0.5, (-0.1, -1 / 3)))),
    )
    spec = ProblemSpec(events=events, L=2, z_max=1.0, B=1.0, V=3.0)
    tr = run_path(spec, seed=4, T=3000)
    assert np.any((tr.z == 0.0) & np.signbit(tr.z))  # -0.0 is in the trace
    text = _assert_writers_agree(tr, str(tmp_path)).decode()
    assert ",-0.0," in text and ",0.3333333333333333," in text


_doubles = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e308]), st.floats())


@st.composite
def _any_trace(draw) -> PathTrace:
    T, L = draw(st.integers(1, 30)), draw(st.integers(1, 3))

    def floats(*shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(_doubles, min_size=n, max_size=n)),
                        dtype=np.float64).reshape(shape)

    def ints():
        return np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                      min_size=T, max_size=T)), dtype=np.int64)

    return PathTrace(ints(), ints(), floats(T), floats(T, L), floats(T + 1, L), floats(T))


@settings(max_examples=60, deadline=None)
@given(_any_trace())
def test_writer_matches_reference_on_any_trace(trace):
    # small blocks, so most examples also cross block boundaries
    with tempfile.TemporaryDirectory() as d, mock.patch.object(core, "TRACE_CSV_BLOCK", 7):
        _assert_writers_agree(trace, d)


# ---------------------------------------------------------------------------
# memory: run_path's buffers and the writer's per-block working set
# ---------------------------------------------------------------------------

WRITER_EXTRA_PEAK = 32 << 20  # bytes; the 2e5-slot server trace needs ~18 MB


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["sv_spec", "non_lattice"])
def test_run_path_memory_and_array_layout(request, name):
    # the non-lattice spec's states never repeat, so run_path tables a whole
    # block of fresh states before it hands over
    spec = non_lattice_spec() if name == "non_lattice" else request.getfixturevalue(name)
    tr, peak = _traced_peak(lambda: run_path(spec, seed=1, T=50_000))
    arrays = (tr.event_ids, tr.action_indices, tr.z0, tr.z, tr.q, tr.drift)
    assert peak <= 1.5 * sum(a.nbytes for a in arrays)
    for a, dtype in zip(arrays, (np.int64,) * 2 + (np.float64,) * 4):
        assert a.dtype == dtype and a.flags.c_contiguous and a.flags.writeable


@pytest.mark.parametrize("T", [50_000, 200_000])
def test_write_trace_csv_memory_does_not_grow_with_T(tmp_path, sv_spec, T):
    tr = run_path(sv_spec, seed=1, T=T)
    _, peak = _traced_peak(lambda: write_trace_csv(tr, str(tmp_path / "t.csv")))
    assert peak <= WRITER_EXTRA_PEAK


def test_extreme_seeds_replay(sv_spec):
    for seed in (0, (1 << 64) - 1):
        a = run_path(sv_spec, seed=seed, T=200)
        b = run_path(sv_spec, seed=seed, T=200)
        assert np.array_equal(a.q, b.q)


def test_spec_validation_rejects_bad_instances():
    a = ActionVector(1.0, (0.5,))
    ev = EventOutcome(probability=1.0, actions=(a,))
    ProblemSpec(events=(ev,), L=1, z_max=1.0, B=1.0, V=1.0)
    with pytest.raises(ValueError):  # probabilities off
        bad = EventOutcome(probability=0.5, actions=(a,))
        ProblemSpec(events=(bad,), L=1, z_max=1.0, B=1.0, V=1.0)
    with pytest.raises(ValueError):  # z_max not a true bound
        ProblemSpec(events=(ev,), L=1, z_max=0.5, B=1.0, V=1.0)
    with pytest.raises(ValueError):  # B not a true bound
        ProblemSpec(events=(ev,), L=1, z_max=1.0, B=0.1, V=1.0)
    with pytest.raises(ValueError):  # dimension mismatch
        ProblemSpec(events=(ev,), L=2, z_max=1.0, B=1.0, V=1.0)
    nan, inf = math.nan, math.inf
    # an event's own checks name it by position, before the probability sum
    for bad, reason in ((EventOutcome(1.0, ()), "action set must be nonempty"),
                        (EventOutcome(0.0, (a,)), "probability must be positive"),
                        (EventOutcome(nan, (a,)), "probability must be positive")):
        with pytest.raises(ValueError, match=f"^event 1: {reason}$"):
            ProblemSpec(events=(ev, bad), L=1, z_max=1.0, B=1.0, V=1.0)
    for z0, z in ((nan, (0.5,)), (1.0, (nan,))):  # NaN passes no bound check
        ev_bad = EventOutcome(probability=1.0, actions=(ActionVector(z0, z),))
        with pytest.raises(ValueError):
            ProblemSpec(events=(ev_bad,), L=1, z_max=1.0, B=1.0, V=1.0)
    for field in ("z_max", "B", "V"):  # each must be finite, not only positive
        for value in (inf, nan):
            with pytest.raises(ValueError):
                ProblemSpec(**{"events": (ev,), "L": 1, "z_max": 1.0, "B": 1.0,
                               "V": 1.0, field: value})


def test_action_table_is_padded_and_read_only():
    spec = ragged_spec()
    table = spec.action_table
    assert table.shape == (2, 2, 3) and not table.flags.writeable
    assert table[:, 0].tolist() == [[0.2, math.inf, math.inf], [-0.5, 0.0, 0.0]]
    assert table[:, 1].tolist() == [[0.0, 0.6, 1.0], [0.9, -1.0, 0.0]]
    assert spec.action_table is table  # built once
    # an unchecked copy rebuilds it from its own events
    copy = unchecked_spec(spec, events=spec.events[1:])
    assert copy.action_table.shape == (2, 1, 3)


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
    # left-to-right accumulation from zero, the contract the two engines and
    # the stored-trace checker share
    rows = [[1e16, 1.0, -1e16], [0.1, 0.1, 0.3]]  # the second sums differently reversed
    assert core.row_norm_sq(np.array(rows[:1])).tolist() == [norm_sq(rows[0])]
    assert core.row_norm_sq(np.array(rows)).tolist() == [norm_sq(r) for r in rows]
