import contextlib
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
                     reference_read_trace_csv, reference_write_trace_csv, tight_step_spec,
                     unchecked_spec)
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
    # numpy's float parser, not float(): it rejects 1_0 too
    (3, 3, "abc", "a value does not parse"),
    (2, 4, "", "a value does not parse"),
    (4, 5, "1_0", "a value does not parse"),
    (6, 0, "1_0", "a value does not parse"),
])
def test_read_trace_csv_rejects_malformed_rows(tmp_path, sq_spec, row, col, value, reason):
    path = tmp_path / "t.csv"
    write_trace_csv(run_path(sq_spec, seed=11, T=6), str(path))
    read_trace_csv(str(path))
    _rewrite_cell(path, row, col, value)
    with pytest.raises(ValueError, match=rf"^trace row {row}: {re.escape(reason)}: "):
        read_trace_csv(str(path))


def _second_block_row(path: Path) -> int:
    """A data row that the reader reads in its second block: it reads
    16 * TRACE_CSV_BLOCK bytes and the rest of the line at a time."""
    body = path.read_bytes().split(b"\n", 1)[1]
    first_block = body.index(b"\n", 16 * core.TRACE_CSV_BLOCK) + 1
    assert len(body) > first_block
    return body[:first_block].count(b"\n") + 2


@pytest.mark.parametrize("where", ["first row", "second block"])
@pytest.mark.parametrize("change,columns", [(lambda cells: cells[:-1], 10),
                                            (lambda cells: cells + ["9.0"], 12)])
def test_read_trace_csv_rejects_rows_whose_column_count_differs(tmp_path, sv_spec, where,
                                                                 change, columns):
    # one row short or long, where the rest agree with the header: before,
    # a file of such rows only was read with its columns misassigned
    path = tmp_path / "t.csv"
    write_trace_csv(run_path(sv_spec, seed=3, T=core.TRACE_CSV_BLOCK // 2), str(path))
    row = 1 if where == "first row" else _second_block_row(path)
    lines = path.read_text().splitlines()
    bad = [",".join(change(line.split(","))) for line in lines]
    path.write_text("\n".join(lines[:row] + bad[row:row + 1] + lines[row + 1:]) + "\n")
    with pytest.raises(ValueError, match=rf"^trace row {row}: {columns} columns, not the "
                                         rf"header's 11: {re.escape(bad[row])}$"):
        read_trace_csv(str(path))
    if where == "first row":  # every row short or long
        path.write_text("\n".join(lines[:1] + bad[1:]) + "\n")
        with pytest.raises(ValueError, match=rf"^trace row 1: {columns} columns"):
            read_trace_csv(str(path))


@pytest.mark.parametrize("t", ["{}.0", "0{}", "{}e0", "{}_0"])
def test_read_trace_csv_reads_t_as_a_number_where_rows_repeat(tmp_path, sv_spec, t):
    # t in other digits than the row number's is parsed whole, by numpy's
    # float parser, in a block whose other rows are grouped by their tails
    path = tmp_path / "t.csv"
    tr = run_path(sv_spec, seed=3, T=core.TRACE_CSV_BLOCK // 2)
    write_trace_csv(tr, str(path))
    row = _second_block_row(path)
    _rewrite_cell(path, row, 0, t.format(row))
    if t == "{}_0":
        with pytest.raises(ValueError, match=rf"^trace row {row}: a value does not parse: "):
            read_trace_csv(str(path))
    else:
        _assert_same_trace(read_trace_csv(str(path)), tr)
        _rewrite_cell(path, row, 0, t.format(row + 1))
        with pytest.raises(ValueError, match=rf"^trace row {row}: t is not the row number: "):
            read_trace_csv(str(path))


@pytest.mark.parametrize("row", ["1,0,0,0.0,1.0,0.0,0.5 # c", "#1,0,0,0.0,1.0,0.0,0.5"])
def test_read_trace_csv_has_no_comments(tmp_path, row):
    path = tmp_path / "t.csv"
    path.write_text(trace_csv_header(1) + "\n" + row + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^trace row 1: a value does not parse: "
                                             rf"{re.escape(row)}$"):
            read_trace_csv(str(path))


def test_overflowing_final_queue_is_read_and_checked_without_warnings(tmp_path):
    # 1e308 + 1e308 overflows: the final queue row reads back as inf, and the
    # checker reports the row, with numpy's overflow warnings off only there
    path = tmp_path / "t.csv"
    path.write_text(trace_csv_header(1) + "\n1,0,0,0.0,1e308,1e308,0.0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = read_trace_csv(str(path))
        assert trace.q.tolist() == [[1e308], [math.inf]]
        assert verify_trace_dynamics(trace, 1.0) == [
            "slot 1: stored drift differs from recomputed value",
            "queue norm step bound: slot 1: nan exceeds 1.0"]


def test_read_trace_csv_counts_data_rows_not_lines(tmp_path, sq_spec):
    # blank lines, empty or of whitespace, are skipped, so the bad row after
    # them is still data row 4
    path = tmp_path / "t.csv"
    write_trace_csv(run_path(sq_spec, seed=11, T=6), str(path))
    _rewrite_cell(path, 4, -1, "nan")
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + [" \t\n"] + lines[2:3] + ["\n"] + lines[3:]))
    with pytest.raises(ValueError, match=r"^trace row 4: a value is not finite: "):
        read_trace_csv(str(path))


def test_read_trace_csv_skips_blank_lines_before_the_first_row(tmp_path, sq_spec):
    path = tmp_path / "t.csv"
    tr = run_path(sq_spec, seed=11, T=6)
    write_trace_csv(tr, str(path))
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1] + ["\n", " \n"] + lines[1:]))
    back = read_trace_csv(str(path))
    assert np.array_equal(back.q, tr.q) and np.array_equal(back.event_ids, tr.event_ids)
    path.write_text("".join(lines[:1] + ["\n", " \n"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # fails before numpy warns
        with pytest.raises(ValueError, match="^trace has no slots$"):
            read_trace_csv(str(path))


@pytest.mark.parametrize("blank", ["", " \t"])
def test_read_trace_csv_skips_blank_lines_where_rows_repeat(tmp_path, sv_spec, blank):
    path = tmp_path / "t.csv"
    tr = run_path(sv_spec, seed=3, T=200)
    write_trace_csv(tr, str(path))
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:50] + [blank] + lines[50:]))
    _assert_same_trace(read_trace_csv(str(path)), tr)


@pytest.mark.parametrize("rows", [("2,0,0,0,0.0,1.0,0.0,0.5", "3.0,0,0,0.0,1.0,0.0,0.5"),
                                  ("2.0,0,0,0.0,1.0,0.0,0.5", "3,0,0,0,0.0,1.0,0.0,0.5")])
def test_read_trace_csv_groups_rows_by_their_bytes_after_t(tmp_path, rows):
    # a t of other digits ("3.0") is parsed whole: its bytes after the row
    # number's digits equal a long row's bytes after t, which must not hide
    # the long row
    path = tmp_path / "t.csv"
    path.write_text("\n".join([trace_csv_header(1), "1,0,0,0.0,1.0,0.0,0.5", *rows,
                               "4,0,0,0.0,1.0,0.0,0.5", "5,0,0,0.0,1.0,0.0,0.5"]) + "\n")
    long = 2 if rows[0].count(",") == 7 else 3
    with pytest.raises(ValueError, match=rf"^trace row {long}: 8 columns, not the header's 7: "):
        read_trace_csv(str(path))


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_read_trace_csv_reads_any_line_end(tmp_path, sq_spec, end):
    path = tmp_path / "t.csv"
    tr = run_path(sq_spec, seed=11, T=6)
    write_trace_csv(tr, str(path))
    path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
    _assert_same_trace(read_trace_csv(str(path)), tr)


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


def test_read_trace_csv_names_the_first_bad_row_of_a_full_block(tmp_path, sv_spec):
    # in a whole 1 MiB block, event_id 1.5 at one row and a cell that does
    # not parse at a later one: the block is read line by line, and the
    # first row is named, with its rule
    path = tmp_path / "t.csv"
    write_trace_csv(run_path(sv_spec, seed=3, T=50_000), str(path))
    assert path.stat().st_size > 2 * 16 * core.TRACE_CSV_BLOCK  # the second block is whole
    r1 = _second_block_row(path) + 1000
    r2 = r1 + 1000
    _rewrite_cell(path, r1, 1, "1.5")
    _rewrite_cell(path, r2, 3, "abc")
    with pytest.raises(ValueError, match=rf"^trace row {r1}: event_id or action_index is not "
                                         r"an integer in 0\.\.2\*\*53: "):
        read_trace_csv(str(path))


def test_blank_lines_keep_a_block_on_the_block_parse(tmp_path, sv_spec, monkeypatch):
    # a whitespace line in each of two blocks: each block is parsed whole,
    # which fails there, then once more without it, and reads back exactly
    path = tmp_path / "t.csv"
    tr = run_path(sv_spec, seed=3, T=40_000)
    write_trace_csv(tr, str(path))
    row = _second_block_row(path) + 100
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:100] + [" \t"] + lines[100:row] + [" \t"] + lines[row:]))
    blocks, read, parse = [], core._read_block, core._parse_lines

    def read_block(buf, k0, ncol):
        blocks.append([b"\n \t\n" in buf, 0])  # has the blank line, parses so far
        return read(buf, k0, ncol)

    def parse_lines(text):
        blocks[-1][1] += 1
        return parse(text)

    monkeypatch.setattr(core, "_read_block", read_block)
    monkeypatch.setattr(core, "_parse_lines", parse_lines)
    _assert_same_trace(read_trace_csv(str(path)), tr)
    assert [blank for blank, _ in blocks] == [True, True]
    assert all(parses <= 2 for _, parses in blocks), blocks


def _assert_same_trace(got: PathTrace, want: PathTrace) -> None:
    for name in ("event_ids", "action_indices", "z0", "z", "q", "drift"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous and a.flags.writeable, name


@pytest.mark.parametrize("collide", [False, True])
def test_reader_round_trips_across_blocks(tmp_path, sv_spec, collide):
    # each distinct row after t is parsed once; when every row key collides,
    # no rows are grouped and every row is parsed, with the same result
    T = core.TRACE_CSV_BLOCK + 4464
    tr = run_path(sv_spec, seed=2, T=T)
    path = tmp_path / "t.csv"
    write_trace_csv(tr, str(path))
    parsed, parse = [], core._parse_lines
    with contextlib.ExitStack() as patches:
        patches.enter_context(mock.patch.object(
            core, "_parse_lines", lambda text: parsed.append(parse(text)) or parsed[-1]))
        if collide:
            patches.enter_context(mock.patch.object(
                core, "_row_keys", lambda rows: np.zeros(len(rows[0]), np.uint64)))
        back = read_trace_csv(str(path))
    _assert_same_trace(back, tr)
    rows = sum(len(p) for p in parsed)
    assert rows == T if collide else rows < T / 20


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


def test_writer_renders_every_row_when_row_keys_collide(tmp_path, sv_spec):
    # one key for every row: each block finds different rows under it, so it
    # renders every row, and the bytes are the same
    tr = run_path(sv_spec, seed=2, T=core.TRACE_CSV_BLOCK + 4464)
    with mock.patch.object(core, "_row_keys", lambda rows: np.zeros(len(rows[0]), np.uint64)):
        assert core._distinct_rows((np.vstack((tr.event_ids, tr.action_indices)),)) is None
        _assert_writers_agree(tr, str(tmp_path))


def test_writer_matches_reference_when_every_row_repeats(tmp_path):
    # one event whose one action empties the queue: every row but t is the same
    spec = ProblemSpec(events=(EventOutcome(1.0, (ActionVector(0.25, (-0.5,)),)),),
                       L=1, z_max=1.0, B=1.0, V=3.0)
    tr = run_path(spec, seed=4, T=3 * core.TRACE_CSV_BLOCK)
    first, inv = core._distinct_rows((np.vstack((tr.event_ids, tr.action_indices)),
                                      np.vstack((tr.z0, tr.z.T, tr.q_before.T, tr.drift))))
    assert len(first) == 1 and not inv.any()
    text = _assert_writers_agree(tr, str(tmp_path)).decode()
    assert text.endswith(f"\n{3 * core.TRACE_CSV_BLOCK},0,0,0.25,-0.5,0.0,0.0\n")


_doubles = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e308]), st.floats())


_finite_doubles = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e308]),
                           st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _any_trace(draw, doubles=_doubles, ids=st.integers(-2 ** 63, 2 ** 63 - 1)) -> PathTrace:
    T, L = draw(st.integers(1, 30)), draw(st.integers(1, 3))

    def floats(*shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(doubles, min_size=n, max_size=n)),
                        dtype=np.float64).reshape(shape)

    def ints():
        return np.array(draw(st.lists(ids, min_size=T, max_size=T)), dtype=np.int64)

    return PathTrace(ints(), ints(), floats(T), floats(T, L), floats(T + 1, L), floats(T))


@settings(max_examples=60, deadline=None)
@given(_any_trace())
def test_writer_matches_reference_on_any_trace(trace):
    # small blocks, so most examples also cross block boundaries
    with tempfile.TemporaryDirectory() as d, mock.patch.object(core, "TRACE_CSV_BLOCK", 7):
        _assert_writers_agree(trace, d)


@settings(max_examples=80, deadline=None)
@given(_any_trace(_finite_doubles, st.integers(0, 2 ** 53)), st.data())
def test_reader_round_trips_any_finite_trace(trace, data):
    # rows drawn from a few of the trace's own, so that tails repeat within
    # a block, and small blocks, so that most examples cross block boundaries
    rows = np.array(data.draw(st.lists(st.integers(0, min(trace.T, 4) - 1),
                                       min_size=1, max_size=40)))
    q = np.vstack((trace.q_before[rows], np.zeros((1, trace.L))))
    tr = PathTrace(trace.event_ids[rows], trace.action_indices[rows], trace.z0[rows],
                   trace.z[rows], q, trace.drift[rows])
    with np.errstate(over="ignore"):  # 1e308 + 1e308
        tr.q[-1] = np.maximum(tr.q[-2] + tr.z[-1], 0.0)  # as the reader rebuilds it
    block = data.draw(st.integers(1, 256))
    with tempfile.TemporaryDirectory() as d, mock.patch.object(core, "TRACE_CSV_BLOCK", block):
        write_trace_csv(tr, str(Path(d, "t.csv")))
        _assert_same_trace(read_trace_csv(str(Path(d, "t.csv"))), tr)


_cells = st.sampled_from(["abc", "", "1_0", "nan", "-inf", "1.5", "-1", "-0", "9007199254740993",
                          " 7 ", "0.5 # c", "#1", "0x10", "1e400", "\xa0", "\u3000", "\uff11"])


def _reader_outcome(read, path: str):
    try:
        with np.errstate(over="ignore"):  # the reference's final q + z
            return read(path)
    except ValueError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(_any_trace(_finite_doubles, st.integers(0, 2 ** 53)), st.data())
def test_reader_matches_the_row_by_row_reference_on_corrupted_files(trace, data):
    # a block reader must name the same first bad row, for the same reason,
    # as a reader that checks one line at a time, wherever blocks split
    rows = np.array(data.draw(st.lists(st.integers(0, min(trace.T, 3) - 1),
                                       min_size=1, max_size=30)))
    tr = PathTrace(trace.event_ids[rows], trace.action_indices[rows], trace.z0[rows],
                   trace.z[rows], np.vstack((trace.q_before[rows], trace.q[-1:])),
                   trace.drift[rows])
    with tempfile.TemporaryDirectory() as d:
        path = str(Path(d, "t.csv"))
        write_trace_csv(tr, path)
        lines = Path(path).read_text().split("\n")
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(1, len(lines) - 1))
            cells = lines[i].split(",")
            edit = data.draw(st.sampled_from(["cell", "t", "short", "long", "blank"]))
            if edit == "cell":
                cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_cells)
            elif edit == "t":
                cells[0] = data.draw(st.sampled_from(["{}", "0{}", "{}.0", "{}e0"])).format(
                    i + data.draw(st.integers(-1, 1)))
            elif edit in ("short", "long"):
                cells = cells[:-1] if edit == "short" else cells + ["9.0"]
            else:  # a blank line before this one
                cells = [data.draw(st.sampled_from(["", " ", "\t", "\f"])) + "\n" + lines[i]]
            lines[i] = ",".join(cells)
        end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        Path(path).write_bytes(end.join(lines).encode("utf-8"))
        with mock.patch.object(core, "TRACE_CSV_BLOCK", data.draw(st.integers(1, 64))):
            got = _reader_outcome(read_trace_csv, path)
        want = _reader_outcome(reference_read_trace_csv, path)
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_trace(got, want)


# ---------------------------------------------------------------------------
# memory: run_path's buffers and the writer's and reader's per-block working sets
# ---------------------------------------------------------------------------

WRITER_EXTRA_PEAK = 32 << 20  # bytes; the 2e5-slot server trace needs ~18 MB
READER_EXTRA_PEAK = 8 << 20  # bytes; a 1 MiB block of the server trace needs ~7.1 MB


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


def test_read_trace_csv_memory_stays_near_the_trace(tmp_path, sv_spec):
    # the reader fills the trace's own arrays block by block: it holds no
    # whole-file array beside them
    path = tmp_path / "t.csv"
    write_trace_csv(run_path(sv_spec, seed=1, T=200_000), str(path))
    tr, peak = _traced_peak(lambda: read_trace_csv(str(path)))
    arrays = (tr.event_ids, tr.action_indices, tr.z0, tr.z, tr.q, tr.drift)
    assert peak <= 1.1 * sum(a.nbytes for a in arrays) + READER_EXTRA_PEAK


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
