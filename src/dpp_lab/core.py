"""Domain types, the queue dynamics, the table of per-path laws, the trace
CSV format, and the one stored-trace checker :func:`verify_trace_dynamics`.

Events and actions are named by their positions: event i is
``ProblemSpec.events[i]`` and its action k is ``.actions[k]``.  A trace
records these positions in its ``event_id`` and ``action_index`` columns.
A trace holds only its columns; it is read against the spec it came from.

Everything here is 64-bit floating point.  A per-path law holds up to its
float slack :attr:`Law.tol`, at least :data:`LAW_TOL` (1e-9); the stored
drift against its recomputed value uses :data:`LAW_TOL`, and the queue
update is an identity and is checked exactly.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LAW_TOL = 1e-9
PROB_TOL = 1e-12


@dataclass(frozen=True)
class ActionVector:
    """One feasible decision: a per-slot cost ``z0`` and the vector ``z`` of
    per-slot increments fed to the virtual queues (length L)."""

    z0: float
    z: tuple[float, ...]


@dataclass(frozen=True)
class EventOutcome:
    """One point of the finite event support, with its probability and the
    finite, nonempty action set available when it occurs.  An event is
    named by its position in :attr:`ProblemSpec.events`."""

    probability: float
    actions: tuple[ActionVector, ...]


@dataclass(frozen=True)
class ProblemSpec:
    """A complete problem instance: finite i.i.d. event distribution, per-event
    finite action sets, the bounds ``z_max`` (on \\|z0\\|) and ``B`` (on the
    euclidean norm of z), and the trade-off weight ``V``.

    Construction validates every action against the declared bounds; all
    downstream constants rely on ``z_max`` and ``B`` being true bounds.
    Exact score ties in the per-slot minimization always go to the lowest
    action index.
    """

    events: tuple[EventOutcome, ...]
    L: int
    z_max: float
    B: float
    V: float

    def __post_init__(self) -> None:
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        if not all(0 < x < math.inf for x in (self.z_max, self.B, self.V)):
            raise ValueError("z_max, B and V must all be positive and finite")
        if not self.events:
            raise ValueError("event support must be nonempty")
        for i, e in enumerate(self.events):
            if not e.actions:
                raise ValueError(f"event {i}: action set must be nonempty")
            if not e.probability > 0.0:  # NaN fails too
                raise ValueError(f"event {i}: probability must be positive")
            for k, a in enumerate(e.actions):
                if len(a.z) != self.L:
                    raise ValueError(f"event {i} action {k}: dimension {1 + len(a.z)} "
                                     f"!= L+1 = {self.L + 1}")
                if not abs(a.z0) <= self.z_max + PROB_TOL:  # NaN fails too
                    raise ValueError(
                        f"event {i} action {k}: |z0|={abs(a.z0)!r} exceeds z_max={self.z_max!r}"
                    )
                if not math.sqrt(math.fsum(v * v for v in a.z)) <= self.B + PROB_TOL:
                    raise ValueError(
                        f"event {i} action {k}: ||z|| exceeds B={self.B!r}"
                    )
        total = math.fsum(e.probability for e in self.events)
        if not abs(total - 1.0) <= PROB_TOL:
            raise ValueError(f"event probabilities sum to {total!r}, not 1")

    @cached_property
    def digest(self) -> str:
        """Content hash; identical specs hash identically, bit for bit."""
        h = hashlib.sha256()
        h.update(f"L={self.L};z_max={self.z_max!r};B={self.B!r};V={self.V!r};"
                 "tie=lowest-index;".encode())
        for i, e in enumerate(self.events):
            h.update(f"e{i}:p={e.probability!r};".encode())
            for a in e.actions:
                h.update(f"a={a.z0!r},{','.join(repr(v) for v in a.z)};".encode())
        return h.hexdigest()

    @cached_property
    def max_actions(self) -> int:
        return max(len(e.actions) for e in self.events)

    @cached_property
    def action_table(self) -> np.ndarray:
        """Read-only (1+L, W, K) array of every action's z0 and z_1..z_L, for
        W events of at most K actions.  Padding entries (events with fewer
        than K actions) have z0 = +inf, so they never win a minimization,
        and z = 0."""
        table = np.zeros((1 + self.L, len(self.events), self.max_actions))
        table[0] = np.inf
        for i, e in enumerate(self.events):
            for k, a in enumerate(e.actions):
                table[:, i, k] = (a.z0, *a.z)
        table.flags.writeable = False
        return table

    def with_v(self, V: float) -> "ProblemSpec":
        """Same instance under a different trade-off weight."""
        return ProblemSpec(self.events, self.L, self.z_max, self.B, V)


@dataclass(frozen=True)
class PathTrace:
    """A full sample path, stored columnwise.

    ``q`` has T+1 rows: row t-1 is the queue vector at the start of slot t,
    row T is the final post-update vector.
    """

    event_ids: np.ndarray     # (T,) int64, positions in ProblemSpec.events
    action_indices: np.ndarray  # (T,) int64, positions in the event's actions
    z0: np.ndarray            # (T,) float64
    z: np.ndarray             # (T, L) float64
    q: np.ndarray             # (T+1, L) float64
    drift: np.ndarray         # (T,) float64

    @property
    def T(self) -> int:
        return int(self.event_ids.shape[0])

    @property
    def L(self) -> int:
        return int(self.q.shape[1])

    @property
    def q_before(self) -> np.ndarray:
        return self.q[:-1]

    @property
    def q_after(self) -> np.ndarray:
        return self.q[1:]


# ---------------------------------------------------------------------------
# squared queue norms
#
# The two engines and the stored-trace checker must agree bit for bit, so a
# squared queue norm sums left to right over the constraint index from zero.
# Do not replace row_norm_sq with np.dot / np.sum.
# ---------------------------------------------------------------------------

def row_norm_sq(x: np.ndarray) -> np.ndarray:
    """Squared euclidean norm of each row of a 2-D array, summed over the
    columns left to right from zero."""
    out = np.zeros(x.shape[0])
    for l in range(x.shape[1]):
        out += x[:, l] * x[:, l]
    return out


# ---------------------------------------------------------------------------
# the deterministic per-path laws
#
# One ordered table serves the lockstep engine (evaluated each slot over the
# paths of a batch) and stored traces (evaluated over the slots of one path).
# A law holds where lhs <= rhs + tol, so a NaN on either side fails.  All
# three read one namespace:
#   norm_before, norm_after  queue norm at the start and the end of the slot
#   nb2, na2                 their squares, as summed
#   drift, qz                quadratic drift, and q.z for the chosen increments
#   dy, dg                   one-step differences of the stopped process and,
#                            for one constraint, of the truncated process
#   nJ, tele_gap, tele_avg   telescoping quantities of a path at its horizon
#   L, B, c2, V, z_max, C0   constants
# Failures are reported in table order.
# ---------------------------------------------------------------------------

class Law(NamedTuple):
    """One per-path law: it holds where ``lhs(v) <= rhs(v) + tol(v)``."""

    name: str
    lhs: Callable[[Any], Any]
    rhs: Callable[[Any], Any]
    single: bool = False  # single-constraint problems only
    final: bool = False   # once per path at the horizon, and only if C0*V >= B
    tol: Callable[[Any], Any] = lambda v: LAW_TOL  # the float slack, never below LAW_TOL

    def violations(self, v) -> tuple[Any, Any, Any]:
        """``(lhs, rhs, bad)``: ``bad`` marks lhs > rhs + tol (NaN included),
        or is None where the law holds.  ``tol`` is evaluated only where
        ``LAW_TOL`` fails; as it is never smaller, the verdict is the same."""
        lhs, rhs = self.lhs(v), self.rhs(v)
        if np.less_equal(lhs, rhs + LAW_TOL).all():
            return lhs, rhs, None
        bad = ~np.less_equal(lhs, rhs + self.tol(v))
        return lhs, rhs, (bad if bad.any() else None)


def _rounding_tol(v, scale):
    """LAW_TOL plus (L+3) machine epsilons (2**-52) of ``scale``.  With
    u = 2**-53, q >= 0, ||z|| <= B and q' = max(q + z, 0), in exact arithmetic
    (||q'||^2 - ||q||^2)/2 <= q.z + ||z||^2/2 and | ||q'|| - ||q|| | <= B.
    Each computed max(fl(q_l + z_l), 0) is within u q'_l of q'_l, and a sum
    of L rounded products from zero within L u of its magnitudes.  To first
    order the drift overshoots by u((L+3)||q'||^2 + (L+1)||q||^2)/2 (update,
    sums, subtraction), and B*B/2 + q.z plus the slack falls short by
    u((L+2)||q||^2 + (L+5)B^2)/2, as ||q||B <= (||q||^2 + B^2)/2: at most
    (L+3)u(na2 + nb2 + B^2) together.  The norm step overshoots by
    u((L/2+3)||q'|| + (L/2+2)||q||) (update, sums, roots, subtraction), at
    most (L+3)u(norm_before + norm_after).  Twice these covers the
    higher-order terms."""
    return LAW_TOL + (v.L + 3) * 2.0 ** -52 * scale


LAWS = (
    Law("queue norm step bound",
        lambda v: np.abs(v.norm_after - v.norm_before), lambda v: v.B,
        tol=lambda v: _rounding_tol(v, v.norm_before + v.norm_after)),
    Law("quadratic drift bound",
        lambda v: v.drift, lambda v: v.B * v.B / 2.0 + v.qz,
        tol=lambda v: _rounding_tol(v, v.nb2 + v.na2 + v.B * v.B)),
    Law("stopped process difference bound",
        lambda v: np.abs(v.dy), lambda v: v.c2),
    Law("truncated process difference bound",
        lambda v: np.abs(v.dg), lambda v: 2.0 * v.V * v.z_max + v.C0 * v.V * v.B,
        single=True),
    Law("telescoping partial-sum law",
        lambda v: v.tele_gap, lambda v: 2.5 * v.B * v.B * (v.nJ - 1),
        single=True, final=True),
    Law("truncated sum lower bound",
        lambda v: -v.tele_avg, lambda v: 2.5 * v.B * v.B,
        single=True, final=True),
)
DYNAMICS_LAWS = LAWS[:2]  # the laws that need nothing but B


def laws_for(L: int, final: bool) -> tuple[Law, ...]:
    """The per-slot (``final=False``) or end-of-path laws of an L-constraint
    problem, in table order."""
    return tuple(law for law in LAWS if law.final == final and (L == 1 or not law.single))


def trace_law_values(trace: PathTrace) -> SimpleNamespace:
    """Per-slot law inputs of a stored trace.  Squared norms and q.z sum over
    the constraints left to right from zero, as the lockstep engine does, so
    the values match the engine's bit for bit."""
    qb, z = trace.q_before, trace.z
    n2 = row_norm_sq(trace.q)
    nb2, na2, qz = n2[:-1], n2[1:], np.zeros(trace.T)
    for l in range(trace.L):
        qz += qb[:, l] * z[:, l]
    return SimpleNamespace(L=trace.L, nb2=nb2, na2=na2, norm_before=np.sqrt(nb2),
                           norm_after=np.sqrt(na2), drift=trace.drift, qz=qz)


def law_problems(laws: Sequence[Law], v: SimpleNamespace, T: int) -> dict[str, list[str]]:
    """Evaluate ``laws`` over the slots of one path; end-of-path laws count
    as slot T.  Maps each violated law, in table order, to messages for its
    first five failing slots."""
    out: dict[str, list[str]] = {}
    for law in laws:
        lhs, rhs, bad = law.violations(v)
        if bad is not None:
            lhs, rhs = np.broadcast_arrays(np.atleast_1d(lhs), rhs)
            out[law.name] = [f"slot {T if law.final else i + 1}: "
                             f"{float(lhs[i])!r} exceeds {float(rhs[i])!r}"
                             for i in np.nonzero(np.atleast_1d(bad))[0][:5]]
    return out


def verify_trace_dynamics(trace: PathTrace, B: float) -> list[str]:
    """Check the dynamics of a stored trace.

    Returns a list of human-readable violation strings, empty when the trace
    is internally consistent: exact queue update, queue nonnegativity and
    exact stored drift (integrity checks that only a corrupted trace trips),
    then the laws of the table that need only B: the step bound
    ``| ||Q[t+1]|| - ||Q[t]|| | <= B`` and the quadratic drift bound.
    """
    problems: list[str] = []
    qb, qa, z = trace.q_before, trace.q_after, trace.z
    # a value that overflows to inf or NaN here fails its check below
    with np.errstate(over="ignore", invalid="ignore"):
        # max{u,0} == (u + |u|)/2 exactly in IEEE arithmetic; this
        # recomputation is independent of how the trace was produced.
        u = qb + z
        update_bad = np.nonzero(~np.all(qa == (u + np.abs(u)) / 2.0, axis=1))[0]
        v = trace_law_values(trace)
        drift_bad = np.nonzero(~(np.abs(0.5 * (v.na2 - v.nb2) - trace.drift) <= LAW_TOL))[0]
        v.B = B
        law_msgs = law_problems(DYNAMICS_LAWS, v, trace.T)
    for i in update_bad[:5]:
        problems.append(f"slot {i + 1}: queue update not exact")
    if np.any(trace.q < 0.0):
        problems.append("negative queue component")
    for i in drift_bad[:5]:
        problems.append(f"slot {i + 1}: stored drift differs from recomputed value")
    for name, msgs in law_msgs.items():
        problems.extend(f"{name}: {m}" for m in msgs)
    return problems


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def trace_csv_header(L: int) -> str:
    zcols = ",".join(f"z_{l}" for l in range(1, L + 1))
    qcols = ",".join(f"q_{l}" for l in range(1, L + 1))
    return f"t,event_id,action_index,z0,{zcols},{qcols},drift"


TRACE_CSV_BLOCK = 65536  # rows rendered and written, and 16x as many bytes read, at a time


def _text_rows(values: np.ndarray) -> list[list[str]]:
    """``repr`` of every entry of a 2-D int64 or float64 array, row by row,
    with ``repr`` called once per distinct bit pattern of each row (a
    column of the trace).  Keying on bits, not values, keeps 0.0 and -0.0
    (equal, but printed differently) apart."""
    out = []
    for row in values:
        distinct, inv = np.unique(row.view(np.uint64), return_inverse=True)
        text = np.array(list(map(repr, distinct.view(values.dtype).tolist())), dtype=object)
        out.append(text[inv].tolist())
    return out


def _row_keys(cols: Sequence[np.ndarray]) -> np.ndarray:
    """A 64-bit key per slot of the equal-length uint64 columns ``cols`` (of
    a trace, or words of its text): a multiply-xor fold across them.  Equal
    rows get equal keys; different rows can share one, so a caller checks
    the rows that do."""
    key = cols[0].copy()
    for c in cols[1:]:
        key *= np.uint64(0x9E3779B97F4A7C15)
        key ^= key >> np.uint64(29)  # so that high bits reach the low ones
        key ^= c
    return key


def _distinct_rows(blocks: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct rows of 2-D 64-bit ``blocks`` (a column per array row, a
    slot per array column), compared by bits, as ``(rep, inv)``: slot
    ``rep[inv[i]]`` holds the bits of slot ``i`` in every column.  Slots are
    grouped by :func:`_row_keys` and each is checked against its group's
    representative.  None if two different rows share a key, or if no two
    slots share a row: then every slot is rendered, or parsed."""
    cols = [c for b in blocks for c in b.view(np.uint64)]
    key = _row_keys(cols)
    groups, inv = np.unique(key, return_inverse=True)
    if len(groups) == len(key):
        return None
    rep = np.empty(len(groups), dtype=np.intp)
    rep[inv] = np.arange(len(key))  # some slot of each group
    each = rep[inv]
    if not all(np.array_equal(c[each], c) for c in cols):
        return None
    return rep, inv


def _block_text(trace: PathTrace, lo: int, hi: int) -> str:
    """The CSV lines of slots lo+1..hi.  Each distinct row (all columns but
    ``t``, compared by bits) is rendered once, through each distinct number
    of a column once, so that per slot only ``t`` is new text.  A block's
    strings are freed on return: kept while the next block's were made,
    they left some 4 MiB more resident after the write."""
    ints = np.vstack((trace.event_ids[lo:hi], trace.action_indices[lo:hi]), dtype=np.int64)
    # z0, each z_l, each q_l at the start of the slot, drift
    floats = np.vstack((trace.z0[lo:hi], trace.z[lo:hi].T, trace.q[lo:hi].T,
                        trace.drift[lo:hi]), dtype=np.float64)
    distinct = _distinct_rows((ints, floats))
    if distinct is not None:
        rep, inv = distinct
        ints, floats = ints[:, rep], floats[:, rep]
    # ",event_id,...,drift" of each distinct row, then of each slot
    tails = list(map(",".join, zip(repeat(""), *_text_rows(ints), *_text_rows(floats))))
    if distinct is not None:
        tails = np.array(tails, dtype=object)[inv].tolist()
    lines = ["\n"] * (3 * (hi - lo))  # t, its row's tail, "\n"
    lines[::3] = map(str, range(lo + 1, hi + 1))
    lines[1::3] = tails
    return "".join(lines)


def write_trace_csv(trace: PathTrace, path: str) -> None:
    """One row per slot; queue columns hold the vector at the start of the
    slot.  Floats use shortest round-trip decimals.  Rows are rendered
    :data:`TRACE_CSV_BLOCK` slots at a time, each distinct row of a block
    once (see :func:`_block_text`)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(trace_csv_header(trace.L) + "\n")
        for lo in range(0, trace.T, TRACE_CSV_BLOCK):
            f.write(_block_text(trace, lo, min(lo + TRACE_CSV_BLOCK, trace.T)))


def first_true_row(bad: np.ndarray) -> int:
    """First row of a C-contiguous boolean array that holds a True, or its
    length if none does; ``argmax`` stops at the first True."""
    i = int(bad.argmax())
    return i // (bad.size // len(bad)) if bad.flat[i] else len(bad)


def _count_lines(f, size: int) -> int:
    """Lines from ``f``'s position to its end, each ended by "\\n", "\\r\\n"
    or "\\r" (as text mode reads them) or by the end of the file: at least
    as many as the data rows there.  Read ``size`` bytes at a time."""
    n, last = 0, b"\n"
    for chunk in iter(lambda: f.read(size), b""):
        n += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n")))
        if b"\r" in chunk:
            n += chunk.count(b"\r") - chunk.count(b"\r\n")
        last = chunk[-1:]
    return n + (last not in b"\r\n")


def _line_blocks(f, size: int):
    """The rest of ``f`` in blocks of whole lines, ``size`` bytes each and
    the rest of the line where that ends.  Every line of a block ends with
    "\\n" ("\\r\\n" and "\\r" are read as "\\n", as text mode reads them;
    a file whose lines all end with "\\r" is one block)."""
    for buf in iter(lambda: f.read(size), b""):
        buf += f.readline()
        if b"\r" in buf:
            buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield buf if buf.endswith(b"\n") else buf + b"\n"


def _parse_lines(text: bytes) -> np.ndarray:
    """(rows, columns) float64 of the CSV lines ``text``, by numpy's float
    parser.  Nothing is a comment."""
    return np.loadtxt(io.BytesIO(text), delimiter=",", dtype=np.float64, comments=None,
                      ndmin=2, encoding="utf-8")


def _distinct_tails(text: bytes, k0: int) -> tuple[np.ndarray, ...] | None:
    """Group the CSV lines ``text``, rows k0+1.. of a trace, by their bytes
    after ``t``, as ``(rep, inv, plain, ends)``: line ``rep[inv[i]]``
    has the bytes of line ``i`` after ``t``, line ``i`` ends at ``ends[i]``,
    and its ``t`` is its row number in plain digits where ``plain[i]``.  Any
    other line is a group of its own, so that it is parsed whole.  Lines are
    grouped by :func:`_distinct_rows`, their tails padded to whole 8-byte
    words.  None if no two lines share a group, if the tails are too wide to
    group cheaply, if a line is empty, or if the first lines of the block
    (those ending in its first 64 KiB) repeat no tail: then grouping would
    not pay."""
    first = text[:1 << 16].split(b"\n")[:-1]
    if len({line.partition(b",")[2] for line in first}) == len(first):
        return None
    a = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    if ends[0] == 0 or np.any(np.diff(ends) == 1):  # an empty line, which numpy skips
        return None
    n = len(ends)
    k = np.arange(k0 + 1, k0 + n + 1)
    D = len(str(k0 + n))  # digits of the largest k
    digits = np.ones(n, dtype=np.int64)  # of each k
    for p in range(1, D):
        digits += k >= 10 ** p
    tail = np.concatenate(([0], ends[:-1] + 1)) + digits + 1  # if t is plain
    tail_len = np.maximum(ends - tail, 0)
    W = max(1, (int(tail_len.max()) + 7) // 8)  # words per tail
    if 8 * W * n > 4 * len(a) or 8 * W + D + 1 > len(a):
        return None
    # t is plain if its comma follows k's digits: the last of D + 1 bytes;
    # a line whose bytes do not fit in the windows is a group of its own
    head = sliding_window_view(a, D + 1)[np.clip(tail - 1 - D, 0, len(a) - 1 - D)]
    plain = (tail - 1 - D >= 0) & (tail + 8 * W <= len(a)) & (head[:, D] == ord(","))
    number = np.zeros(n, dtype=np.int64)
    for c in range(D):  # the byte at decimal place D - 1 - c
        digit = head[:, c] - np.uint8(ord("0"))  # a digit if below 10
        live = digits > D - 1 - c
        plain &= ~live | (digit < 10)
        number = 10 * number + np.where(live, digit, 0)
    plain &= number == k
    tails = sliding_window_view(a, 8 * W)[np.minimum(tail, len(a) - 8 * W)].view(np.uint64)
    low = np.array([(1 << 8 * b) - 1 for b in range(9)], dtype=np.uint64)  # b low bytes
    for j in range(W):  # keep the tail's bytes of each word
        tails[:, j] &= low[np.clip(tail_len - 8 * j, 0, 8)]
    alone = np.where(plain, 0, np.arange(1, n + 1)).astype(np.uint64)
    distinct = _distinct_rows((tails.T, alone[None]))
    return None if distinct is None else (*distinct, plain, ends)


def _block_rows(text: bytes, k0: int) -> np.ndarray:
    """The (rows, columns) float64 values of the CSV lines ``text``, rows
    k0+1.. of a trace, with each group of :func:`_distinct_tails` parsed
    once, or every line if there are none."""
    distinct = _distinct_tails(text, k0)
    if distinct is None:
        return _parse_lines(text)
    rep, inv, plain, ends = distinct
    starts = np.concatenate(([0], ends[:-1] + 1))
    lines = zip(starts[rep].tolist(), (ends[rep] + 1).tolist())
    raw = _parse_lines(b"".join(text[i:j] for i, j in lines))[inv]
    raw[plain, 0] = np.arange(k0 + 1, k0 + len(ends) + 1)[plain]
    return raw


def _check_values(raw: np.ndarray, k0: int) -> None:
    """Raise naming the first of the parsed rows ``raw``, rows k0+1.. of a
    trace, that breaks a value rule of :func:`read_trace_csv`, with the
    first rule it breaks."""
    n = len(raw)
    ids = np.ascontiguousarray(raw[:, 1:3])  # event_id, action_index; fast to compare
    rules = (  # (what is wrong, first row where it is), checked in this order per row
        ("a value is not finite", first_true_row(~np.isfinite(raw))),
        ("t is not the row number", first_true_row(raw[:, 0] != np.arange(k0 + 1, k0 + n + 1))),
        ("event_id or action_index is not an integer in 0..2**53",
         first_true_row(~((ids >= 0) & (ids <= 2.0 ** 53) & (ids == np.floor(ids))))),
    )
    row, i = min((row, i) for i, (_, row) in enumerate(rules))
    if row < n:
        raise ValueError(f"trace row {k0 + row + 1}: {rules[i][0]}: "
                         f"{','.join(repr(v) for v in raw[row].tolist())}")


def _parsed_block(text: bytes, k0: int, ncol: int) -> np.ndarray | None:
    """:func:`_block_rows` of ``text``, or None if it fails or is not
    ``ncol`` wide."""
    try:
        raw = _block_rows(text, k0)
    except ValueError:
        return None
    return raw if raw.shape[1] == ncol else None


def _read_block(buf: bytes, k0: int, ncol: int) -> np.ndarray:
    """The (rows, ncol) float64 values of the CSV lines ``buf``, rows k0+1..,
    after the checks of :func:`read_trace_csv`; raises naming the first bad
    row."""
    if not buf.lstrip():  # no data, on which numpy warns
        return np.empty((0, ncol))
    raw = _parsed_block(buf, k0, ncol)
    if raw is None:  # numpy skips empty lines but fails on one of whitespace
        lines = [line for line in buf.split(b"\n") if line.strip()]
        raw = _parsed_block(b"\n".join(lines) + b"\n", k0, ncol)
    if raw is None:
        raw = np.empty((len(lines), ncol))
        for row, line in enumerate(lines):  # up to the first bad one, which raises
            columns = line.count(b",") + 1
            stop = f"{columns} columns, not the header's {ncol}" if columns != ncol else ""
            if not stop:
                try:
                    raw[row] = _parse_lines(line)[0]
                except ValueError:
                    stop = "a value does not parse"
            if stop:
                if row:  # a bad value in an earlier row comes first
                    _check_values(raw[:row], k0)
                raise ValueError(f"trace row {k0 + row + 1}: {stop}: "
                                 f"{line.decode('utf-8', 'replace')}")
    _check_values(raw, k0)
    return raw


def read_trace_csv(path: str) -> PathTrace:
    """Rebuild a trace from its CSV form.  The final post-update queue vector
    is reconstructed as max{q + z, 0} of the last row.

    The file is read in blocks of whole lines, into arrays sized by a first
    pass that counts the lines, and within a block each distinct row after
    ``t`` (compared by bytes) is parsed once, by numpy's float parser.  A
    block that does not parse whole, or not to the header's width, is parsed
    once more without its blank lines (numpy fails on a line of whitespace).
    If that fails too, its lines are read one at a time up to the first bad
    one, which raises: up to some 0.2 s more for a 1 MiB block of the server
    trace, paid once, by a file that is rejected.

    Fails closed with a ValueError naming the first bad row (data rows count
    from 1; blank lines, of whitespace only, are skipped and not counted): a
    row whose number of columns differs from the header's, a value that does
    not parse as a number (nothing is a comment), a ``t`` column other than
    1..T, an ``event_id`` or ``action_index`` that is not an integer in
    0..2**53 (beyond which float parsing cannot tell), or any value that is
    not finite.  Queue values are not judged here:
    :func:`verify_trace_dynamics` checks every row of them."""
    size = 16 * TRACE_CSV_BLOCK  # bytes read at a time
    with open(path, "rb") as f:
        first = f.readline()
        first = first.splitlines(keepends=True)[0] if first else b""
        header = first.decode("utf-8").strip()
        ncol = len(header.split(","))
        L = (ncol - 5) // 2
        if trace_csv_header(L) != header:
            raise ValueError(f"unrecognized trace header {header!r}")
        f.seek(len(first))
        n = _count_lines(f, size)
        f.seek(len(first))
        event_ids, action_indices = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        z0, z, q, drift = np.empty(n), np.empty((n, L)), np.empty((n + 1, L)), np.empty(n)
        T = 0
        for buf in _line_blocks(f, size):
            raw = _read_block(buf, T, ncol)
            rows = slice(T, T + len(raw))
            event_ids[rows], action_indices[rows], z0[rows] = raw[:, 1], raw[:, 2], raw[:, 3]
            z[rows], q[rows], drift[rows] = raw[:, 4:4 + L], raw[:, 4 + L:4 + 2 * L], raw[:, -1]
            T += len(raw)
    if not T:
        raise ValueError("trace has no slots")
    with np.errstate(over="ignore"):  # q + z past the largest double reads back as inf
        q[T] = np.maximum(q[T - 1] + z[T - 1], 0.0)
    return PathTrace(event_ids=event_ids[:T], action_indices=action_indices[:T],
                     z0=z0[:T], z=z[:T], q=q[:T + 1], drift=drift[:T])
