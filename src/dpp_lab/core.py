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
import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

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
    # max{u,0} == (u + |u|)/2 exactly in IEEE arithmetic; this recomputation
    # is independent of how the trace was produced.
    u = qb + z
    expect = (u + np.abs(u)) / 2.0
    bad = np.nonzero(~np.all(qa == expect, axis=1))[0]
    for i in bad[:5]:
        problems.append(f"slot {i + 1}: queue update not exact")
    if np.any(trace.q < 0.0):
        problems.append("negative queue component")
    v = trace_law_values(trace)
    bad = np.nonzero(~(np.abs(0.5 * (v.na2 - v.nb2) - trace.drift) <= LAW_TOL))[0]
    for i in bad[:5]:
        problems.append(f"slot {i + 1}: stored drift differs from recomputed value")
    v.B = B
    for name, msgs in law_problems(DYNAMICS_LAWS, v, trace.T).items():
        problems.extend(f"{name}: {m}" for m in msgs)
    return problems


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def trace_csv_header(L: int) -> str:
    zcols = ",".join(f"z_{l}" for l in range(1, L + 1))
    qcols = ",".join(f"q_{l}" for l in range(1, L + 1))
    return f"t,event_id,action_index,z0,{zcols},{qcols},drift"


TRACE_CSV_BLOCK = 65536  # rows rendered and written at a time


def _text_rows(values: np.ndarray) -> list[list[str]]:
    """``repr`` of every entry of a 2-D int64 or float64 array, row by row,
    with ``repr`` called once per distinct bit pattern of each row (a
    column of the trace).  Keying on bits, not values, keeps 0.0 and -0.0
    (equal, but printed differently) apart."""
    out = []
    for row in values:
        distinct, inv = np.unique(row.view(np.uint64), return_inverse=True)
        text = np.array([repr(v) for v in distinct.view(values.dtype).tolist()], dtype=object)
        out.append(text[inv].tolist())
    return out


def write_trace_csv(trace: PathTrace, path: str) -> None:
    """One row per slot; queue columns hold the vector at the start of the
    slot.  Floats use shortest round-trip decimals.  Rows are rendered a
    block at a time, each distinct number of a column's block once."""
    T = trace.T
    with open(path, "w", encoding="utf-8") as f:
        f.write(trace_csv_header(trace.L) + "\n")
        for lo in range(0, T, TRACE_CSV_BLOCK):
            hi = min(lo + TRACE_CSV_BLOCK, T)
            cols = [map(str, range(lo + 1, hi + 1))]
            cols.extend(_text_rows(np.vstack((trace.event_ids[lo:hi],
                                              trace.action_indices[lo:hi]),
                                             dtype=np.int64)))
            # z0, each z_l, each q_l at the start of the slot, drift
            cols.extend(_text_rows(np.vstack((trace.z0[lo:hi], trace.z[lo:hi].T,
                                              trace.q[lo:hi].T, trace.drift[lo:hi]),
                                             dtype=np.float64)))
            f.write("\n".join(map(",".join, zip(*cols))) + "\n")


def first_true_row(bad: np.ndarray) -> int:
    """First row of a C-contiguous boolean array that holds a True, or its
    length if none does; ``argmax`` stops at the first True."""
    i = int(bad.argmax())
    return i // (bad.size // len(bad)) if bad.flat[i] else len(bad)


def read_trace_csv(path: str) -> PathTrace:
    """Rebuild a trace from its CSV form.  The final post-update queue vector
    is reconstructed as max{q + z, 0} of the last row.

    Fails closed with a ValueError naming the first bad row (data rows count
    from 1; numpy skips blank lines, so they are not counted): a ``t`` column
    other than 1..T, an ``event_id`` or ``action_index`` that is not an
    integer in 0..2**53 (beyond which float parsing cannot tell), or any
    value that is not finite.  Queue values are not judged here:
    :func:`verify_trace_dynamics` checks every row of them."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        ncol = len(header.split(","))
        L = (ncol - 5) // 2
        if trace_csv_header(L) != header:
            raise ValueError(f"unrecognized trace header {header!r}")
        start = f.tell()
        if not f.readline().strip():
            raise ValueError("trace has no slots")
        f.seek(start)
        raw = np.loadtxt(f, delimiter=",", dtype=np.float64, ndmin=2)
    T = raw.shape[0]
    ids = np.ascontiguousarray(raw[:, 1:3])  # event_id, action_index
    rules = (  # (what is wrong, first row where it is), checked in this order per row
        ("a value is not finite", first_true_row(~np.isfinite(raw))),
        ("t is not the row number", first_true_row(raw[:, 0] != np.arange(1, T + 1))),
        ("event_id or action_index is not an integer in 0..2**53",
         first_true_row(~((ids >= 0) & (ids <= 2.0 ** 53) & (ids == np.floor(ids))))),
    )
    row, i = min((row, i) for i, (_, row) in enumerate(rules))
    if row < T:
        raise ValueError(f"trace row {row + 1}: {rules[i][0]}: "
                         f"{','.join(repr(v) for v in raw[row].tolist())}")
    event_ids, action_indices = (ids[:, c].astype(np.int64) for c in (0, 1))
    del ids  # so that the reader's peak stays raw plus the trace
    z = raw[:, 4:4 + L]
    qb = raw[:, 4 + L:4 + 2 * L]
    q = np.empty((T + 1, L), dtype=np.float64)
    q[:T] = qb
    q[T] = np.maximum(qb[T - 1] + z[T - 1], 0.0)
    return PathTrace(
        event_ids=event_ids,
        action_indices=action_indices,
        z0=raw[:, 3].copy(),
        z=z.copy(),
        q=q,
        drift=raw[:, -1].copy(),
    )
