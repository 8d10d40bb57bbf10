"""Test-only code: generators for randomized oracle cross-checks, the
reference grid oracle, the scalar references the engines and the vectorized
RNG are checked against (the decision rule, the exact conditional
expectations, the KeyFeature loop, the squared norm and drift, and the
splitmix64 finalizer, stream and seed rule), the law table evaluated over a
stored trace (``check_trace_laws``, which matches the lockstep engine bit
for bit), unvalidated spec copies for negative controls, specs of fixed
shape (a ragged one, a non-lattice one, one whose drift law is tight), bare
constants parameters, the reference trace CSV writer, and tail helpers."""

import copy
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from dpp_lab.analysis import BoundConstants, convergence_time_multi
from dpp_lab.controller import ScoreTensor, pick_actions
from dpp_lab.core import (ActionVector, EventOutcome, PathTrace, ProblemSpec, law_problems,
                          laws_for, trace_csv_header, trace_law_values)
from dpp_lab.events import _GOLDEN, _MASK64, _STREAM_SALT
from dpp_lab.montecarlo import wilson_interval
from dpp_lab.oracle import StationarySolution, grid_points_budget

# event/action shapes whose joint 1/200 grid stays exhaustively enumerable
_SHAPES = (
    (4,),
    (3,),
    (2,),
    (3, 2),
    (2, 2),
    (2, 2, 2),
)
GRID_BUDGET = 1 << 24


def random_small_instance(rng: np.random.Generator, L: int | None = None,
                          shape: tuple[int, ...] | None = None) -> ProblemSpec:
    """A feasible random instance with at most 3 events, at most 4 actions,
    and at most 2 constraints (or the given number of constraints and
    actions per event).  Action 0 of every event points every constraint
    downward, so a strictly slack stationary policy exists."""
    L = int(rng.integers(1, 3)) if L is None else L
    if shape is None:
        shape = _SHAPES[rng.integers(0, len(_SHAPES))]
    weights = rng.integers(1, 20, size=len(shape)).astype(np.float64)
    # probabilities as exact dyadic-ish ratios of small ints summed via fsum
    probs = weights / math.fsum(weights.tolist())
    probs[-1] = 1.0 - math.fsum(probs[:-1].tolist())
    events = []
    for n_actions, p in zip(shape, probs):
        actions = []
        for k in range(n_actions):
            z0 = float(np.round(rng.uniform(0.0, 1.0), 3))
            if k == 0:
                z = rng.uniform(-1.0, -0.2, size=L)
            else:
                z = rng.uniform(-1.0, 1.0, size=L)
            z = tuple(float(np.round(v, 3)) for v in z)
            actions.append(ActionVector(z0, z))
        events.append(EventOutcome(probability=float(p), actions=tuple(actions)))
    spec = ProblemSpec(events=tuple(events), L=L, z_max=1.0,
                       B=math.sqrt(float(L)), V=1.0)
    assert grid_points_budget(spec, 200) <= GRID_BUDGET
    return spec


def bound_params(z_max: float, B: float, V: float) -> SimpleNamespace:
    """The three problem parameters the constants of
    :func:`dpp_lab.analysis.compute_constants` depend on, without a whole spec."""
    return SimpleNamespace(z_max=z_max, B=B, V=V)


def unchecked_spec(spec: ProblemSpec, **changes) -> ProblemSpec:
    """A copy of ``spec`` with fields overwritten without validation, e.g. a
    declared B or z_max that understates the true bound.  Every cached
    property of the copy (digest, action_table, ...) is recomputed on use."""
    out = copy.copy(spec)
    for name, value in changes.items():
        object.__setattr__(out, name, value)
    for name, attr in vars(ProblemSpec).items():
        if isinstance(attr, cached_property):
            out.__dict__.pop(name, None)
    return out


def tight_step_spec(step: float, V: float) -> ProblemSpec:
    """One constraint, two equally likely events with actions {(0, step),
    (1, -step)} and {(0, 0), (1, -step)}, and B = step.  In exact
    arithmetic the quadratic drift bound holds with equality on every slot
    whose action has ||z|| = B and whose queue stays positive."""
    events = (
        EventOutcome(0.5, (ActionVector(0.0, (step,)), ActionVector(1.0, (-step,)))),
        EventOutcome(0.5, (ActionVector(0.0, (0.0,)), ActionVector(1.0, (-step,)))),
    )
    return ProblemSpec(events=events, L=1, z_max=1.0, B=step, V=V)


# ---------------------------------------------------------------------------
# scalar references for the splitmix64 stream, the seed rule and the queue
# norm.  events.u64_block, uniform_block, uniform_across and derive_seeds,
# and core.row_norm_sq, must reproduce them bit for bit.
# ---------------------------------------------------------------------------

def mix64(x: int) -> int:
    """splitmix64 finalizer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def u64_at(seed: int, n: int) -> int:
    """The n-th 64-bit output of the stream keyed by ``seed``."""
    return mix64((seed + n * _GOLDEN) & _MASK64)


def uniform_at(seed: int, n: int) -> float:
    """Uniform double in [0, 1), pure in (seed, n)."""
    return (u64_at(seed, n) >> 11) * 2.0 ** -53


def derive_seed(master: int, stream_index: int) -> int:
    """Seed for an independent substream (one per Monte Carlo path)."""
    return u64_at(mix64(master ^ _STREAM_SALT), stream_index)


def norm_sq(v) -> float:
    """Squared euclidean norm, summed left to right from zero."""
    acc = 0.0
    for x in v:
        acc += x * x
    return acc


def drift(q_before, q_after) -> float:
    """Half the change of the squared euclidean queue norm across one slot."""
    qb = np.asarray(q_before, dtype=np.float64)
    qa = np.asarray(q_after, dtype=np.float64)
    if qb.shape != qa.shape:
        raise ValueError(f"dimension mismatch: {qb.shape} vs {qa.shape}")
    return 0.5 * (norm_sq(qa.tolist()) - norm_sq(qb.tolist()))


# ---------------------------------------------------------------------------
# reference grid oracle: combinations for the simplex grid, divmod-decoded
# flat indices for the joint grid.  The package's broadcast implementation
# must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def reference_simplex_grid(n_actions: int, resolution: int) -> np.ndarray:
    if n_actions == 1:
        return np.ones((1, 1))
    combos = np.array(
        list(itertools.combinations(range(resolution + n_actions - 1), n_actions - 1)),
        dtype=np.int64,
    )
    bounds = np.empty((combos.shape[0], n_actions + 1), dtype=np.int64)
    bounds[:, 0] = -1
    bounds[:, 1:-1] = combos
    bounds[:, -1] = resolution + n_actions - 1
    counts = np.diff(bounds, axis=1) - 1
    return counts / float(resolution)


def reference_grid_chunks(spec: ProblemSpec, resolution: int, chunk: int = 1 << 20):
    contribs = []
    for e in spec.events:
        vals = np.empty((len(e.actions), spec.L + 1))
        for k, a in enumerate(e.actions):
            vals[k, 0] = a.z0
            vals[k, 1:] = a.z
        grid = reference_simplex_grid(len(e.actions), resolution)
        contribs.append(e.probability * (grid @ vals))
    sizes = [c.shape[0] for c in contribs]
    total = 1
    for s in sizes:
        total *= s
    for lo in range(0, total, chunk):
        idx = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        acc = np.zeros((idx.shape[0], spec.L + 1))
        rem = idx
        for c, size in zip(contribs, sizes):
            rem, sub = np.divmod(rem, size)
            acc += c[sub]
        yield acc


def reference_grid_stationary_optimum(spec: ProblemSpec, resolution: int) -> float | None:
    best = None
    for acc in reference_grid_chunks(spec, resolution):
        feas = np.all(acc[:, 1:] <= 1e-12, axis=1)
        if np.any(feas):
            m = float(np.min(acc[feas, 0]))
            best = m if best is None else min(best, m)
    return best


def reference_grid_max_slackness(spec: ProblemSpec, resolution: int) -> float:
    best = -np.inf
    for acc in reference_grid_chunks(spec, resolution):
        slack = np.min(-acc[:, 1:], axis=1)
        best = max(best, float(np.max(slack)))
    return best


def ragged_spec() -> ProblemSpec:
    """One constraint, two events with one and three actions, so the padded
    (event, action) tables have a padding entry."""
    events = (
        EventOutcome(0.25, (ActionVector(0.2, (-0.5,)),)),
        EventOutcome(0.75, (ActionVector(0.0, (0.9,)),
                            ActionVector(0.6, (-1.0,)),
                            ActionVector(1.0, (0.0,)))),
    )
    return ProblemSpec(events=events, L=1, z_max=1.0, B=1.0, V=5.0)


def non_lattice_spec() -> ProblemSpec:
    """Three constraints, four equally likely events of three actions with
    unrounded random z0 ~ U(0, 1) and z (action 0's in U(-1, -0.2)^3, the
    others' in U(-1, 1)^3), from ``default_rng(0)``, at V=100: the queue
    vectors of a path almost never repeat, so ``run_path``'s table almost
    never hits."""
    rng = np.random.default_rng(0)
    events = tuple(
        EventOutcome(0.25, tuple(
            ActionVector(float(rng.uniform(0.0, 1.0)),
                         tuple(rng.uniform(-1.0, -0.2 if k == 0 else 1.0, size=3).tolist()))
            for k in range(3)))
        for _ in range(4))
    return ProblemSpec(events=events, L=3, z_max=1.0, B=math.sqrt(3.0), V=100.0)


# ---------------------------------------------------------------------------
# the scalar decision rule, one action at a time in the pinned float order
# (V*z0, then += q[l]*z[l] for l ascending).  The package's score tensor and
# run_path's loop must reproduce it bit for bit.
# ---------------------------------------------------------------------------

def action_score(q, action: ActionVector, V: float) -> float:
    """The quantity minimized each slot: V*z0 plus the queue-weighted sum of
    constraint increments."""
    acc = V * action.z0
    for l, zl in enumerate(action.z):
        acc += q[l] * zl
    return acc


def select_action(q, event: EventOutcome, V: float) -> tuple[int, float]:
    """Index and score of the minimizing action; exact score ties go to the
    lowest index."""
    best_k = 0
    best = action_score(q, event.actions[0], V)
    for k in range(1, len(event.actions)):
        v = action_score(q, event.actions[k], V)
        if v < best:
            best, best_k = v, k
    return best_k, best


def reference_dpp_expectation(spec: ProblemSpec, q, z_opt: float) -> float:
    """The exact conditional expectation, event by event from zero, with
    each event's action from :func:`select_action`."""
    acc = 0.0
    for e in spec.events:
        _, score = select_action(q, e, spec.V)
        acc += e.probability * (score - spec.V * z_opt)
    return acc


def reference_truncated_expectation(spec: ProblemSpec, q1: float, z_opt: float,
                                    cap: float) -> float:
    """Its truncated single-constraint counterpart."""
    w = min(q1, cap)
    acc = 0.0
    for e in spec.events:
        a = e.actions[select_action([q1], e, spec.V)[0]]
        acc += e.probability * (spec.V * (a.z0 - z_opt) + w * a.z[0])
    return acc


# ---------------------------------------------------------------------------
# exact conditional one-step expectations of the controller's rule, by
# enumerating the event support through the lockstep engine's scorer
# ---------------------------------------------------------------------------

def _scored(spec: ProblemSpec, q, z_opt: float) -> ScoreTensor:
    """A one-state :class:`ScoreTensor` that has scored the queue vector q
    under the honest rule; bad inputs raise ValueError."""
    q = [float(v) for v in q]
    if len(q) != spec.L:
        raise ValueError("queue dimension does not match spec")
    if not all(0.0 <= v < math.inf for v in q):
        raise ValueError(f"queue vector {q!r} must be nonnegative and finite")
    if not math.isfinite(z_opt):
        raise ValueError(f"z_opt must be finite, got {z_opt!r}")
    tensor = ScoreTensor(spec, 1)
    tensor.choose(q, None)
    return tensor


def exact_conditional_dpp_expectation(spec: ProblemSpec, q, z_opt: float) -> float:
    """Exact expectation, over the event distribution, of
    V*(z0 - z_opt) + sum_l q[l] * z_l at the controller's own choice.

    The decision rule never sees probabilities; they enter only here, in the
    enumeration.  A correct controller keeps this nonpositive for every
    nonnegative q.
    """
    return float(_scored(spec, q, z_opt).expectations(z_opt, None)[0][0])


def exact_conditional_truncated_expectation(spec: ProblemSpec, q1: float,
                                            z_opt: float, cap: float) -> float:
    """Single-constraint variant with the queue weight clipped at ``cap``:
    expectation of V*(z0 - z_opt) + min(q1, cap) * z_1 at the controller's
    (unclipped) choice."""
    if spec.L != 1:
        raise ValueError("truncated expectation is defined for one constraint")
    if not cap >= 0.0:
        raise ValueError(f"cap must be nonnegative, got {cap!r}")
    tensor = _scored(spec, [q1], z_opt)
    return float(tensor.expectations(z_opt, np.array([min(float(q1), cap)]))[1][0])


def option_marginals(sol: StationarySolution, spec: ProblemSpec) -> np.ndarray:
    """Event-averaged probability of each action index under the stationary
    policy of ``sol`` (padded by zeros for events with fewer actions)."""
    out = np.zeros(spec.max_actions)
    for e, row in zip(spec.events, sol.policy):
        for k, p in enumerate(row):
            out[k] += e.probability * p
    return out


# ---------------------------------------------------------------------------
# reference KeyFeature expectations: each event scored and chosen on its own
# (N, K) row.  The lockstep engine's single score tensor must reproduce them
# bit for bit.
# ---------------------------------------------------------------------------

def reference_kf_expectations(spec: ProblemSpec, q: list, z_opt: float,
                              trunc: np.ndarray | None, chaos: str | None = None):
    """(expect, etr) over the paths whose queues are ``q`` (one (N,) array
    per constraint); etr is None when ``trunc`` is."""
    V, K, N = spec.V, spec.max_actions, q[0].shape[0]
    rows = np.arange(N)
    expect = np.zeros(N)
    etr = None if trunc is None else np.zeros(N)
    for e in spec.events:
        vz0 = np.full(K, np.inf)
        z0 = np.full(K, np.inf)
        z = np.zeros((spec.L, K))
        for k, a in enumerate(e.actions):
            vz0[k], z0[k] = V * a.z0, a.z0
            z[:, k] = a.z
        ev_scores = np.broadcast_to(vz0, (N, K)).copy()
        for l in range(spec.L):
            ev_scores += q[l][:, None] * z[l][None, :]
        kw = pick_actions(ev_scores, chaos)
        expect += e.probability * (ev_scores[rows, kw] - V * z_opt)
        if trunc is not None:
            etr += e.probability * (V * (z0[kw] - z_opt) + trunc * z[0][kw])
    return expect, etr


# ---------------------------------------------------------------------------
# the law table over a stored trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LawReport:
    """The law table evaluated over the slots of one stored trace.

    ``problems`` maps every violated law, in table order, to messages for
    its first five failing slots.  ``x_final``, ``y_final`` and ``g_final``
    are X, the stopped process Y and (one constraint only, else None) the
    truncated process G at the horizon.  ``nJ`` (the last slot in 1..T+1
    whose queue value lies in [0, C0*V]), ``tele_gap`` and ``tele_avg`` are
    the telescoping quantities; they are None unless the trace has one
    constraint and C0*V >= B.  Every value is computed in the lockstep
    engine's float order, so it equals the engine's bit for bit.
    """

    problems: dict[str, list[str]]
    x_final: float
    y_final: float
    g_final: float | None = None
    nJ: int | None = None
    tele_gap: float | None = None
    tele_avg: float | None = None

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(self.problems)


def _partial_sums(a: np.ndarray) -> np.ndarray:
    """Sums of the first 0, 1, ..., len(a) entries of ``a``, added left to
    right from zero as the engine accumulates them."""
    return np.cumsum(np.concatenate(([0.0], a)))


def check_trace_laws(trace: PathTrace, z_opt: float, constants: BoundConstants) -> LawReport:
    """Evaluate every law of :data:`dpp_lab.core.LAWS` that applies to the
    trace, reporting all violations rather than stopping at the first.

    dX is V*(z0 - z_opt) + q.z; the stopped process stops changing from the
    first slot whose starting queue norm exceeds c1.  With one constraint, dG
    clips the queue weight at C0*V.
    """
    V = constants.V
    v = trace_law_values(trace)
    vars(v).update(B=constants.B, c2=constants.c2, V=V, z_max=constants.z_max,
                   C0=constants.C0)
    penalty = V * (trace.z0 - z_opt)
    dx = penalty + v.qz
    stopped = np.logical_or.accumulate(v.norm_before > constants.c1)
    v.dy = np.where(stopped, 0.0, dx)
    laws = laws_for(trace.L, final=False)
    out: dict = {"x_final": float(_partial_sums(dx)[-1]),
                 "y_final": float(_partial_sums(v.dy)[-1])}
    if trace.L == 1:
        cap = constants.C0 * V
        q1 = trace.q[:, 0]
        terms = np.minimum(q1[:-1], cap) * trace.z[:, 0]
        v.dg = penalty + terms
        out["g_final"] = float(_partial_sums(v.dg)[-1])
        if cap >= constants.B:  # the telescoping laws assume the cap clears one step
            partial = _partial_sums(terms)  # before slots 1..T+1
            visits = np.nonzero(q1 <= cap)[0]
            nJ = int(visits[-1]) + 1 if visits.size else 1
            q_nJ = float(q1[nJ - 1])
            tele = {"nJ": nJ,
                    "tele_gap": abs(float(partial[nJ - 1]) - 0.5 * q_nJ * q_nJ),
                    "tele_avg": float(partial[-1]) / trace.T}
            vars(v).update(tele)
            out.update(tele)
            laws += laws_for(1, final=True)
    return LawReport(law_problems(laws, v, trace.T), **out)


# ---------------------------------------------------------------------------
# the multi-constraint deviation level at the multi-constraint horizon
# ---------------------------------------------------------------------------

def deviation_over_horizon(constants: BoundConstants, T: int, delta: float) -> float:
    """The multi-constraint per-slot deviation level
    C * max{ln T * ln^(1/2)(2/delta), ln^(3/2)(2/delta)} / sqrt(T)."""
    ld = math.log(2.0 / delta)
    num = max(math.log(T) * math.sqrt(ld), ld ** 1.5)
    return constants.C * num / math.sqrt(T)


def chained_deviation_check(constants: BoundConstants, epsilon: float, delta: float,
                            rel_tol: float = 1e-9) -> tuple[float, float, bool]:
    """Substituting the multi-constraint horizon into the deviation level must
    come out at most 6*C*epsilon.  Returns (lhs, rhs, ok)."""
    T = convergence_time_multi(epsilon, delta)
    lhs = deviation_over_horizon(constants, T, delta)
    rhs = 6.0 * constants.C * epsilon
    return lhs, rhs, lhs <= rhs * (1.0 + rel_tol)


# ---------------------------------------------------------------------------
# traces and tails for tests
# ---------------------------------------------------------------------------

def reference_write_trace_csv(trace: PathTrace, path: str) -> None:
    """The trace CSV writer with one ``repr`` per float, row by row; the
    package's block writer must reproduce its output byte for byte."""
    L = trace.L
    ev = trace.event_ids.tolist()
    ai = trace.action_indices.tolist()
    z0 = trace.z0.tolist()
    z = trace.z.tolist()
    qb = trace.q_before.tolist()
    dr = trace.drift.tolist()
    with open(path, "w", encoding="utf-8") as f:
        f.write(trace_csv_header(L) + "\n")
        out: list[str] = []
        for i in range(trace.T):
            row = [str(i + 1), str(ev[i]), str(ai[i]), repr(z0[i])]
            row.extend(repr(v) for v in z[i])
            row.extend(repr(v) for v in qb[i])
            row.append(repr(dr[i]))
            out.append(",".join(row))
            if len(out) >= 65536:
                f.write("\n".join(out) + "\n")
                out.clear()
        if out:
            f.write("\n".join(out) + "\n")


def build_trace_from_z(z0, z_rows) -> PathTrace:
    """Assemble a dynamics-consistent trace directly from an increment
    sequence; event and action columns are filled with zeros."""
    z_arr = np.asarray(list(z_rows), dtype=np.float64)
    z0_arr = np.asarray(list(z0), dtype=np.float64)
    if z_arr.ndim == 1:
        z_arr = z_arr.reshape(0, 1)
    T, L = z_arr.shape
    q = np.zeros((T + 1, L), dtype=np.float64)
    dr = np.zeros(T, dtype=np.float64)
    for i in range(T):
        q[i + 1] = np.maximum(q[i] + z_arr[i], 0.0)
        dr[i] = 0.5 * (norm_sq(q[i + 1].tolist()) - norm_sq(q[i].tolist()))
    return PathTrace(np.zeros(T, dtype=np.int64), np.zeros(T, dtype=np.int64),
                     z0_arr, z_arr, q, dr)


@dataclass(frozen=True)
class TailEstimate:
    frequency: float
    wilson_lower: float
    wilson_upper: float
    exceed_count: int
    num_paths: int


def empirical_tail(traces, statistic: str, threshold: float, *,
                   z_opt: float | None = None, constants=None) -> TailEstimate:
    """Fraction of traces whose statistic exceeds the threshold, with its
    95 percent Wilson interval.

    ``statistic``: "XT" (final cumulative deviation process), "GT" (final
    truncated process, single constraint only), or "QueueNormMax" (largest
    queue norm over slots 1..T).
    """
    traces = list(traces)
    if len(traces) < 30:
        raise ValueError("need at least 30 traces for a tail estimate")
    values = []
    for tr in traces:
        if statistic == "QueueNormMax":
            qb = tr.q_before
            values.append(float(np.max(np.sqrt(np.einsum("ij,ij->i", qb, qb)))))
        elif statistic in ("XT", "GT"):
            if z_opt is None or constants is None:
                raise ValueError(f"{statistic} needs z_opt and constants")
            rep = check_trace_laws(tr, z_opt, constants)
            if statistic == "XT":
                values.append(rep.x_final)
            else:
                if rep.g_final is None:
                    raise ValueError("GT is defined only for single-constraint traces")
                values.append(rep.g_final)
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
    k = sum(1 for v in values if v > threshold)
    n = len(values)
    lo, hi = wilson_interval(k, n)
    return TailEstimate(k / n, lo, hi, k, n)


def reference_read_trace_csv(path: str) -> PathTrace:
    """The trace CSV reader's contract, one line at a time: the package's
    block reader must return the same arrays, or raise the same message.
    Lines end with "\\n", "\\r\\n" or "\\r"; blank lines (whitespace
    only) are skipped and not counted; each row is checked in this order:
    column count, parse (numpy's float parser, no comments), finiteness,
    ``t``, the two ids."""
    with open(path, "rb") as f:
        lines = f.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    header = lines[0].decode("utf-8").strip()
    ncol = len(header.split(","))
    L = (ncol - 5) // 2
    if trace_csv_header(L) != header:
        raise ValueError(f"unrecognized trace header {header!r}")
    rows = []
    for i, line in enumerate((line for line in lines[1:] if line.strip(b" \t\v\f")), 1):
        text = line.decode("utf-8", "replace")
        if len(line.split(b",")) != ncol:
            raise ValueError(f"trace row {i}: {len(line.split(b','))} columns, not the "
                             f"header's {ncol}: {text}")
        try:
            row = np.loadtxt([line.decode("utf-8")], delimiter=",", comments=None, ndmin=2)[0]
        except ValueError:
            raise ValueError(f"trace row {i}: a value does not parse: {text}") from None
        ids = row[1:3]
        for bad, what in ((not np.isfinite(row).all(), "a value is not finite"),
                          (row[0] != i, "t is not the row number"),
                          (not ((ids >= 0) & (ids <= 2.0 ** 53) & (ids == np.floor(ids))).all(),
                           "event_id or action_index is not an integer in 0..2**53")):
            if bad:
                raise ValueError(f"trace row {i}: {what}: "
                                 f"{','.join(repr(v) for v in row.tolist())}")
        rows.append(row)
    if not rows:
        raise ValueError("trace has no slots")
    raw = np.array(rows)
    q = np.empty((len(raw) + 1, L))
    q[:-1] = raw[:, 4 + L:4 + 2 * L]
    q[-1] = np.maximum(q[-2] + raw[-1, 4:4 + L], 0.0)
    return PathTrace(raw[:, 1].astype(np.int64), raw[:, 2].astype(np.int64), raw[:, 3].copy(),
                     raw[:, 4:4 + L].copy(), q, raw[:, -1].copy())
