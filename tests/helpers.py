"""Shared generators for randomized oracle cross-checks, the reference grid
oracle, the scalar decision rule and the reference KeyFeature loop they are
checked against, unvalidated spec copies for negative controls, bare
constants parameters, the reference trace CSV writer, and trace and tail
helpers that only tests use."""

import copy
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from dpp_lab import (ActionVector, EventOutcome, PathTrace, ProblemSpec,
                     check_trace_laws, pick_actions, wilson_interval)
from dpp_lab.core import norm_sq, trace_csv_header
from dpp_lab.oracle import grid_points_budget

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
    :func:`dpp_lab.compute_constants` depend on, without a whole spec."""
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
