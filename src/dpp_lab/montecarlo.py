"""Batch execution of independent sample paths with online law checking.

A batch's paths run in lockstep: one numpy step per slot, vectorized over
every path of the batch.  Per-path seeds derive from the master seed by a
splittable hash and no path depends on another, so a path's results do not
depend on which other seeds share its batch.  A theorem check's calibration
and validation paths run as one batch, so the engine's fixed per-slot cost
is paid once per theorem.

A decision and every per-slot law input depend only on the queue vector and
the realized event, so a batch runs over a transition table: each new
queue vector is scored once under every event by
:class:`dpp_lab.controller.ScoreTensor`, and each (state, event) entry holds
the slot's output block.  A slot gathers, at each path's entry, only the
rows that it adds: the queue norm and the path sums.  The queue vector's
rows are gathered once, where the batch hands over or ends.  Once new
states come too fast, or a path takes an entry where a law fails, the
batch hands over to scoring every event of every path each slot, the one
loop that reports a violation.  The tensor's float order is the scalar
path engine's, so the engines agree bit for bit on every per-path
quantity, in either phase.

The deterministic per-path laws of :data:`dpp_lab.core.LAWS` (and, for the
KeyFeature check, the exact conditional expectations) hold on every slot up
to float slack only (:attr:`dpp_lab.core.Law.tol`, 1e-9 for the
expectations), or the batch aborts with the offending path's seed and slot
for replay: its earliest violation by slot, then check order (KeyFeature,
then the law table), then path index.  Identities that no input can break
(the minimality of the chosen action, the queue update) are covered by
property tests instead.

Statistical checks compare the Wilson interval of an empirical frequency
against the theoretical bound and fail only when the interval excludes the
bound from above; the strict "Wilson upper at most the bound" comparison is
also recorded for reporting.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

# compute_constants is not called here; perfbench's tracer wraps it by name
from .analysis import (BoundConstants, calibrated_deviation_level,
                       compute_constants, constants_for_horizon,
                       convergence_time_multi, convergence_time_single,
                       g_tail_bound, queue_tail_bound, xtail_bound)
from .controller import ScoreTensor
from .core import LAW_TOL, Law, ProblemSpec, first_true_row, laws_for
from .events import cumulative_probabilities, derive_seeds, event_ids, uniform_across
from .oracle import solve_stationary_optimum

WILSON_Z = 1.96  # 95 percent score interval

ALL_CHECKS = ("KeyFeature", "QueueTail", "XTail", "GTail", "Telescoping",
              "Theorem2", "Theorem3")
_SINGLE_ONLY = {"GTail", "Telescoping", "Theorem3"}
# the KeyFeature laws: a state's expectation (truncated, when the cap clears
# one step) at most 0 up to LAW_TOL
_KF_LAWS = (Law("exact conditional expectation", lambda v: v.expect, lambda v: 0.0),
            Law("exact truncated conditional expectation", lambda v: v.etr, lambda v: 0.0))


class InvariantViolation(Exception):
    """A deterministic per-path law failed.  Carries everything needed to
    replay the offending path in isolation: its seed, the slot, and the
    horizon ``T`` and ``V`` of the run that raised it (a theorem check runs at
    its own horizon with V = 1/epsilon)."""

    def __init__(self, law: str, path_index: int, path_seed: int, slot: int, detail: str,
                 *, T: int, V: float):
        self.law = law
        self.path_index = path_index
        self.path_seed = path_seed
        self.slot = slot
        self.detail = detail
        self.T = T
        self.V = V
        super().__init__(
            f"{law} violated on path {path_index} (seed {path_seed}) at slot {slot}: {detail}")


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Score confidence interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    p = k / n
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = WILSON_Z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# lockstep engine
# ---------------------------------------------------------------------------

@dataclass
class PathStats:
    avg_obj: np.ndarray
    avg_cons: np.ndarray          # (N, L)
    x_final: np.ndarray
    g_final: np.ndarray | None
    max_qnorm: np.ndarray
    tele_gap: np.ndarray | None
    tele_bound: np.ndarray | None
    tele_avg: np.ndarray | None
    final_qnorm: np.ndarray


TABLE_STATES = 1 << 13  # the most queue vectors a batch's table scores
TABLE_BLOCK = 16        # slots per block of the table's hand-over rule


def _decide(tensor: ScoreTensor, at: np.ndarray, ids, c) -> SimpleNamespace:
    """A slot's decision and law inputs for (queue vector, event) pairs: the
    tensor's N queue vectors, whose rows in ``at`` are q_1..q_L, the squared
    norm and the norm, under their events ``ids`` or, with ``ids`` None,
    under every event (W*N pairs, event-major).  ``c`` holds the laws'
    constants and the run's switches.  The result's ``out`` holds the next
    queue vector's rows, as in ``at``, then what the slot adds to the path
    sums: z0, z_1..z_L, dx and, for one constraint, dg and tz.  With
    KeyFeature on, ``expect`` and ``etr`` are the queue vectors' exact
    conditional expectations."""
    L = c.L
    tensor.choose(at[:L], c.chaos)
    v = SimpleNamespace(**vars(c))
    trunc = np.minimum(at[0], c.cap) if L == 1 else None
    if c.key_feature:
        v.expect, v.etr = tensor.expectations(c.z_opt, trunc if c.cap_clears_step else None)
    if ids is None:
        W = tensor.scores.shape[0]
        decision = tensor.every_event()
        at = np.tile(at, W)
        trunc = None if trunc is None else np.tile(trunc, W)
    else:
        decision = tensor.realized(ids)
    z0, *z = decision
    v.out = out = np.empty((2 * L + (6 if L == 1 else 4), len(z0)))
    dot, out[L] = np.zeros(len(z0)), 0.0
    for l, zl in enumerate(z):
        dot += at[l] * zl
        np.maximum(at[l] + zl, 0.0, out=out[l])
        out[L] += out[l] * out[l]
    np.sqrt(out[L], out=out[L + 1])
    out[L + 2:2 * L + 3] = decision
    penalty = c.V * (z0 - c.z_opt)
    v.dx = np.add(penalty, dot, out=out[2 * L + 3])
    if trunc is not None:
        tz = np.multiply(trunc, z[0], out=out[2 * L + 5])
        v.dg = np.add(penalty, tz, out=out[2 * L + 4])
    v.norm_before, v.norm_after, v.nb2, v.na2 = at[L + 1], out[L + 1], at[L], out[L]
    v.drift, v.qz = 0.5 * (out[L] - at[L]), dot
    return v


def _room(a: np.ndarray, n: int) -> np.ndarray:
    """``a``, or a copy of it whose last axis is at least doubled to hold ``n``."""
    if a.shape[-1] >= n:
        return a
    out = np.empty(a.shape[:-1] + (max(n, 2 * a.shape[-1]),), a.dtype)
    out[..., :a.shape[-1]] = a
    return out


class _Table:
    """A batch's transition table, a cache of :func:`_decide`: queue vectors
    numbered as first visited, keyed by their bytes (state 0 is the empty
    queue), and entry s*W + e for state s under event e, filled for all new
    states by one call.

    Rows of ``ev`` (per entry): the slot's ``out``, unchanged; ``nxt`` is
    the next state's first entry s*W (-1 until a path takes the entry).  A
    state owns no rows: ``pending`` holds the input rows of the states
    numbered since the last :meth:`score`, each the first rows of the entry
    that reached it.  Rows of ``bad``: whether one of ``laws`` fails there
    for a running path, and for a stopped one (dy = 0).  ``crossed``: whether
    some scored entry's q_1 is not at or below the cap C0*V."""

    def __init__(self, spec: ProblemSpec, c: SimpleNamespace, laws):
        self.spec, self.c, self.laws, L = spec, c, laws, spec.L
        self.number = {np.zeros(L).tobytes(): 0}
        self.pending = np.zeros((L + 2, 1))  # state 0's
        self.flagged = self.crossed = False
        self.ev = np.zeros((2 * L + (6 if L == 1 else 4), 0))
        self.nxt = np.zeros(0, dtype=np.int64)
        self.bad = np.zeros((2, 0), dtype=bool)

    def resolve(self, ent: np.ndarray) -> np.ndarray:
        """Number the next states of the entries ``ent`` taken for the first
        time, and return every entry's next state."""
        lo, L, W, new = len(self.number), self.spec.L, len(self.spec.events), []
        for e in np.unique(ent[self.nxt.take(ent) < 0]).tolist():
            s = self.number.setdefault(self.ev[:L, e].tobytes(), len(self.number))
            self.nxt[e] = s * W
            if s == lo + len(new):
                new.append(e)
        self.pending = np.concatenate((self.pending, self.ev[:L + 2, new]), axis=1)
        return self.nxt.take(ent)

    def score(self) -> None:
        """Fill the entries of the pending states."""
        n, hi, W = self.pending.shape[1], len(self.number), len(self.spec.events)
        lo = hi - n
        v = _decide(ScoreTensor(self.spec, n), self.pending, None, self.c)
        bad = np.zeros((2, W, n), dtype=bool)
        for flags, dy in zip(bad, (v.dx, np.zeros(W * n))):  # a running path, a stopped one
            v.dy = dy
            for law in self.laws:
                law_bad = law.violations(v)[2]
                if law_bad is not None:
                    flags |= law_bad.reshape(-1, n)  # a KeyFeature law's, per state
        self.flagged |= bool(bad.any())
        self.crossed |= not (v.out[0] <= self.c.cap).all()
        self.ev, self.nxt, self.bad = (_room(a, hi * W) for a in (self.ev, self.nxt, self.bad))
        for a, rows in ((self.ev, v.out), (self.nxt, np.full(W * n, -1)), (self.bad, bad)):
            # event-major pairs into state-major entries
            a[..., lo * W:hi * W] = np.reshape(rows, (-1, W, n)).swapaxes(1, 2).reshape(-1, n * W)
        self.pending = self.pending[:, :0]


def simulate_chunk(spec: ProblemSpec, seeds: np.ndarray, T: int, z_opt: float,
                   constants: BoundConstants, *,
                   chaos: str | None = None, key_feature: bool = False) -> PathStats:
    """Run the paths of ``seeds`` in lockstep, enforcing every deterministic
    per-path law as it goes.  ``seeds`` must be uint64.

    Each slot gives every path an ``out`` block (of :func:`_decide`, or its
    :class:`_Table` entry).  The path adds the sums rows into one
    accumulator and keeps the norm row, and the per-slot loop carries the
    first rows, its queue vector's, to the next slot.  A tabled slot gathers
    the norm and sums rows only; the queue rows are gathered at the last
    slot's entries where the per-slot loop takes over, and q_1 after slot T.
    With one constraint, while no scored entry leaves the cap, every slot
    starts at or below it, so the telescoping visit is recorded once: where
    the first such entry is scored, at the hand-over or after slot T, and
    checked each slot from there.  The states the paths enter are scored
    before the next slot.  The run hands over to deciding each path's slot
    afresh, every event scored, when the entries scored since the start of a
    :data:`TABLE_BLOCK`-slot block would pass half the N paths, or the table
    :data:`TABLE_STATES` states, or when some path takes a flagged entry (a
    stopped-process flag counts while ``max_qnorm <= c1``).  Only that
    per-slot loop checks the laws; a flag comes from the same comparison over
    the same bits, so it raises at the flagged slot.  Both phases give the
    same bits.  The table's arrays stay below 2*TABLE_STATES*W*(16L + 58) +
    N*(8L + 16) bytes, 14 MiB at W = 8, L = 3, N = 10^4.  Besides, peak RSS
    grows by about 250 bytes per path in the table phase (the server
    builtin) and 730 in the per-slot phase (``tests/helpers.non_lattice_spec``),
    measured at 10^4 and 10^5 paths."""
    N = seeds.shape[0]
    cum = cumulative_probabilities(spec)
    L, V, B, W = spec.L, spec.V, spec.B, len(spec.events)
    c1 = constants.c1
    cap = constants.C0 * V
    single = L == 1
    # what the laws read, and the switches of _decide; the truncation
    # argument applies when the cap clears one step
    c = SimpleNamespace(L=L, B=B, c2=constants.c2, V=V, z_max=spec.z_max, C0=constants.C0,
                        z_opt=z_opt, cap=cap, chaos=chaos, key_feature=key_feature,
                        cap_clears_step=single and cap >= B)
    laws = (_KF_LAWS[:1 + c.cap_clears_step] if key_feature else ()) + laws_for(L, final=False)

    sums = np.zeros((L + 4 if single else L + 2, N))  # the sums rows of _decide's out
    max_qnorm = np.zeros(N)

    def enforce(laws, v, t: int) -> None:
        for law in laws:
            lhs, rhs, bad = law.violations(v)  # core.law_problems' rule: NaN fails
            if bad is not None:
                i = first_true_row(bad)
                detail = (f"value {float(lhs[i])!r}" if law in _KF_LAWS else f"{float(lhs[i])!r} "
                          f"exceeds {float(np.broadcast_to(rhs, bad.shape)[i])!r}")
                raise InvariantViolation(law.name, i, int(seeds[i]), t, detail, T=T, V=V)

    table = _Table(spec, c, laws)
    at = np.zeros((L + 2, N))  # each path's queue vector rows, as _decide reads them
    norm = at[L + 1]  # each path's queue norm
    state = ent = np.zeros(N, dtype=np.int64)  # s*W for each path's state s; all start at 0
    # with one constraint, nJ is the last slot in 1..T+1 that starts with
    # q_1 <= C0*V (a visit), s_at_nJ the sum of tz and q1_at_nJ q_1 there;
    # they are first written when a slot might not be one
    every_visit = single
    u = np.empty(N)
    for t in range(1, T + 1):
        # through the module name, which perfbench's tracer patches
        ids = event_ids(cum, uniform_across(seeds, t, out=u))
        np.maximum(max_qnorm, norm, out=max_qnorm)  # a path stops once past c1
        if table is not None:
            if (t - 1) % TABLE_BLOCK == 0:
                scored = 0  # entries scored in this block
            new = table.pending.shape[1]
            scored += W * new
            if new and 2 * scored <= N and len(table.number) <= TABLE_STATES:
                table.score()
            prev, ent = ent, state + ids
            # hand over when this slot's states went unscored or a path takes a flagged entry
            hand_over = table.pending.shape[1] or table.flagged and np.where(
                max_qnorm > c1, table.bad[1].take(ent), table.bad[0].take(ent)).any()
            if t > 1 and (hand_over or every_visit and table.crossed):
                at = table.ev[:L + 2].take(prev, axis=1)  # the queue rows the last slot left
            if hand_over:
                table, tensor = None, ScoreTensor(spec, N)
        if every_visit and (table is None or table.crossed):
            # slots 1..t were visits; from here each slot checks its own
            every_visit = False
            nJ, s_at_nJ, q1_at_nJ = np.full(N, t), sums[L + 3].copy(), at[0].copy()
        if table is None:
            v = _decide(tensor, at, ids, c)
            v.dy = np.where(max_qnorm > c1, 0.0, v.dx)
            enforce(laws, v, t)
            out = v.out
            del v
            at, norm = out[:L + 2], out[L + 1]
            sums += out[L + 2:]
        else:
            state = table.nxt.take(ent)
            if state.min() < 0:
                state = table.resolve(ent)
            rows = table.ev[L + 1:].take(ent, axis=1)  # the norm, then the sums rows
            norm = rows[0]
            sums += rows[1:]
        if single and not every_visit:
            q1 = at[0] if table is None else table.ev[0].take(ent)
            visit = q1 <= cap  # slot t+1 starts at or below the cap
            np.putmask(nJ, visit, t + 1)
            np.putmask(s_at_nJ, visit, sums[L + 3])
            np.putmask(q1_at_nJ, visit, q1)
    if every_visit:  # so is slot T+1
        nJ, s_at_nJ, q1_at_nJ = np.full(N, T + 1), sums[L + 3], table.ev[0].take(ent)

    tele_gap = tele_bound = tele_avg = None
    if single:
        tele_gap = np.abs(s_at_nJ - 0.5 * q1_at_nJ * q1_at_nJ)
        tele_avg = sums[L + 3] / T
        v = SimpleNamespace(**vars(c), nJ=nJ, tele_gap=tele_gap, tele_avg=tele_avg)
        final_laws = laws_for(1, final=True)
        tele_bound = final_laws[0].rhs(v)  # the telescoping partial-sum law
        if c.cap_clears_step:
            enforce(final_laws, v, T)

    return PathStats(
        avg_obj=sums[0] / T,
        avg_cons=np.stack([s / T for s in sums[1:L + 1]], axis=1),
        x_final=sums[L + 1],
        g_final=sums[L + 2] if single else None,
        max_qnorm=max_qnorm,
        tele_gap=tele_gap,
        tele_bound=tele_bound,
        tele_avg=tele_avg,
        final_qnorm=norm,
    )


def simulate_paths(spec: ProblemSpec, seeds: np.ndarray, T: int, z_opt: float,
                   constants: BoundConstants, *, chaos: str | None = None,
                   key_feature: bool = False) -> PathStats:
    """All paths of a batch, path i from ``seeds[i]`` (uint64), in one
    lockstep run, which raises the batch's earliest violation."""
    # a name of its own, called once, as perfbench's tracer patches both by name
    return simulate_chunk(spec, seeds, T, z_opt, constants, chaos=chaos,
                          key_feature=key_feature)


# ---------------------------------------------------------------------------
# batch orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchConfig:
    spec: ProblemSpec
    num_paths: int
    T: int
    master_seed: int
    epsilon: float = 0.1
    delta: float = 0.05
    checks: tuple[str, ...] = ()
    chaos: str | None = None
    queue_tail_levels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_paths < 1:
            raise ValueError("num_paths must be at least 1")
        if self.T < 1:
            raise ValueError("T must be at least 1")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise ValueError(f"unknown check {c!r}; choices: {ALL_CHECKS}")
            if c in _SINGLE_ONLY and self.spec.L != 1:
                raise ValueError(f"check {c} needs a single-constraint problem")
            if c in ("Theorem2", "Theorem3") and not 0.0 < self.epsilon <= 1.0:
                raise ValueError(f"check {c} needs epsilon in (0, 1]; got {self.epsilon!r}")

    @property
    def seeds(self) -> np.ndarray:
        """The path seeds: path i takes substream i of ``master_seed``."""
        return derive_seeds(self.master_seed, 0, self.num_paths)


@dataclass(frozen=True)
class CheckResult:
    name: str
    theoretical_bound: float
    empirical_frequency: float
    wilson_lower: float
    wilson_upper: float
    num_paths: int
    passed: bool
    strict_upper_ok: bool | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


@dataclass(frozen=True)
class BatchSummary:
    spec_digest: str
    master_seed: int
    num_paths: int
    T: int
    epsilon: float
    delta: float
    z_opt: float
    xi_star: float
    xi: float
    constants: BoundConstants
    checks: dict[str, CheckResult]
    objective_quantiles: list[list[float]]
    constraint_violation_quantiles: list[list[float]]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    @property
    def fitted_M(self) -> dict[str, float]:
        """The approximation constant each theorem check fitted."""
        return {name: c.details["fitted_M"] for name, c in self.checks.items()
                if "fitted_M" in c.details}

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["constants"] = self.constants.to_json_dict()
        out["checks"] = {k: v.to_json_dict() for k, v in self.checks.items()}
        out["fitted_M"] = self.fitted_M
        out["all_pass"] = self.all_passed
        out["invariant_violations"] = 0  # a violation raises before any summary exists
        return out


_QUANTS = (0.05, 0.25, 0.5, 0.75, 0.95)


def _quantile_rows(values: np.ndarray) -> list[list[float]]:
    return [[float(q), float(np.quantile(values, q))] for q in _QUANTS]


def _tail_check(name: str, values: np.ndarray, threshold: float, bound: float,
                details: dict | None = None) -> CheckResult:
    n = values.shape[0]
    k = int(np.count_nonzero(values > threshold))
    lo, hi = wilson_interval(k, n)
    vacuous = bound >= 1.0
    return CheckResult(
        name=name, theoretical_bound=float(bound), empirical_frequency=k / n,
        wilson_lower=lo, wilson_upper=hi, num_paths=n,
        passed=bool(vacuous or lo <= bound),
        strict_upper_ok=None if vacuous else bool(hi <= bound),
        details={"threshold": float(threshold), "exceed_count": k,
                 "vacuous": vacuous, **(details or {})},
    )


def _online_check(name: str, n: int, **details) -> CheckResult:
    """A check the engine enforced on every slot of every path: reaching the
    report means no path violated it."""
    return CheckResult(
        name=name, theoretical_bound=0.0, empirical_frequency=0.0,
        wilson_lower=0.0, wilson_upper=wilson_interval(0, n)[1], num_paths=n,
        passed=True, details=details)


def _fit_then_validate(config: BatchConfig, name: str, k: int, z_opt: float,
                       xi: float) -> CheckResult:
    """Fit the hidden approximation constant on the calibration paths (seed
    offset ``k << 32``), then demand the validation pass fraction (offset
    ``(k + 1) << 32``) clears 1 - 2*delta at Wilson-lower confidence.  Both
    sets run as one batch, calibration paths first, so a violation is the
    batch's earliest and its path index counts over both sets."""
    epsilon, delta = config.epsilon, config.delta
    v_spec = config.spec.with_v(1.0 / epsilon)
    if name == "Theorem2":
        horizon = convergence_time_multi(epsilon, delta)
    else:
        probe = constants_for_horizon(v_spec, xi, config.T, delta)
        horizon = convergence_time_single(epsilon, delta, probe)
    cal_paths = max(1, config.num_paths // 3)
    val_paths = max(1, config.num_paths - cal_paths)
    consts = constants_for_horizon(v_spec, xi, horizon, delta)
    seeds = np.concatenate([derive_seeds(config.master_seed, k << 32, cal_paths),
                            derive_seeds(config.master_seed, (k + 1) << 32, val_paths)])
    stats = simulate_paths(v_spec, seeds, horizon, z_opt, consts)
    obj, cons = stats.avg_obj, stats.avg_cons
    margins = np.maximum(obj[:cal_paths] - z_opt, np.max(cons[:cal_paths], axis=1)) / epsilon
    M = float(np.quantile(margins, 0.95))
    if M <= 0.0:
        M = 1e-9  # the guarantee needs a positive constant; calibration beat it
    ok = ((obj[cal_paths:] <= z_opt + M * epsilon)
          & np.all(cons[cal_paths:] <= M * epsilon, axis=1))
    n_ok = int(np.count_nonzero(ok))
    lo, hi = wilson_interval(n_ok, val_paths)
    target = 1.0 - 2.0 * delta
    return CheckResult(
        name=name, theoretical_bound=float(target), empirical_frequency=n_ok / val_paths,
        wilson_lower=lo, wilson_upper=hi, num_paths=val_paths,
        passed=bool(lo >= target),
        details={"fitted_M": M, "horizon": horizon, "V": 1.0 / epsilon,
                 "calibration_paths": cal_paths},
    )


def run_batch(config: BatchConfig) -> BatchSummary:
    """Run the batch and evaluate the requested checks.  Deterministic given
    the config; raises :class:`InvariantViolation` on any per-path law
    failure."""
    spec = config.spec
    sol = solve_stationary_optimum(spec)
    xi = sol.xi
    constants = constants_for_horizon(spec, xi, config.T, config.delta)

    key_feature = "KeyFeature" in config.checks
    stats = simulate_paths(spec, config.seeds, config.T, sol.z_opt, constants,
                           chaos=config.chaos, key_feature=key_feature)

    checks: dict[str, CheckResult] = {}

    if key_feature:
        checks["KeyFeature"] = _online_check("KeyFeature", config.num_paths, tolerance=LAW_TOL)
    if "QueueTail" in config.checks:
        levels = config.queue_tail_levels or (constants.c1,)
        results = [_tail_check("QueueTail", stats.max_qnorm, c1,
                               queue_tail_bound(constants, c1)) for c1 in levels]
        checks["QueueTail"] = replace(
            results[0], passed=all(r.passed for r in results),
            strict_upper_ok=all(r.strict_upper_ok is not False for r in results),
            details={"levels": [{"c1": float(c1), **r.to_json_dict()}
                                for c1, r in zip(levels, results)],
                     "statistic": "max queue norm over slots 1..T"})
    if "XTail" in config.checks:
        lam = calibrated_deviation_level(constants, config.T, config.delta)
        bound = xtail_bound(constants, config.T, lam)
        checks["XTail"] = _tail_check("XTail", stats.x_final, lam, bound,
                                      details={"lambda": lam})
    if "GTail" in config.checks:
        lam = g_tail_bound(constants, config.T, config.delta)
        checks["GTail"] = _tail_check("GTail", stats.g_final, lam, config.delta,
                                      details={"lambda": lam})
    if "Telescoping" in config.checks:
        checks["Telescoping"] = _online_check(
            "Telescoping", config.num_paths,
            max_gap_to_bound=float(np.max(stats.tele_gap - stats.tele_bound)),
            min_avg_truncated_sum=float(np.min(stats.tele_avg)),
            lower_bound=-2.5 * spec.B ** 2)
    for k, name in ((1, "Theorem2"), (3, "Theorem3")):
        if name in config.checks:
            checks[name] = _fit_then_validate(config, name, k, sol.z_opt, xi)

    return BatchSummary(
        spec_digest=spec.digest,
        master_seed=config.master_seed,
        num_paths=config.num_paths,
        T=config.T,
        epsilon=config.epsilon,
        delta=config.delta,
        z_opt=sol.z_opt,
        xi_star=sol.xi_star,
        xi=xi,
        constants=constants,
        checks=checks,
        objective_quantiles=_quantile_rows(stats.avg_obj),
        constraint_violation_quantiles=_quantile_rows(np.max(stats.avg_cons, axis=1)),
    )
