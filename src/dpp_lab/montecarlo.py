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
:class:`dpp_lab.controller.ScoreTensor`, and a slot gathers each path's
(state, event) entry.  Once new states come too fast, the batch hands over
to scoring every event of every path each slot.  The tensor's float order
is the scalar path engine's, so the engines agree bit for bit on every
per-path quantity, in either phase.

The deterministic per-path laws of :data:`dpp_lab.core.LAWS` (and, for the
KeyFeature check, the exact conditional expectations) hold on every slot up
to float slack only (:attr:`dpp_lab.core.Law.tol`, 1e-9 for the
expectations), or the batch aborts with the offending path's seed and slot
for replay: its earliest violation by slot, then check order (KeyFeature,
then the law table), then path index.  Identities that no input can break
(the minimality of the chosen action, the queue update, the stopped process
agreeing with the unstopped one until the stop) are covered by property
tests instead.

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
from .core import LAW_TOL, ProblemSpec, first_true_row, laws_for, row_norm_sq
from .events import cumulative_probabilities, derive_seeds, event_ids, uniform_across
from .oracle import solve_stationary_optimum

WILSON_Z = 1.96  # 95 percent score interval

ALL_CHECKS = ("KeyFeature", "QueueTail", "XTail", "GTail", "Telescoping",
              "Theorem2", "Theorem3")
_SINGLE_ONLY = {"GTail", "Telescoping", "Theorem3"}
_KF_LAWS = ("exact conditional expectation",
            "exact truncated conditional expectation")


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
class ChunkStats:
    avg_obj: np.ndarray
    avg_cons: np.ndarray          # (N, L)
    x_final: np.ndarray
    y_final: np.ndarray
    g_final: np.ndarray | None
    max_qnorm: np.ndarray
    tele_gap: np.ndarray | None
    tele_bound: np.ndarray | None
    tele_avg: np.ndarray | None
    final_qnorm: np.ndarray


TABLE_STATES = 1 << 13  # the most queue vectors a batch's table scores
TABLE_BLOCK = 16        # slots per block of the table's hand-over rule


def _decide(tensor: ScoreTensor, q, nb2, norm, ids, c) -> SimpleNamespace:
    """A slot's decision and law inputs for (queue vector, event) pairs: the
    tensor's N queue vectors ``q`` (an array per constraint; squared norms
    ``nb2``, norms ``norm``) under their events ``ids`` or, with ``ids``
    None, under every event (W*N pairs, event-major).  ``c`` holds the laws'
    constants and the run's switches.  The result's ``q`` is the next queue
    vector; with KeyFeature on, ``expect`` and ``etr`` are the queue
    vectors' exact conditional expectations."""
    tensor.choose(q, c.chaos)
    v = SimpleNamespace(**vars(c))
    trunc = np.minimum(q[0], c.cap) if c.L == 1 else None
    if c.key_feature:
        v.expect, v.etr = tensor.expectations(c.z_opt, trunc if c.trunc_kf else None)
    if ids is None:
        W = tensor.scores.shape[0]
        z0, *z = tensor.every_event()
        q, nb2, norm = [np.tile(ql, W) for ql in q], np.tile(nb2, W), np.tile(norm, W)
        trunc = None if trunc is None else np.tile(trunc, W)
    else:
        z0, *z = tensor.realized(ids)
    dot, na2, v.q = np.zeros(len(z0)), np.zeros(len(z0)), []
    for ql, zl in zip(q, z):
        dot += ql * zl
        v.q.append(np.maximum(ql + zl, 0.0))
        na2 += v.q[-1] * v.q[-1]
    penalty = c.V * (z0 - c.z_opt)
    v.z0, v.z, v.dx = z0, z, penalty + dot
    v.norm_before, v.norm_after = norm, np.sqrt(na2)
    v.nb2, v.na2, v.drift, v.qz = nb2, na2, 0.5 * (na2 - nb2), dot
    if trunc is not None:
        v.tz = trunc * z[0]
        v.dg = penalty + v.tz
    return v


def _room(a: np.ndarray, n: int) -> np.ndarray:
    """``a``, or a copy of it whose last axis is at least doubled to hold ``n``."""
    if a.shape[-1] >= n:
        return a
    out = np.empty(a.shape[:-1] + (max(n, 2 * a.shape[-1]),), a.dtype)
    out[..., :a.shape[-1]] = a
    return out


class _Table:
    """A batch's transition table: queue vectors numbered as first visited,
    keyed by their bytes (state 0 is the empty queue), and entry s*W + e for
    state s under event e, filled for new states by one :func:`_decide`.

    Rows of ``st`` (per state): norm, squared norm, the two KeyFeature
    expectations, q_1..q_L.  Rows of ``ev`` (per entry): the next queue
    vector, q.z, drift, z0, z_1..z_L, dx and, for one constraint, dg and tz;
    ``nxt`` is the next state (-1 until a path takes the entry).  Rows of
    ``bad``: whether a slot law or the state's KeyFeature expectation fails
    there for a running path, and for a stopped one (dy = 0)."""

    def __init__(self, spec: ProblemSpec, c: SimpleNamespace, laws):
        self.spec, self.c, self.laws, L = spec, c, laws, spec.L
        self.number = {np.zeros(L).tobytes(): 0}
        self.n_scored = 0
        self.flagged = False
        self.st = np.zeros((4 + L, 1))
        self.ev = np.zeros((2 * L + (6 if L == 1 else 4), 0))
        self.nxt = np.zeros(0, dtype=np.int64)
        self.bad = np.zeros((2, 0), dtype=bool)

    def resolve(self, ent: np.ndarray) -> np.ndarray:
        """Number the next states of the entries ``ent`` taken for the first
        time, and return every entry's next state."""
        lo, L, new = len(self.number), self.spec.L, []
        for e in np.unique(ent[self.nxt.take(ent) < 0]).tolist():
            self.nxt[e] = s = self.number.setdefault(self.ev[:L, e].tobytes(), len(self.number))
            if s == lo + len(new):
                new.append(e)
        self.st = _room(self.st, lo + len(new))
        st = self.st[:, lo:lo + len(new)]
        st[4:] = self.ev[:L, new]
        st[1] = row_norm_sq(st[4:].T)
        st[0] = np.sqrt(st[1])
        return self.nxt.take(ent)

    def score(self) -> None:
        """Fill the entries of every state not yet scored."""
        lo, hi, W, c = self.n_scored, len(self.number), len(self.spec.events), self.c
        st, n = self.st[:, lo:hi], hi - lo
        v = _decide(ScoreTensor(self.spec, n), list(st[4:]), st[1], st[0], None, c)
        kf_bad = np.zeros(n, dtype=bool)
        if c.key_feature:
            for row, value in zip((2, 3), (v.expect, v.etr)):
                if value is not None:
                    st[row] = value
                    kf_bad |= ~(value <= LAW_TOL)
        bad = np.zeros((2, W * n), dtype=bool)
        for flags, dy in zip(bad, (v.dx, np.zeros(W * n))):  # a running path, a stopped one
            v.dy = dy
            for law in self.laws:
                law_bad = law.violations(v)[2]
                if law_bad is not None:
                    flags |= law_bad
        self.flagged |= bool(bad.any() or kf_bad.any())
        self.ev, self.nxt, self.bad = (_room(a, hi * W) for a in (self.ev, self.nxt, self.bad))
        for a, rows in ((self.ev, (*v.q, v.qz, v.drift, v.z0, *v.z, v.dx,
                                   *((v.dg, v.tz) if c.L == 1 else ()))),
                        (self.nxt, np.full(W * n, -1)),
                        (self.bad, bad.reshape(2, W, n) | kf_bad)):
            # event-major pairs into state-major entries
            a[..., lo * W:hi * W] = np.reshape(rows, (-1, W, n)).swapaxes(1, 2).reshape(-1, n * W)
        self.n_scored = hi


def simulate_chunk(spec: ProblemSpec, seeds: np.ndarray, T: int, z_opt: float,
                   constants: BoundConstants, *,
                   chaos: str | None = None, key_feature: bool = False) -> ChunkStats:
    """Run the paths of ``seeds`` in lockstep, enforcing every deterministic
    per-path law as it goes.  ``seeds`` must be uint64.

    Each slot adds every path's :class:`_Table` entry to the path's sums,
    and evaluates the laws only when some path takes a flagged entry (a
    stopped-process flag counts while ``max_qnorm <= c1``).  The states the
    paths enter are scored before the next slot, unless the entries scored
    since the start of a :data:`TABLE_BLOCK`-slot block would pass half the
    N paths, or the table :data:`TABLE_STATES` states: the run then hands
    over, from the paths' queue vectors, to deciding each path's slot
    afresh, every event scored.  Both phases give the same bits.  The
    table's arrays stay below 2*(TABLE_STATES*W*(16L + 58) + (TABLE_STATES
    + N)*(8L + 32)) bytes, 15 MiB at W = 8, L = 3, N = 10^4.  Besides, peak
    RSS grows by about 220 bytes per path in the table phase (the server
    builtin) and 700 in the per-slot phase (``tests/helpers.non_lattice_spec``),
    measured at 10^4 and 10^5 paths."""
    N = seeds.shape[0]
    cum = cumulative_probabilities(spec)
    L, V, B, W = spec.L, spec.V, spec.B, len(spec.events)
    c1 = constants.c1
    cap = constants.C0 * V
    single = L == 1
    slot_laws = laws_for(L, final=False)
    # what the laws read, and the switches of _decide
    c = SimpleNamespace(L=L, B=B, c2=constants.c2, V=V, z_max=spec.z_max, C0=constants.C0,
                        z_opt=z_opt, cap=cap, chaos=chaos, key_feature=key_feature,
                        trunc_kf=key_feature and single and cap >= B)

    sum_z0 = np.zeros(N)
    sum_z = [np.zeros(N) for _ in range(L)]
    x_val = np.zeros(N)
    y_val = np.zeros(N)
    max_qnorm = np.zeros(N)
    if single:
        g_val = np.zeros(N)
        s_trunc = np.zeros(N)
        # the last slot in 1..T+1 that starts with q_1 <= C0*V; s_trunc, q_1 there
        nJ = np.ones(N, dtype=np.int64)
        s_at_nJ = np.zeros(N)
        q1_at_nJ = np.zeros(N)

    def fail(law: str, i: int, t: int, detail: str) -> None:
        raise InvariantViolation(law, i, int(seeds[i]), t, detail, T=T, V=V)

    def enforce(laws, v, t: int) -> None:
        for law in laws:
            lhs, rhs, bad = law.violations(v)  # core.law_problems' rule: NaN fails
            if bad is not None:
                i = first_true_row(bad)
                fail(law.name, i, t, f"{float(lhs[i])!r} exceeds "
                                     f"{float(np.broadcast_to(rhs, bad.shape)[i])!r}")

    def check(v, t: int) -> None:
        if key_feature:
            for law, value in zip(_KF_LAWS, (v.expect, v.etr)):
                if value is not None:
                    ok = value <= LAW_TOL
                    if not ok.all():
                        i = first_true_row(~ok)
                        fail(law, i, t, f"value {float(value[i])!r}")
        enforce(slot_laws, v, t)

    table = _Table(spec, c, slot_laws)
    state = np.zeros(N, dtype=np.int64)  # every path starts at state 0
    ent = np.empty(N, dtype=np.int64)
    u = np.empty(N)
    for t in range(1, T + 1):
        if (t - 1) % TABLE_BLOCK == 0:
            scored = 0  # entries scored in this block
        if table is not None and len(table.number) > table.n_scored:
            scored += W * (len(table.number) - table.n_scored)
            if 2 * scored > N or len(table.number) > TABLE_STATES:
                st = table.st.take(state, axis=1)
                q, nb2, norm = list(st[4:]), st[1], st[0]
                table, tensor = None, ScoreTensor(spec, N)
            else:
                table.score()
        # through the module name, which perfbench's tracer patches
        ids = event_ids(cum, uniform_across(seeds, t, out=u))
        if table is None:
            v = _decide(tensor, q, nb2, norm, ids, c)
        else:
            np.multiply(state, W, out=ent)
            ent += ids
            nxt = table.nxt.take(ent)
            if nxt.min() < 0:
                nxt = table.resolve(ent)
            g = table.ev[L + 2:].take(ent, axis=1)  # z0, z, dx, and dg, tz
            v = SimpleNamespace(z0=g[0], z=g[1:L + 1], dx=g[L + 1],
                                norm_before=table.st[0].take(state))
            if single:
                v.dg, v.tz = g[L + 2], g[L + 3]

        np.maximum(max_qnorm, v.norm_before, out=max_qnorm)
        stopped = max_qnorm > c1  # max_qnorm includes this slot's start
        v.dy = np.where(stopped, 0.0, v.dx)
        if table is None:
            check(v, t)
        elif table.flagged and np.where(stopped, table.bad[1].take(ent),
                                        table.bad[0].take(ent)).any():
            # the laws over every path's inputs, gathered
            before, after, g = (table.st.take(state, axis=1), table.st.take(nxt, axis=1),
                                table.ev.take(ent, axis=1))
            vars(v).update(vars(c), norm_before=before[0], nb2=before[1], expect=before[2],
                           etr=before[3] if c.trunc_kf else None, norm_after=after[0],
                           na2=after[1], qz=g[L], drift=g[L + 1])
            check(v, t)
        x_val += v.dx
        y_val += v.dy
        for l in range(L):
            sum_z[l] += v.z[l]
        sum_z0 += v.z0
        if single:
            g_val += v.dg
            s_trunc += v.tz
            q1 = v.q[0] if table is None else table.st[4].take(nxt)
            visit = q1 <= cap  # slot t+1 starts at or below the cap
            np.putmask(nJ, visit, t + 1)
            np.putmask(s_at_nJ, visit, s_trunc)
            np.putmask(q1_at_nJ, visit, q1)
        if table is None:
            q, nb2, norm = v.q, v.na2, v.norm_after
        else:
            state = nxt
        del v  # so that the next slot's arrays can reuse this slot's memory
    norm = table.st[0].take(state) if table is not None else norm

    tele_gap = tele_bound = tele_avg = g_out = None
    if single:
        tele_gap = np.abs(s_at_nJ - 0.5 * q1_at_nJ * q1_at_nJ)
        tele_avg = s_trunc / T
        v = SimpleNamespace(**vars(c), nJ=nJ, tele_gap=tele_gap, tele_avg=tele_avg)
        final_laws = laws_for(1, final=True)
        tele_bound = final_laws[0].rhs(v)  # the telescoping partial-sum law
        if cap >= B:  # the telescoping laws assume the cap clears one step
            enforce(final_laws, v, T)
        g_out = g_val

    return ChunkStats(
        avg_obj=sum_z0 / T,
        avg_cons=np.stack([s / T for s in sum_z], axis=1),
        x_final=x_val,
        y_final=y_val,
        g_final=g_out,
        max_qnorm=max_qnorm,
        tele_gap=tele_gap,
        tele_bound=tele_bound,
        tele_avg=tele_avg,
        final_qnorm=norm,
    )


def simulate_paths(spec: ProblemSpec, seeds: np.ndarray, T: int, z_opt: float,
                   constants: BoundConstants, *, chaos: str | None = None,
                   key_feature: bool = False) -> ChunkStats:
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
