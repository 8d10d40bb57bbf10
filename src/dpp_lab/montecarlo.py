"""Batch execution of independent sample paths with online law checking.

Paths run in lockstep inside fixed-size chunks: one numpy step per slot,
vectorized over the paths of the chunk.  Per-path seeds derive from the
master seed by a splittable hash and no path depends on another, so batch
statistics are invariant to chunking.  A batch runs its fixed-size chunks
in order.  A theorem check's calibration and validation paths run as one
batch, so the engine's fixed per-slot cost is paid once per theorem.

Each slot, :class:`dpp_lab.controller.ScoreTensor` scores every (event,
action) pair of every path once, into one (event, action, path) tensor with
the paths contiguous, and picks each event's action from it.  The realized
event's pick is the decision; with the KeyFeature check on, the
probability-weighted picks of all events give both exact conditional
expectations, so nothing is scored twice.  The tensor's float order is the
scalar path engine's, so the two engines agree bit for bit on every
per-path quantity.

The deterministic per-path laws of :data:`dpp_lab.core.LAWS` (and, for the
KeyFeature check, the exact conditional expectations) hold on every slot up
to float slack only (:attr:`dpp_lab.core.Law.tol`, 1e-9 for the
expectations), or the batch aborts with the offending path's seed and slot
for replay: its earliest violation by slot, then check order (KeyFeature,
then the law table), then path index, whatever the chunk size.  Identities
that no input can break (the minimality of the chosen action, the queue
update, the stopped process agreeing with the unstopped one until the stop)
are covered by property tests instead.

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
from .core import LAW_TOL, LAWS, ProblemSpec, first_true_row, laws_for
from .events import cumulative_probabilities, derive_seeds, event_ids, uniform_across
from .oracle import solve_stationary_optimum

WILSON_Z = 1.96  # 95 percent score interval
CHUNK = 4096

ALL_CHECKS = ("KeyFeature", "QueueTail", "XTail", "GTail", "Telescoping",
              "Theorem2", "Theorem3")
_SINGLE_ONLY = {"GTail", "Telescoping", "Theorem3"}
_KF_LAWS = ("exact conditional expectation",
            "exact truncated conditional expectation")
# the order in which the engine checks the laws of one slot
_LAW_ORDER = _KF_LAWS + tuple(law.name for law in LAWS)


class InvariantViolation(Exception):
    """A deterministic per-path law failed.  Carries everything needed to
    replay the offending path in isolation: its seed, the slot, and the
    horizon ``T`` and ``V`` of the run that raised it (a theorem check runs at
    its own horizon with V = 1/epsilon)."""

    def __init__(self, law: str, path_index: int, path_seed: int, slot: int, detail: str = "",
                 *, T: int | None = None, V: float | None = None):
        self.law = law
        self.path_index = path_index
        self.path_seed = path_seed
        self.slot = slot
        self.detail = detail
        self.T = T
        self.V = V
        super().__init__(
            f"{law} violated on path {path_index} (seed {path_seed}) at slot {slot}"
            + (f": {detail}" if detail else ""))


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

    @staticmethod
    def concat(parts: list["ChunkStats"]) -> "ChunkStats":
        out = {}
        for f in fields(ChunkStats):
            items = [getattr(p, f.name) for p in parts]
            out[f.name] = None if items[0] is None else np.concatenate(items)
        return ChunkStats(**out)


def simulate_chunk(spec: ProblemSpec, seeds: np.ndarray, path_offset: int, T: int,
                   z_opt: float, constants: BoundConstants, *,
                   chaos: str | None = None, key_feature: bool = False) -> ChunkStats:
    """Run a chunk of paths in lockstep, enforcing every deterministic
    per-path law as it goes.  ``seeds`` must be uint64."""
    N = seeds.shape[0]
    cum = cumulative_probabilities(spec)
    tensor = ScoreTensor(spec, N)
    L, V, B = spec.L, spec.V, spec.B
    c1 = constants.c1
    cap = constants.C0 * V
    single = L == 1
    trunc_kf = key_feature and single and cap >= B
    slot_laws = laws_for(L, final=False)
    # the law inputs; the per-slot arrays are rebound on every slot
    v = SimpleNamespace(L=L, B=B, c2=constants.c2, V=V, z_max=spec.z_max, C0=constants.C0)

    q = [np.zeros(N) for _ in range(L)]
    nb2 = np.zeros(N)
    norm = np.zeros(N)  # the queue norm at the start of the slot
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
        raise InvariantViolation(law, path_offset + i, int(seeds[i]), t, detail, T=T, V=V)

    def enforce(laws, t: int) -> None:
        for law in laws:
            lhs, rhs, bad = law.violations(v)  # core.law_problems' rule: NaN fails
            if bad is not None:
                i = first_true_row(bad)
                fail(law.name, i, t, f"{float(lhs[i])!r} exceeds "
                                     f"{float(np.broadcast_to(rhs, bad.shape)[i])!r}")

    u = np.empty(N)
    for t in range(1, T + 1):
        # through the module name, which perfbench's tracer patches
        ids = event_ids(cum, uniform_across(seeds, t, out=u))
        tensor.choose(q, chaos)
        z0_sel, *z_sel = tensor.realized(ids)

        np.maximum(max_qnorm, norm, out=max_qnorm)
        if single:
            trunc = np.minimum(q[0], cap)

        if key_feature:
            expect, etr = tensor.expectations(z_opt, trunc if trunc_kf else None)
            for law, value in zip(_KF_LAWS, (expect, etr)):
                if value is not None:
                    ok = value <= LAW_TOL
                    if not ok.all():
                        i = first_true_row(~ok)
                        fail(law, i, t, f"value {float(value[i])!r}")

        dot = np.zeros(N)
        na2 = np.zeros(N)
        for l in range(L):
            ql, zl = q[l], z_sel[l]
            dot += ql * zl
            nq = np.maximum(ql + zl, 0.0)
            q[l] = nq
            na2 += nq * nq
            sum_z[l] += zl

        penalty = V * (z0_sel - z_opt)
        dx = penalty + dot
        v.norm_before, v.norm_after = norm, np.sqrt(na2)
        v.nb2, v.na2, v.drift, v.qz = nb2, na2, 0.5 * (na2 - nb2), dot
        v.dy = np.where(max_qnorm > c1, 0.0, dx)  # max_qnorm includes this slot's start
        if single:
            tz = trunc * z_sel[0]
            v.dg = penalty + tz
        enforce(slot_laws, t)
        x_val += dx
        y_val += v.dy
        if single:
            g_val += v.dg
            s_trunc += tz
            visit = q[0] <= cap  # slot t+1 starts at or below the cap
            np.putmask(nJ, visit, t + 1)
            np.putmask(s_at_nJ, visit, s_trunc)
            np.putmask(q1_at_nJ, visit, q[0])
        sum_z0 += z0_sel
        nb2, norm = na2, v.norm_after

    tele_gap = tele_bound = tele_avg = g_out = None
    if single:
        tele_gap = np.abs(s_at_nJ - 0.5 * q1_at_nJ * q1_at_nJ)
        tele_avg = s_trunc / T
        vars(v).update(nJ=nJ, tele_gap=tele_gap, tele_avg=tele_avg)
        final_laws = laws_for(1, final=True)
        tele_bound = final_laws[0].rhs(v)  # the telescoping partial-sum law
        if cap >= B:  # the telescoping laws assume the cap clears one step
            enforce(final_laws, T)
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
    """All paths of a batch, path i from ``seeds[i]`` (uint64), run in chunks
    of :data:`CHUNK` paths in order.  A chunk stops at its own first
    violation, and a later chunk may fail at an earlier slot, so all chunks
    run before the earliest is raised."""
    parts, first = [], None
    for lo in range(0, len(seeds), CHUNK):
        try:
            parts.append(simulate_chunk(spec, seeds[lo:lo + CHUNK], lo, T, z_opt,
                                        constants, chaos=chaos, key_feature=key_feature))
        except InvariantViolation as e:
            # keep only the earliest, freeing the other chunks; a tie keeps the lower path
            first = min((first or e, e), key=lambda v: (v.slot, _LAW_ORDER.index(v.law)))
    if first is not None:
        raise first
    return ChunkStats.concat(parts)


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
