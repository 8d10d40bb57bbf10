"""Batch execution of independent sample paths with online law checking.

Paths run in lockstep inside fixed-size chunks: one numpy step per slot,
vectorized over the paths of the chunk.  Per-path seeds derive from the
master seed by a splittable hash, chunks are a fixed size, and chunk results
merge in submission order, so results are identical for any worker count.

Float evaluation order inside the engine mirrors the scalar path engine in
:mod:`dpp_lab.controller` operation for operation, which makes the two
engines agree bit for bit on every per-path quantity.

Deterministic per-path laws are enforced with zero tolerance for statistical
slack (absolute float tolerance 1e-9): any violation aborts the batch with
the offending path's seed and slot for replay.  Statistical checks compare
the Wilson interval of an empirical frequency against the theoretical bound
and fail only when the interval excludes the bound from above; the strict
"Wilson upper at most the bound" comparison is also recorded for reporting.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import (BoundConstants, build_processes,
                       calibrated_deviation_level, compute_constants,
                       constants_for_horizon, convergence_time_multi,
                       convergence_time_single, g_tail_bound,
                       queue_tail_bound, xtail_bound)
from .core import LAW_TOL, ProblemSpec
from .events import cumulative_probabilities, derive_seed, uniform_across
from .oracle import SlacknessError, solve_stationary_optimum

WILSON_Z = 1.96  # 95 percent score interval
CHUNK = 4096

ALL_CHECKS = ("KeyFeature", "QueueTail", "XTail", "GTail", "Telescoping",
              "Theorem2", "Theorem3")
_SINGLE_ONLY = {"GTail", "Telescoping", "Theorem3"}


class InvariantViolation(Exception):
    """A deterministic per-path law failed.  Carries everything needed to
    replay the offending path in isolation."""

    def __init__(self, law: str, path_index: int, path_seed: int, slot: int, detail: str = ""):
        self.law = law
        self.path_index = path_index
        self.path_seed = path_seed
        self.slot = slot
        self.detail = detail
        super().__init__(
            f"{law} violated on path {path_index} (seed {path_seed}) at slot {slot}"
            + (f": {detail}" if detail else ""))


def wilson_interval(k: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Score confidence interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one observation")
    p = k / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class TailEstimate:
    frequency: float
    wilson_lower: float
    wilson_upper: float
    exceed_count: int
    num_paths: int


def empirical_tail(traces, statistic: str, threshold: float, *,
                   z_opt: float | None = None,
                   constants: BoundConstants | None = None) -> TailEstimate:
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
            proc = build_processes(tr, z_opt, constants)
            if statistic == "XT":
                values.append(float(proc.x[-1]))
            else:
                if proc.g is None:
                    raise ValueError("GT is defined only for single-constraint traces")
                values.append(float(proc.g[-1]))
        else:
            raise ValueError(f"unknown statistic {statistic!r}")
    k = sum(1 for v in values if v > threshold)
    n = len(values)
    lo, hi = wilson_interval(k, n)
    return TailEstimate(k / n, lo, hi, k, n)


# ---------------------------------------------------------------------------
# lockstep engine
# ---------------------------------------------------------------------------

@dataclass
class _Tables:
    """Padded per-event action tables; padding rows carry +inf cost so they
    can never win the minimization."""

    cum: np.ndarray           # (W,) cumulative probabilities
    probs: np.ndarray         # (W,)
    z0: np.ndarray            # (W, K)
    vz0: np.ndarray           # (W, K) = V * z0
    z: list[np.ndarray]       # per constraint: (W, K)


def _build_tables(spec: ProblemSpec) -> _Tables:
    W, K, L = len(spec.events), spec.max_actions, spec.L
    z0 = np.full((W, K), np.inf)
    z = [np.zeros((W, K)) for _ in range(L)]
    for i, e in enumerate(spec.events):
        for k, a in enumerate(e.actions):
            z0[i, k] = a.z0
            for l in range(L):
                z[l][i, k] = a.z[l]
    vz0 = spec.V * z0
    probs = np.asarray([e.probability for e in spec.events])
    return _Tables(cum=cumulative_probabilities(spec), probs=probs, z0=z0, vz0=vz0, z=z)


@dataclass
class ChunkStats:
    avg_obj: np.ndarray
    avg_cons: np.ndarray          # (N, L)
    x_final: np.ndarray
    y_final: np.ndarray
    g_final: np.ndarray | None
    max_qnorm: np.ndarray
    stopped: np.ndarray           # bool: queue norm ever exceeded c1
    tele_gap: np.ndarray | None
    tele_bound: np.ndarray | None
    tele_avg: np.ndarray | None
    final_qnorm: np.ndarray

    @staticmethod
    def concat(parts: list["ChunkStats"]) -> "ChunkStats":
        def cat(sel):
            items = [sel(p) for p in parts]
            return None if items[0] is None else np.concatenate(items)
        return ChunkStats(
            avg_obj=cat(lambda p: p.avg_obj),
            avg_cons=np.concatenate([p.avg_cons for p in parts], axis=0),
            x_final=cat(lambda p: p.x_final),
            y_final=cat(lambda p: p.y_final),
            g_final=cat(lambda p: p.g_final),
            max_qnorm=cat(lambda p: p.max_qnorm),
            stopped=cat(lambda p: p.stopped),
            tele_gap=cat(lambda p: p.tele_gap),
            tele_bound=cat(lambda p: p.tele_bound),
            tele_avg=cat(lambda p: p.tele_avg),
            final_qnorm=cat(lambda p: p.final_qnorm),
        )


def _first_bad(mask: np.ndarray) -> int:
    return int(np.nonzero(mask)[0][0])


def simulate_chunk(spec: ProblemSpec, seeds: np.ndarray, path_offset: int, T: int,
                   z_opt: float, constants: BoundConstants, *,
                   chaos: str | None = None, key_feature: bool = False,
                   tol: float = LAW_TOL) -> ChunkStats:
    """Run a chunk of paths in lockstep, enforcing every deterministic
    per-slot law as it goes.  ``seeds`` must be uint64."""
    tab = _build_tables(spec)
    N = seeds.shape[0]
    L, V, B = spec.L, spec.V, spec.B
    c1, c2 = constants.c1, constants.c2
    cap = constants.C0 * V
    g_cap = 2.0 * V * spec.z_max + constants.C0 * V * B
    half_b2 = B * B / 2.0
    single = L == 1
    rows = np.arange(N)

    q = [np.zeros(N) for _ in range(L)]
    nb2 = np.zeros(N)
    sum_z0 = np.zeros(N)
    sum_z = [np.zeros(N) for _ in range(L)]
    x_val = np.zeros(N)
    y_val = np.zeros(N)
    stopped = np.zeros(N, dtype=bool)
    max_qnorm = np.zeros(N)
    if single:
        g_val = np.zeros(N)
        s_trunc = np.zeros(N)
        nJ = np.ones(N, dtype=np.int64)
        s_at_nJ = np.zeros(N)
        q1_at_nJ = np.zeros(N)

    def fail(law: str, mask: np.ndarray, t: int, detail: str = "") -> None:
        i = _first_bad(mask)
        raise InvariantViolation(law, path_offset + i, int(seeds[i]), t, detail)

    for t in range(1, T + 1):
        u = uniform_across(seeds, t)
        ids = np.minimum(np.searchsorted(tab.cum, u, side="right"),
                         len(tab.cum) - 1)
        vals = tab.vz0[ids].copy()
        zsel_cols = []
        for l in range(L):
            zl = tab.z[l][ids]
            vals += q[l][:, None] * zl
            zsel_cols.append(zl)
        if chaos == "skip-minimization":
            choose = np.zeros(N, dtype=np.int64)
        elif chaos == "worst-action":
            finite = np.where(np.isfinite(vals), vals, -np.inf)
            choose = np.argmax(finite, axis=1)
        elif chaos is None:
            choose = np.argmin(vals, axis=1)
        else:
            raise ValueError(f"unknown chaos mode {chaos!r}")
        chosen_vals = vals[rows, choose]
        bad = np.min(vals, axis=1) < chosen_vals
        if chaos is None and np.any(bad):
            fail("per-slot minimality", bad, t)
        z0_sel = tab.z0[ids, choose]
        z_sel = [col[rows, choose] for col in zsel_cols]

        qnorm = np.sqrt(nb2)
        np.maximum(max_qnorm, qnorm, out=max_qnorm)
        stopped |= qnorm > c1

        if key_feature:
            expect = np.zeros(N)
            for w in range(len(tab.probs)):
                ev_vals = np.broadcast_to(tab.vz0[w], (N, tab.vz0.shape[1])).copy()
                for l in range(L):
                    ev_vals += q[l][:, None] * tab.z[l][w][None, :]
                if chaos == "skip-minimization":
                    m_w = ev_vals[:, 0]
                elif chaos == "worst-action":
                    m_w = np.max(np.where(np.isfinite(ev_vals), ev_vals, -np.inf), axis=1)
                else:
                    m_w = np.min(ev_vals, axis=1)
                expect += tab.probs[w] * (m_w - V * z_opt)
            bad = expect > tol
            if np.any(bad):
                fail("exact conditional expectation", bad, t,
                     f"value {expect[_first_bad(bad)]!r}")
            if single and cap >= B:
                etr = np.zeros(N)
                w_trunc = np.minimum(q[0], cap)
                for w in range(len(tab.probs)):
                    ev_vals = np.broadcast_to(tab.vz0[w], (N, tab.vz0.shape[1])).copy()
                    ev_vals += q[0][:, None] * tab.z[0][w][None, :]
                    if chaos == "skip-minimization":
                        kw = np.zeros(N, dtype=np.int64)
                    elif chaos == "worst-action":
                        kw = np.argmax(np.where(np.isfinite(ev_vals), ev_vals, -np.inf), axis=1)
                    else:
                        kw = np.argmin(ev_vals, axis=1)
                    etr += tab.probs[w] * (V * (tab.z0[w][kw] - z_opt)
                                           + w_trunc * tab.z[0][w][kw])
                bad = etr > tol
                if np.any(bad):
                    fail("exact truncated conditional expectation", bad, t,
                         f"value {etr[_first_bad(bad)]!r}")

        dot = np.zeros(N)
        na2 = np.zeros(N)
        if single:
            trunc = np.minimum(q[0], cap)
            visit = q[0] <= cap
            nJ[visit] = t
            s_at_nJ[visit] = s_trunc[visit]
            q1_at_nJ[visit] = q[0][visit]
        for l in range(L):
            ql, zl = q[l], z_sel[l]
            dot += ql * zl
            uq = ql + zl
            nq = (uq + np.abs(uq)) / 2.0
            direct = np.maximum(uq, 0.0)
            if not np.all(nq == direct):
                fail("exact queue update", nq != direct, t)
            q[l] = direct
            na2 += direct * direct
            sum_z[l] += zl

        na = np.sqrt(na2)
        bad = np.abs(na - qnorm) > B + tol
        if np.any(bad):
            fail("queue norm step bound", bad, t)
        dr = 0.5 * (na2 - nb2)
        bad = dr > half_b2 + dot + tol
        if np.any(bad):
            fail("quadratic drift bound", bad, t)

        dx = V * (z0_sel - z_opt) + dot
        x_val += dx
        dy = np.where(stopped, 0.0, dx)
        bad = np.abs(dy) > c2 + tol
        if np.any(bad):
            fail("stopped process difference bound", bad, t)
        y_val += dy
        if single:
            dg = V * (z0_sel - z_opt) + trunc * z_sel[0]
            bad = np.abs(dg) > g_cap + tol
            if np.any(bad):
                fail("truncated process difference bound", bad, t)
            g_val += dg
            s_trunc += trunc * z_sel[0]
        sum_z0 += z0_sel
        nb2 = na2

    diverged = (x_val != y_val) & ~stopped
    if np.any(diverged):
        fail("stopping-time divergence law", diverged, T)

    tele_gap = tele_bound = tele_avg = g_out = None
    if single:
        visit = q[0] <= cap
        nJ[visit] = T + 1
        s_at_nJ[visit] = s_trunc[visit]
        q1_at_nJ[visit] = q[0][visit]
        tele_gap = np.abs(s_at_nJ - 0.5 * q1_at_nJ * q1_at_nJ)
        tele_bound = 2.5 * B * B * (nJ - 1)
        tele_avg = s_trunc / T
        if cap >= B:  # the telescoping laws assume the cap clears one step
            bad = tele_gap > tele_bound + tol
            if np.any(bad):
                fail("telescoping partial-sum law", bad, T)
            bad = tele_avg < -2.5 * B * B - tol
            if np.any(bad):
                fail("truncated sum lower bound", bad, T)
        g_out = g_val

    return ChunkStats(
        avg_obj=sum_z0 / T,
        avg_cons=np.stack([s / T for s in sum_z], axis=1),
        x_final=x_val,
        y_final=y_val,
        g_final=g_out,
        max_qnorm=max_qnorm,
        stopped=stopped,
        tele_gap=tele_gap,
        tele_bound=tele_bound,
        tele_avg=tele_avg,
        final_qnorm=np.sqrt(nb2),
    )


def _worker_count() -> int:
    raw = os.environ.get("DPP_LAB_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"DPP_LAB_THREADS must be a positive integer, got {raw!r}")
    return workers


def simulate_paths(spec: ProblemSpec, master_seed: int, num_paths: int, T: int,
                   z_opt: float, constants: BoundConstants, *,
                   chaos: str | None = None, key_feature: bool = False,
                   seed_offset: int = 0) -> ChunkStats:
    """All paths of a batch, chunked; results identical for any worker count."""
    all_seeds = np.asarray(
        [derive_seed(master_seed, seed_offset + i) for i in range(num_paths)],
        dtype=np.uint64)
    jobs = []
    for lo in range(0, num_paths, CHUNK):
        hi = min(lo + CHUNK, num_paths)
        jobs.append((all_seeds[lo:hi], lo))
    workers = _worker_count()
    if workers == 1 or len(jobs) == 1:
        parts = [simulate_chunk(spec, s, off, T, z_opt, constants, chaos=chaos,
                                key_feature=key_feature) for s, off in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(simulate_chunk, spec, s, off, T, z_opt, constants,
                                   chaos=chaos, key_feature=key_feature)
                       for s, off in jobs]
            parts = [f.result() for f in futures]
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
    c1_override: float | None = None
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
        return {
            "name": self.name,
            "theoretical_bound": self.theoretical_bound,
            "empirical_frequency": self.empirical_frequency,
            "wilson_lower": self.wilson_lower,
            "wilson_upper": self.wilson_upper,
            "num_paths": self.num_paths,
            "pass": self.passed,
            "strict_upper_ok": self.strict_upper_ok,
            "details": self.details,
        }


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
    invariant_violations: int
    fitted_M: dict[str, float]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "spec_digest": self.spec_digest,
            "master_seed": self.master_seed,
            "num_paths": self.num_paths,
            "T": self.T,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "z_opt": self.z_opt,
            "xi_star": self.xi_star,
            "xi": self.xi,
            "constants": self.constants.to_json_dict(),
            "checks": {k: v.to_json_dict() for k, v in self.checks.items()},
            "objective_quantiles": self.objective_quantiles,
            "constraint_violation_quantiles": self.constraint_violation_quantiles,
            "invariant_violations": self.invariant_violations,
            "fitted_M": self.fitted_M,
            "all_pass": self.all_passed,
        }


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


def _fit_then_validate(spec: ProblemSpec, master_seed: int, *, z_opt: float,
                       xi: float, epsilon: float, delta: float, horizon: int,
                       cal_paths: int, val_paths: int, cal_offset: int,
                       val_offset: int, name: str) -> tuple[CheckResult, float]:
    """Fit the hidden approximation constant on a calibration batch, then
    demand the validation pass fraction clears 1 - 2*delta at Wilson-lower
    confidence."""
    v_spec = spec.with_v(1.0 / epsilon)
    consts = constants_for_horizon(v_spec, xi, horizon, delta)
    cal = simulate_paths(v_spec, master_seed, cal_paths, horizon, z_opt, consts,
                         seed_offset=cal_offset)
    margins = np.maximum(cal.avg_obj - z_opt, np.max(cal.avg_cons, axis=1)) / epsilon
    M = float(np.quantile(margins, 0.95))
    if M <= 0.0:
        M = 1e-9  # the guarantee needs a positive constant; calibration beat it
    val = simulate_paths(v_spec, master_seed, val_paths, horizon, z_opt, consts,
                         seed_offset=val_offset)
    ok = ((val.avg_obj <= z_opt + M * epsilon)
          & np.all(val.avg_cons <= M * epsilon, axis=1))
    k = int(np.count_nonzero(ok))
    lo, hi = wilson_interval(k, val_paths)
    target = 1.0 - 2.0 * delta
    return CheckResult(
        name=name, theoretical_bound=float(target), empirical_frequency=k / val_paths,
        wilson_lower=lo, wilson_upper=hi, num_paths=val_paths,
        passed=bool(lo >= target),
        details={"fitted_M": M, "horizon": horizon, "V": 1.0 / epsilon,
                 "calibration_paths": cal_paths},
    ), M


def run_batch(config: BatchConfig) -> BatchSummary:
    """Run the batch and evaluate the requested checks.  Deterministic given
    the config; raises :class:`InvariantViolation` on any per-path law
    failure."""
    spec = config.spec
    sol = solve_stationary_optimum(spec)
    if sol.z_opt is None:
        raise SlacknessError("instance is infeasible; no stationary policy meets the constraints")
    if sol.xi_star is None or sol.xi_star <= 0.0:
        raise SlacknessError(f"maximal slackness {sol.xi_star!r} is not positive")
    xi = sol.xi_star / 2.0  # strict margin convention: half the maximal slackness
    if config.c1_override is not None:
        constants = compute_constants(spec, xi, config.c1_override)
    else:
        constants = constants_for_horizon(spec, xi, config.T, config.delta)

    key_feature = "KeyFeature" in config.checks
    stats = simulate_paths(spec, config.master_seed, config.num_paths, config.T,
                           sol.z_opt, constants, chaos=config.chaos,
                           key_feature=key_feature)

    checks: dict[str, CheckResult] = {}
    fitted: dict[str, float] = {}
    n = config.num_paths

    if key_feature:
        checks["KeyFeature"] = CheckResult(
            name="KeyFeature", theoretical_bound=0.0, empirical_frequency=0.0,
            wilson_lower=0.0, wilson_upper=wilson_interval(0, n)[1], num_paths=n,
            passed=True, details={"tolerance": LAW_TOL})
    if "QueueTail" in config.checks:
        levels = config.queue_tail_levels or (constants.c1,)
        level_rows = []
        all_pass = True
        strict_all = True
        for c1 in levels:
            bound = queue_tail_bound(constants, c1)
            res = _tail_check("QueueTail", stats.max_qnorm, c1, bound)
            level_rows.append({"c1": float(c1), **res.to_json_dict()})
            all_pass &= res.passed
            if res.strict_upper_ok is False:
                strict_all = False
        base = level_rows[0]
        checks["QueueTail"] = CheckResult(
            name="QueueTail", theoretical_bound=base["theoretical_bound"],
            empirical_frequency=base["empirical_frequency"],
            wilson_lower=base["wilson_lower"], wilson_upper=base["wilson_upper"],
            num_paths=n, passed=bool(all_pass), strict_upper_ok=strict_all,
            details={"levels": level_rows,
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
        checks["Telescoping"] = CheckResult(
            name="Telescoping", theoretical_bound=0.0, empirical_frequency=0.0,
            wilson_lower=0.0, wilson_upper=wilson_interval(0, n)[1], num_paths=n,
            passed=True,
            details={"max_gap_to_bound": float(np.max(stats.tele_gap - stats.tele_bound)),
                     "min_avg_truncated_sum": float(np.min(stats.tele_avg)),
                     "lower_bound": -2.5 * spec.B ** 2})
    if "Theorem2" in config.checks:
        cal = max(1, config.num_paths // 3)
        val = max(1, config.num_paths - cal)
        horizon = convergence_time_multi(config.epsilon, config.delta)
        res, M = _fit_then_validate(
            spec, config.master_seed, z_opt=sol.z_opt, xi=xi,
            epsilon=config.epsilon, delta=config.delta, horizon=horizon,
            cal_paths=cal, val_paths=val, cal_offset=1 << 32, val_offset=2 << 32,
            name="Theorem2")
        checks["Theorem2"] = res
        fitted["Theorem2"] = M
    if "Theorem3" in config.checks:
        cal = max(1, config.num_paths // 3)
        val = max(1, config.num_paths - cal)
        v_spec = spec.with_v(1.0 / config.epsilon)
        probe = constants_for_horizon(v_spec, xi, config.T, config.delta)
        horizon = convergence_time_single(config.epsilon, config.delta, probe)
        res, M = _fit_then_validate(
            spec, config.master_seed, z_opt=sol.z_opt, xi=xi,
            epsilon=config.epsilon, delta=config.delta, horizon=horizon,
            cal_paths=cal, val_paths=val, cal_offset=3 << 32, val_offset=4 << 32,
            name="Theorem3")
        checks["Theorem3"] = res
        fitted["Theorem3"] = M

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
        invariant_violations=0,
        fitted_M=fitted,
    )
