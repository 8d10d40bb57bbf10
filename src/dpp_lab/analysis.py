"""Closed-form constants, tail bounds, convergence times, and the law table
evaluated over one stored trace.

All logarithms are natural: the exponential-moment machinery behind the
queue tail bound is base e, and every constant here must stay consistent
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .core import PathTrace, law_problems, laws_for, trace_law_values
from .oracle import SlacknessError


class ConsistencyError(Exception):
    """A computed constant left its valid range; upstream inputs are bad."""


@dataclass(frozen=True)
class BoundConstants:
    """Every closed-form constant the tail and convergence bounds need.

    C0:  queue-norm threshold multiplier; above C0*V the queue norm drifts
         down by at least xi/2 per slot in expectation.
    r:   exponent of the queue-norm moment generating bound.
    rho: per-slot contraction factor of that bound, in (0, 1).
    D:   ceiling of E[exp(r * ||Q[t]||)], uniform over t.
    c1:  truncation level for the stopped process.
    c2:  one-step difference bound of the stopped process.
    C:   multiplier of the multi-constraint deviation bound.
    C2:  multiplier of the single-constraint deviation bound.
    """

    C0: float
    r: float
    rho: float
    D: float
    c1: float
    c2: float
    C: float
    C2: float
    xi: float
    B: float
    z_max: float
    V: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def compute_constants(spec, xi: float, c1: float) -> BoundConstants:
    """Evaluate every constant from the ``z_max``, ``B`` and ``V`` of ``spec``
    (a ProblemSpec or any object with those attributes) and the slackness
    margin xi.

    Fails closed: any formula leaving its valid range raises instead of
    returning nonsense.
    """
    z_max, B, V = spec.z_max, spec.B, spec.V
    if not 0.0 < xi <= B:
        raise SlacknessError(f"xi must lie in (0, B]; got {xi!r} with B={B!r}")
    if not c1 > 0.0:
        raise ValueError("truncation level c1 must be positive")
    C0 = (4.0 * z_max + B * B / V - xi * xi / (4.0 * V)) / xi
    if not C0 > 0.0:
        raise ConsistencyError(f"C0={C0!r} must be positive")
    r = 3.0 * xi / (6.0 * B * B + B * xi)
    if not r > 0.0:
        raise ConsistencyError(f"r={r!r} must be positive")
    rho = 1.0 - r * xi / 4.0
    if not 0.0 < rho < 1.0:
        raise ConsistencyError(f"rho={rho!r} left (0, 1)")
    log_D = (math.log(4.0 * math.exp(r * B) + r * xi - 4.0)
             + r * C0 * V - math.log(r * xi))
    if log_D > 700.0:  # e^700 is near the float64 ceiling; fail closed
        raise ConsistencyError(
            f"moment ceiling exp({log_D:.1f}) exceeds float64 range; "
            "every tail bound would be vacuous at these parameters")
    D = math.exp(log_D)
    if not D >= 1.0:
        raise ConsistencyError(f"D={D!r} must be at least 1")
    c2 = 2.0 * V * z_max + B * c1
    C2 = 2.0 * z_max + C0 * B
    C = 2.0 * math.sqrt(2.0) * (
        2.0 * z_max
        + B / (r * V)
        + (B / (r * V)) * math.log((8.0 * math.exp(r * B) + 2.0 * r * xi - 8.0) / (r * xi))
        + B * C0
    )
    return BoundConstants(C0=C0, r=r, rho=rho, D=D, c1=c1, c2=c2, C=C, C2=C2,
                          xi=xi, B=B, z_max=z_max, V=V)


def default_truncation_level(spec, xi: float, T: int, delta: float) -> float:
    """The truncation level that splits the failure budget evenly between the
    concentration term and the queue excursion term: (1/r) * ln(2 D T / delta)."""
    probe = compute_constants(spec, xi, 1.0)
    return math.log(2.0 * probe.D * T / delta) / probe.r


def constants_for_horizon(spec, xi: float, T: int, delta: float) -> BoundConstants:
    """Constants with c1 at its default calibration for horizon T and budget delta."""
    c1 = default_truncation_level(spec, xi, T, delta)
    return compute_constants(spec, xi, c1)


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
# bounds and convergence times
# ---------------------------------------------------------------------------

def azuma_bound(T: int, c2: float, lam: float) -> float:
    """Tail bound exp(-lam^2 / (2 T c2^2)) for a zero-start supermartingale
    with one-step differences bounded by c2, clamped to [0, 1]."""
    if T < 1:
        raise ValueError("T must be at least 1")
    if c2 <= 0.0 or lam <= 0.0:
        raise ValueError("c2 and lambda must be positive")
    return min(1.0, math.exp(-lam * lam / (2.0 * T * c2 * c2)))


def queue_tail_bound(constants: BoundConstants, c1: float) -> float:
    """Per-slot bound on Pr(||Q[t]|| > c1), clamped to [0, 1]."""
    if c1 <= 0.0:
        raise ValueError("c1 must be positive")
    return min(1.0, constants.D * math.exp(-constants.r * c1))


def queue_tail_vacuity_crossover(constants: BoundConstants) -> float:
    """The c1 below which the queue tail bound says nothing (bound >= 1)."""
    return math.log(constants.D) / constants.r


def xtail_bound(constants: BoundConstants, T: int, lam: float) -> float:
    """Deviation bound for the cumulative process at horizon T: the stopped
    process tail plus T times the per-slot queue excursion probability."""
    per_slot = constants.D * math.exp(-constants.r * constants.c1)
    return min(1.0, azuma_bound(T, constants.c2, lam) + T * per_slot)


def calibrated_deviation_level(constants: BoundConstants, T: int, delta: float) -> float:
    """The deviation level at which the stopped-process term equals delta/2."""
    return math.sqrt(2.0 * T * math.log(2.0 / delta)) * constants.c2


def g_tail_bound(constants: BoundConstants, T: int, delta: float) -> float:
    """Threshold lambda = 2 C2 V sqrt(T) ln(1/delta); the claim under test is
    Pr(G[T] >= lambda) <= delta."""
    if T < 1:
        raise ValueError("T must be at least 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return 2.0 * constants.C2 * constants.V * math.sqrt(T) * math.log(1.0 / delta)


def convergence_time_multi(epsilon: float, delta: float) -> int:
    """Horizon after which the multi-constraint guarantees kick in:
    ceil((1/eps^2) * max{ln^2(1/eps) ln(2/delta), ln^3(2/delta)})."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    le = math.log(1.0 / epsilon)
    ld = math.log(2.0 / delta)
    return math.ceil(max(le * le * ld, ld ** 3) / (epsilon * epsilon))


def convergence_time_single(epsilon: float, delta: float,
                            constants: BoundConstants) -> int:
    """Single-constraint horizon ceil((1/eps^2) ln^2(1/delta)).  Only valid
    for epsilon <= C0/B, which is the regime where the deterministic
    truncation argument applies."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    limit = constants.C0 / constants.B
    if not 0.0 < epsilon <= limit:
        raise ValueError(f"epsilon must lie in (0, {limit!r}]; got {epsilon!r}")
    ld = math.log(1.0 / delta)
    return math.ceil(ld * ld / (epsilon * epsilon))


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
