"""Closed-form constants, tail bounds and convergence times.

All logarithms are natural: the exponential-moment machinery behind the
queue tail bound is base e, and every constant here must stay consistent
with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

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
    per_slot = queue_tail_bound(constants, constants.c1)
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
    return _slots(max(le * le * ld, ld ** 3), epsilon)


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
    return _slots(ld * ld, epsilon)


def _slots(x: float, epsilon: float) -> int:
    """ceil(x / eps^2) for x > 0, at least 1 where it underflows to zero;
    ValueError naming eps where x / eps^2 is not a finite float."""
    t = x / (epsilon * epsilon) if epsilon * epsilon > 0.0 else math.inf
    if not math.isfinite(t):
        raise ValueError(f"convergence horizon at epsilon={epsilon!r} is not finite")
    return max(1, math.ceil(t))
