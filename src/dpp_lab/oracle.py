"""Ground-truth computations that require the event distribution.

Two linear programs over per-event randomized policies: the minimum
achievable long-run cost subject to all constraint expectations being
nonpositive, and the maximum uniform slackness of those expectations.  An
instance that no stationary policy solves raises :class:`SlacknessError`,
as does a maximal slackness that is not positive where one is needed; a
:class:`StationarySolution` is always a solved LP.  Both LPs are
cross-checked by exhaustive grid search over per-event probability simplices
(see :func:`grid_stationary_optimum`), which is the independent oracle the
simplex solver is validated against.

The grid oracle lists each event's simplex grid in lexicographic order of
its integer counts and sums every joint (cost, constraints) value event by
event from zero, in event order, so each value is the same float whichever
order the joint points are visited in; only the min and max are reported.
Joint points are evaluated in chunks of at most 2**20, each a table of the
leading events' joint grid plus a slice of the next event's grid, so memory
stays at about two chunks of (L+1) floats plus the per-event grids, whatever
the size of the joint grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemSpec
from .simplex import InfeasibleError, solve_lp

POLICY_TOL = 1e-9


class SlacknessError(Exception):
    """No stationary policy satisfies every constraint with positive margin;
    the tail/convergence constants are undefined for this instance."""


@dataclass(frozen=True)
class StationarySolution:
    """Optimal stationary randomized policy and its certificates.

    ``policy[w][k]`` is the probability of action k under event w; ``z_opt``
    is the optimal expected per-slot cost; ``xi_star`` the maximal uniform
    constraint slackness over all stationary policies.
    """

    z_opt: float
    policy: tuple[tuple[float, ...], ...]
    xi_star: float

    def to_json_dict(self) -> dict:
        return {
            "z_opt": self.z_opt,
            "xi_star": self.xi_star,
            "policy": [list(row) for row in self.policy],
            "lp_status": "Optimal",  # only a solved LP gives a solution
        }

    @property
    def xi(self) -> float:
        """The slackness margin the bound constants use: half the maximal
        slackness, so that the margin is strict.  Raises
        :class:`SlacknessError` unless ``xi_star`` is positive."""
        return _positive_slackness(self.xi_star) / 2.0


def _positive_slackness(xi_star: float) -> float:
    """``xi_star``, or :class:`SlacknessError` unless it is positive."""
    if not xi_star > 0.0:
        raise SlacknessError(f"maximal slackness {xi_star!r} is not positive")
    return xi_star


def _lp_matrices(spec: ProblemSpec):
    """The LP's cost row, constraint rows and per-event sum-to-one rows; the
    variables are the actions of :attr:`ProblemSpec.action_table` (its
    finite z0 entries) in event-major order."""
    table = spec.action_table
    real = np.isfinite(table[0])
    weighted = np.asarray([e.probability for e in spec.events])[:, None] * table
    A_eq = (np.nonzero(real)[0] == np.arange(len(spec.events))[:, None]).astype(float)
    return A_eq.shape[1], weighted[0][real], weighted[1:, real], A_eq


def solve_stationary_optimum(spec: ProblemSpec) -> StationarySolution:
    """Minimize expected cost over per-event action distributions subject to
    every constraint expectation being <= 0.  Returns the exact simplex
    optimum together with the maximal slackness of the instance; raises
    :class:`SlacknessError` when no stationary policy meets the
    constraints."""
    n, cost, A_ub, A_eq = _lp_matrices(spec)
    try:
        x, z_opt = solve_lp(cost, A_ub=A_ub, b_ub=np.zeros(spec.L),
                            A_eq=A_eq, b_eq=np.ones(len(spec.events)))
    except InfeasibleError:
        raise SlacknessError("instance is infeasible; no stationary policy meets "
                             "the constraints") from None
    policy = []
    for row in np.split(x, np.cumsum([len(e.actions) for e in spec.events])[:-1]):
        s = float(np.sum(row))
        if abs(s - 1.0) > POLICY_TOL:
            raise AssertionError(f"policy block sums to {s!r}")
        policy.append(tuple(float(v) for v in row))
    xi_star = _max_slackness_value(spec)
    return StationarySolution(z_opt=z_opt, policy=tuple(policy),
                              xi_star=xi_star)


def _max_slackness_value(spec: ProblemSpec) -> float:
    """max over policies of min_l(-E[z_l]), solved as an LP.

    The slack variable is shifted by B so it stays nonnegative: any policy
    satisfies min_l(-E[z_l]) >= -B because every |z_l| <= B.
    """
    n, _, A_ub, A_eq = _lp_matrices(spec)
    B = spec.B
    cost = np.zeros(n + 1)
    cost[n] = -1.0  # maximize the shifted slack
    A = np.zeros((spec.L, n + 1))
    A[:, :n] = A_ub
    A[:, n] = 1.0  # E[z_l] + (xi + B) <= B
    Ae = np.zeros((len(spec.events), n + 1))
    Ae[:, :n] = A_eq
    x, _ = solve_lp(cost, A_ub=A, b_ub=np.full(spec.L, B),
                    A_eq=Ae, b_eq=np.ones(len(spec.events)))
    return float(x[n] - B)


def solve_max_slackness(spec: ProblemSpec) -> float:
    """Maximal uniform slackness xi*.  Raises :class:`SlacknessError` when no
    policy achieves strictly positive slack."""
    xi = _positive_slackness(_max_slackness_value(spec))
    if xi > spec.B + POLICY_TOL:
        raise AssertionError(f"slackness {xi!r} exceeds the increment bound {spec.B!r}")
    return xi


# ---------------------------------------------------------------------------
# grid-search oracles
# ---------------------------------------------------------------------------

def simplex_grid(n_actions: int, resolution: int) -> np.ndarray:
    """All probability vectors over ``n_actions`` whose coordinates are
    multiples of 1/resolution; shape (count, n_actions).

    Rows are in lexicographic order of their integer counts, which is the
    order of ``itertools.combinations`` over stars-and-bars positions.  The
    counts are built one column at a time: each row whose last column still
    holds ``left`` units splits into ``left + 1`` rows that place 0..left
    units in the new column and leave the rest in the last one.  The last
    split writes its counts straight into the float output, which is then
    divided by ``resolution`` in place, so the output and one column of
    temporaries are all that is ever held at full size.
    """
    out = np.empty((simplex_grid_size(n_actions, resolution), n_actions))
    cols = [np.array([resolution], dtype=np.int64)]
    for _ in range(n_actions - 2):
        reps = cols[-1] + 1
        placed = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        cols = [np.repeat(c, reps) for c in cols]
        cols[-1:] = [placed, cols[-1] - placed]
    if n_actions == 1:
        out[:, 0] = cols[0]
    else:
        reps = cols[-1] + 1
        for j, c in enumerate(cols[:-1]):
            out[:, j] = np.repeat(c, reps)
        placed = out[:, -2]
        placed[:] = np.arange(out.shape[0])
        placed -= np.repeat(np.cumsum(reps) - reps, reps)
        out[:, -1] = np.repeat(cols[-1], reps)
        out[:, -1] -= placed
    out /= float(resolution)
    return out


def grid_points_budget(spec: ProblemSpec, resolution: int) -> int:
    total = 1
    for e in spec.events:
        total *= simplex_grid_size(len(e.actions), resolution)
    return total


def simplex_grid_size(n_actions: int, resolution: int) -> int:
    if n_actions < 1:
        raise ValueError(f"n_actions must be at least 1, got {n_actions!r}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution!r}")
    return math.comb(resolution + n_actions - 1, n_actions - 1)


def _event_grid_contributions(spec: ProblemSpec, resolution: int) -> list[np.ndarray]:
    """Per event: array (L+1, grid points) of probability-weighted
    contributions (cost first, then each constraint)."""
    out = []
    for e, rows in zip(spec.events, np.moveaxis(spec.action_table, 0, -1)):
        vals = np.ascontiguousarray(rows[:len(e.actions)])  # (actions, L+1)
        weighted = e.probability * (simplex_grid(len(e.actions), resolution) @ vals)
        out.append(np.ascontiguousarray(weighted.T))
    return out


def _iter_grid_chunks(spec: ProblemSpec, resolution: int, chunk: int = 1 << 20):
    """Iterate the full product grid in chunks of at most ``chunk`` joint
    policies, yielding (L+1, points) arrays of expected (cost, constraints).

    Every joint value is summed event by event from zero,
    ``((0 + c_0) + c_1) + ...``, so it is the same float whatever order the
    joint points are visited in (starting from zero also turns a -0.0 sum
    into +0.0).  The leading events whose joint grid fits in ``chunk`` points,
    never the last event, are broadcast into one prefix table; the next event
    is taken in slices such that prefix x slice fits; every later event is
    visited one grid point at a time and added in place.  A joint grid that
    fits in one chunk is thus one slice.  Memory stays at one chunk plus the
    prefix table (itself at most one chunk) and the per-event contributions,
    whatever the size of the joint grid.
    """
    contribs = _event_grid_contributions(spec, resolution)
    width = spec.L + 1
    prefix = np.zeros((width, 1))
    k = 0
    while k < len(contribs) - 1 and prefix.shape[1] * contribs[k].shape[1] <= chunk:
        prefix = (prefix[:, :, None] + contribs[k][:, None, :]).reshape(width, -1)
        k += 1
    split, later = contribs[k], contribs[k + 1:]
    step = chunk // prefix.shape[1]
    for point in np.ndindex(*(c.shape[1] for c in later)):
        for lo in range(0, split.shape[1], step):
            acc = (prefix[:, :, None] + split[:, None, lo:lo + step]).reshape(width, -1)
            for c, i in zip(later, point):
                acc += c[:, i:i + 1]
            yield acc


GRID_MAX_POINTS = 1 << 25  # small instances only, where exhaustion is airtight


@functools.lru_cache(maxsize=1)
def _grid_extremes(spec: ProblemSpec, resolution: int) -> tuple[float | None, float]:
    """Both grid oracles from one walk of the joint grid, read off each
    point's max_l E[z_l]: the least cost where it is <= 1e-12 (None if
    nowhere), and minus its minimum.  Cached, as callers ask for both."""
    if grid_points_budget(spec, resolution) > GRID_MAX_POINTS:
        raise ValueError("joint grid too large; shrink the instance or resolution")
    best, least_worst = None, math.inf
    for acc in _iter_grid_chunks(spec, resolution):
        worst = np.max(acc[1:], axis=0)
        least_worst = min(least_worst, float(np.min(worst)))
        feas = worst <= 1e-12
        if feas.any():
            m = float(np.min(acc[0][feas]))
            best = m if best is None else min(best, m)
    # max_x min_l(-z_l) == -min_x max_l(z_l): negation is exact
    return best, -least_worst


def grid_stationary_optimum(spec: ProblemSpec, resolution: int = 200) -> float | None:
    """Exhaustive minimum cost over the product of per-event simplex grids,
    restricted to grid points meeting every constraint expectation; None
    when no grid point is feasible."""
    return _grid_extremes(spec, resolution)[0]


def grid_max_slackness(spec: ProblemSpec, resolution: int = 200) -> float:
    """Exhaustive max over the joint grid of min_l(-E[z_l])."""
    return _grid_extremes(spec, resolution)[1]
