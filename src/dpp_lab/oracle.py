"""Ground-truth computations that require the event distribution.

Two linear programs over per-event randomized policies: the minimum
achievable long-run cost subject to all constraint expectations being
nonpositive, and the maximum uniform slackness of those expectations.  Both
are cross-checked by exhaustive grid search over per-event probability
simplices (see :func:`grid_stationary_optimum`), which is the independent
oracle the simplex solver is validated against.

The grid oracle lists each event's simplex grid in lexicographic order of
its integer counts and sums every joint (cost, constraints) value event by
event from zero, in event order, so each value is the same float whichever
order the joint points are visited in; only the min and max are reported.
Joint points are evaluated in chunks of at most 2**20, so memory stays at
about two chunks of (L+1) floats plus the per-event grids, whatever the size
of the joint grid.

Also the exact conditional one-step expectations of the controller's rule,
evaluated by enumerating the event support rather than by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controller import select_action
from .core import ProblemSpec
from .simplex import LpStatus, solve_lp

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

    z_opt: float | None
    policy: tuple[tuple[float, ...], ...] | None
    xi_star: float | None
    lp_status: LpStatus

    def to_json_dict(self) -> dict:
        return {
            "z_opt": self.z_opt,
            "xi_star": self.xi_star,
            "policy": None if self.policy is None else [list(row) for row in self.policy],
            "lp_status": self.lp_status.value,
        }

    def option_marginals(self, spec: ProblemSpec) -> np.ndarray:
        """Event-averaged probability of each action index (padded by zeros
        for events with fewer actions)."""
        if self.policy is None:
            raise ValueError("no policy available")
        out = np.zeros(spec.max_actions)
        for e, row in zip(spec.events, self.policy):
            for k, p in enumerate(row):
                out[k] += e.probability * p
        return out


def _policy_blocks(spec: ProblemSpec) -> list[tuple[int, int]]:
    """(start, length) of each event's slice of the policy variable vector."""
    blocks = []
    start = 0
    for e in spec.events:
        blocks.append((start, len(e.actions)))
        start += len(e.actions)
    return blocks


def _lp_matrices(spec: ProblemSpec):
    blocks = _policy_blocks(spec)
    n = blocks[-1][0] + blocks[-1][1]
    cost = np.zeros(n)
    A_ub = np.zeros((spec.L, n))
    A_eq = np.zeros((len(spec.events), n))
    for (start, _), e, row in zip(blocks, spec.events, A_eq):
        for k, a in enumerate(e.actions):
            j = start + k
            cost[j] = e.probability * a.z0
            for l in range(spec.L):
                A_ub[l, j] = e.probability * a.z[l]
            row[j] = 1.0
    return n, cost, A_ub, A_eq


def solve_stationary_optimum(spec: ProblemSpec) -> StationarySolution:
    """Minimize expected cost over per-event action distributions subject to
    every constraint expectation being <= 0.  Returns the exact simplex
    optimum together with the maximal slackness of the instance."""
    n, cost, A_ub, A_eq = _lp_matrices(spec)
    res = solve_lp(cost, A_ub=A_ub, b_ub=np.zeros(spec.L),
                   A_eq=A_eq, b_eq=np.ones(len(spec.events)))
    if res.status is not LpStatus.OPTIMAL:
        return StationarySolution(None, None, None, LpStatus.INFEASIBLE)
    policy = []
    for start, length in _policy_blocks(spec):
        row = res.x[start:start + length]
        s = float(np.sum(row))
        if abs(s - 1.0) > POLICY_TOL:
            raise AssertionError(f"policy block sums to {s!r}")
        policy.append(tuple(float(v) for v in row))
    xi_star = _max_slackness_value(spec)
    return StationarySolution(z_opt=float(res.objective), policy=tuple(policy),
                              xi_star=xi_star, lp_status=LpStatus.OPTIMAL)


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
    res = solve_lp(cost, A_ub=A, b_ub=np.full(spec.L, B),
                   A_eq=Ae, b_eq=np.ones(len(spec.events)))
    if res.status is not LpStatus.OPTIMAL:
        raise AssertionError(f"slackness LP ended {res.status}")
    return float(res.x[n] - B)


def solve_max_slackness(spec: ProblemSpec) -> float:
    """Maximal uniform slackness xi*.  Raises :class:`SlacknessError` when no
    policy achieves strictly positive slack."""
    xi = _max_slackness_value(spec)
    if xi <= 0.0:
        raise SlacknessError(
            f"maximal slackness {xi!r} is not positive; the instance admits no "
            "strictly feasible stationary policy")
    if xi > spec.B + POLICY_TOL:
        raise AssertionError(f"slackness {xi!r} exceeds the increment bound {spec.B!r}")
    return xi


def exact_conditional_dpp_expectation(spec: ProblemSpec, q, z_opt: float) -> float:
    """Exact expectation, over the event distribution, of
    V*(z0 - z_opt) + sum_l q[l] * z_l at the controller's own choice.

    The decision rule never sees probabilities; they enter only here, in the
    enumeration.  A correct controller keeps this nonpositive for every
    nonnegative q.
    """
    q = list(q)
    if len(q) != spec.L:
        raise ValueError("queue dimension does not match spec")
    if any(v < 0.0 for v in q):
        raise ValueError("queue vector must be nonnegative")
    V = spec.V
    acc = 0.0
    for e in spec.events:
        _, score = select_action(q, e, V)
        acc += e.probability * (score - V * z_opt)
    return acc


def exact_conditional_truncated_expectation(spec: ProblemSpec, q1: float,
                                            z_opt: float, cap: float) -> float:
    """Single-constraint variant with the queue weight clipped at ``cap``:
    expectation of V*(z0 - z_opt) + min(q1, cap) * z_1 at the controller's
    (unclipped) choice."""
    if spec.L != 1:
        raise ValueError("truncated expectation is defined for one constraint")
    if q1 < 0.0:
        raise ValueError("queue value must be nonnegative")
    V = spec.V
    w = min(q1, cap)
    acc = 0.0
    for e in spec.events:
        k, _ = select_action([q1], e, V)
        a = e.actions[k]
        acc += e.probability * (V * (a.z0 - z_opt) + w * a.z[0])
    return acc


# ---------------------------------------------------------------------------
# grid-search oracles
# ---------------------------------------------------------------------------

def _check_grid_args(n_actions: int, resolution: int) -> None:
    if n_actions < 1:
        raise ValueError(f"n_actions must be at least 1, got {n_actions!r}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution!r}")


def simplex_grid(n_actions: int, resolution: int) -> np.ndarray:
    """All probability vectors over ``n_actions`` whose coordinates are
    multiples of 1/resolution; shape (count, n_actions).

    Rows are in lexicographic order of their integer counts, which is the
    order of ``itertools.combinations`` over stars-and-bars positions.  The
    counts are built one column at a time: each row whose last column still
    holds ``left`` units splits into ``left + 1`` rows that place 0..left
    units in the new column and leave the rest in the last one.
    """
    _check_grid_args(n_actions, resolution)
    cols = [np.array([resolution], dtype=np.int64)]
    for _ in range(n_actions - 1):
        reps = cols[-1] + 1
        placed = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
        cols = [np.repeat(c, reps) for c in cols]
        cols[-1:] = [placed, cols[-1] - placed]
    out = np.empty((cols[0].shape[0], n_actions))
    for j, c in enumerate(cols):
        out[:, j] = c / float(resolution)
    return out


def grid_points_budget(spec: ProblemSpec, resolution: int) -> int:
    total = 1
    for e in spec.events:
        total *= simplex_grid_size(len(e.actions), resolution)
    return total


def simplex_grid_size(n_actions: int, resolution: int) -> int:
    _check_grid_args(n_actions, resolution)
    return math.comb(resolution + n_actions - 1, n_actions - 1)


def _event_grid_contributions(spec: ProblemSpec, resolution: int) -> list[np.ndarray]:
    """Per event: array (L+1, grid points) of probability-weighted
    contributions (cost first, then each constraint)."""
    out = []
    for e in spec.events:
        vals = np.empty((len(e.actions), spec.L + 1))
        for k, a in enumerate(e.actions):
            vals[k, 0] = a.z0
            vals[k, 1:] = a.z
        weighted = e.probability * (simplex_grid(len(e.actions), resolution) @ vals)
        out.append(np.ascontiguousarray(weighted.T))
    return out


def _iter_grid_chunks(spec: ProblemSpec, resolution: int, chunk: int = 1 << 20):
    """Iterate the full product grid in chunks of at most ``chunk`` joint
    policies, yielding (L+1, points) arrays of expected (cost, constraints).

    Every joint value is summed event by event from zero,
    ``((0 + c_0) + c_1) + ...``, so it is the same float whatever order the
    joint points are visited in (starting from zero also turns a -0.0 sum
    into +0.0).  The leading events whose joint grid fits in ``chunk`` points
    are broadcast into one prefix table; the next event is taken in slices
    such that prefix x slice fits; every later event is visited one grid
    point at a time and added in place.  Memory therefore stays at one chunk
    plus the prefix table (itself at most one chunk) and the per-event
    contributions, whatever the size of the joint grid.
    """
    contribs = _event_grid_contributions(spec, resolution)
    width = spec.L + 1
    prefix = np.zeros((width, 1))
    k = 0
    while k < len(contribs) and prefix.shape[1] * contribs[k].shape[1] <= chunk:
        prefix = (prefix[:, :, None] + contribs[k][:, None, :]).reshape(width, -1)
        k += 1
    if k == len(contribs):
        yield prefix
        return
    split, later = contribs[k], contribs[k + 1:]
    step = chunk // prefix.shape[1]
    for point in np.ndindex(*(c.shape[1] for c in later)):
        for lo in range(0, split.shape[1], step):
            acc = (prefix[:, :, None] + split[:, None, lo:lo + step]).reshape(width, -1)
            for c, i in zip(later, point):
                acc += c[:, i:i + 1]
            yield acc


def grid_stationary_optimum(spec: ProblemSpec, resolution: int = 200,
                            max_points: int = 1 << 25) -> float | None:
    """Exhaustive minimum cost over the product of per-event simplex grids,
    restricted to grid points meeting every constraint expectation.

    Returns None when no grid point is feasible.  Refuses instances whose
    joint grid exceeds ``max_points``; the point of this oracle is small
    instances where exhaustion is airtight.
    """
    if grid_points_budget(spec, resolution) > max_points:
        raise ValueError("joint grid too large; shrink the instance or resolution")
    best = None
    for acc in _iter_grid_chunks(spec, resolution):
        feas = np.all(acc[1:] <= 1e-12, axis=0)
        if np.any(feas):
            m = float(np.min(acc[0][feas]))
            best = m if best is None else min(best, m)
    return best


def grid_max_slackness(spec: ProblemSpec, resolution: int = 200,
                       max_points: int = 1 << 25) -> float:
    """Exhaustive max over the joint grid of min_l(-E[z_l])."""
    if grid_points_budget(spec, resolution) > max_points:
        raise ValueError("joint grid too large; shrink the instance or resolution")
    best = -np.inf
    for acc in _iter_grid_chunks(spec, resolution):
        # max_x min_l(-z_l) == -min_x max_l(z_l): negation is exact
        best = max(best, -float(np.min(np.max(acc[1:], axis=0))))
    return best
