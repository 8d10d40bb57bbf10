"""Shared generators for randomized oracle cross-checks, and the reference
grid oracle they are checked against."""

import itertools
import math

import numpy as np

from dpp_lab import ActionVector, EventOutcome, ProblemSpec
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
    for eid, (n_actions, p) in enumerate(zip(shape, probs)):
        actions = []
        for k in range(n_actions):
            z0 = float(np.round(rng.uniform(0.0, 1.0), 3))
            if k == 0:
                z = rng.uniform(-1.0, -0.2, size=L)
            else:
                z = rng.uniform(-1.0, 1.0, size=L)
            z = tuple(float(np.round(v, 3)) for v in z)
            actions.append(ActionVector(z0, z))
        events.append(EventOutcome(id=eid, probability=float(p), actions=tuple(actions)))
    spec = ProblemSpec(events=tuple(events), L=L, z_max=1.0,
                       B=math.sqrt(float(L)), V=1.0)
    assert grid_points_budget(spec, 200) <= GRID_BUDGET
    return spec


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
