"""The per-slot decision rule and the single-path simulation loop.

The controller sees only the realized event and the current queue vector,
never the event probabilities; ground-truth quantities that need the
distribution live in :mod:`dpp_lab.oracle`.

Float evaluation order is pinned: an action's score is ``V*z0`` followed by
``+= q[l]*z[l]`` for l ascending.  The vectorized batch engine replays the
same order, over one (event, action, path) score tensor per slot, so the two
engines agree bit for bit, and both pick actions from their scores through
:func:`pick_actions`: the scalar engine from the realized event's row, the
batch engine for every event at once along the tensor's action axis.
"""

from __future__ import annotations

from array import array

import numpy as np

from .core import ActionVector, EventOutcome, PathTrace, ProblemSpec, row_norm_sq
from .events import sample_block

CHAOS_MODES = ("skip-minimization", "worst-action")


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


def pick_actions(scores: np.ndarray, chaos: str | None = None) -> np.ndarray:
    """Action index along axis 1 of a score array, one per row of an (N, K)
    array or per (event, path) of a (W, K, N) one: the lowest-index
    minimizer (exact ties go to the lowest index, as in
    :func:`select_action`), or under ``chaos`` index 0
    (``skip-minimization``) or the lowest-index finite maximizer
    (``worst-action``).  Padding entries must be +inf so they never win."""
    s = np.moveaxis(scores, 1, 0)
    if chaos == "skip-minimization":
        return np.zeros(s.shape[1:], dtype=np.int64)
    if chaos == "worst-action":  # the largest finite score, negated, is least
        s = np.where(np.isfinite(s), -s, np.inf)
    elif chaos is not None:
        raise ValueError(f"unknown chaos mode {chaos!r}; choices: {CHAOS_MODES}")
    low = np.minimum.reduce(s, axis=0)
    # the pick is the number of leading actions scored above the minimum
    above = s[0] != low
    pick = above.astype(np.int64)
    for k in range(1, s.shape[0] - 1):
        above &= s[k] != low
        pick += above
    return pick


def run_path(spec: ProblemSpec, seed: int, T: int, chaos: str | None = None) -> PathTrace:
    """Simulate one path of length T from empty queues.

    Deterministic in (spec, seed, T): event draws are pure functions of
    (seed, t) and the decision rule is deterministic.  ``chaos`` switches in a
    deliberately broken decision rule for negative-control testing.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    L, V = spec.L, spec.V
    ids = sample_block(spec, seed, T)
    id_list = ids.tolist()
    # per event: ([V*z0 ...], [z tuples ...]) with V folded in once
    tables = [([V * a.z0 for a in e.actions], [a.z for a in e.actions])
              for e in spec.events]
    q = [0.0] * L
    rng_l = range(L)
    a_idx = array("q")
    q_buf = array("d", q)  # row-major (T+1, L): the queues before each slot, then the last
    for e in id_list:
        vz0s, zs = tables[e]
        if chaos is None:
            best_k = 0
            best = vz0s[0]
            zrow = zs[0]
            for l in rng_l:
                best += q[l] * zrow[l]
            for k in range(1, len(vz0s)):
                v = vz0s[k]
                zrow = zs[k]
                for l in rng_l:
                    v += q[l] * zrow[l]
                if v < best:
                    best, best_k = v, k
        else:
            scores = [action_score(q, a, V) for a in spec.events[e].actions]
            best_k = int(pick_actions(np.array([scores]), chaos)[0])
        zrow = zs[best_k]
        for l in rng_l:
            nq = q[l] + zrow[l]
            q[l] = 0.0 if nq < 0.0 else nq
        q_buf.extend(q)
        a_idx.append(best_k)
    del id_list
    actions = np.frombuffer(a_idx, dtype=np.int64)
    qs = np.frombuffer(q_buf, dtype=np.float64).reshape(T + 1, L)
    # the chosen action's z0 and z, gathered from padded (event, action) tables
    z0_tab = np.zeros((len(spec.events), spec.max_actions))
    z_tab = np.zeros((len(spec.events), spec.max_actions, L))
    for i, event in enumerate(spec.events):
        for k, a in enumerate(event.actions):
            z0_tab[i, k] = a.z0
            z_tab[i, k] = a.z
    n2 = row_norm_sq(qs)  # in drift()'s float order
    return PathTrace(
        spec_digest=spec.digest,
        seed=seed,
        event_ids=ids,
        action_indices=actions,
        z0=z0_tab[ids, actions],
        z=z_tab[ids, actions],
        q=qs,
        drift=0.5 * (n2[1:] - n2[:-1]),
    )
