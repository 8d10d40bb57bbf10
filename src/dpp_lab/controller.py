"""The per-slot decision rule and the single-path simulation loop.

The controller sees only the realized event and the current queue vector,
never the event probabilities; ground-truth quantities that need the
distribution live in :mod:`dpp_lab.oracle`.

Float evaluation order is pinned: an action's score is ``V*z0`` followed by
``+= q[l]*z[l]`` for l ascending.  :class:`ScoreTensor`, the one vectorized
scorer, keeps that order for a batch of queue states: the lockstep engine's
paths or :func:`run_path`'s chaos rule.
:func:`run_path`'s honest rule replays it in plain Python, so the engines
agree bit for bit.
"""

from __future__ import annotations

from array import array

import numpy as np

from .core import PathTrace, ProblemSpec, row_norm_sq
from .events import sample_block

CHAOS_MODES = ("skip-minimization", "worst-action")


def pick_actions(scores: np.ndarray, chaos: str | None = None) -> np.ndarray:
    """Action index along axis 1 of a score array, one per row of an (N, K)
    array or per (event, path) of a (W, K, N) one: the lowest-index
    minimizer (exact ties go to the lowest index), or under ``chaos`` index 0
    (``skip-minimization``) or the lowest-index finite maximizer
    (``worst-action``).  Padding entries must be +inf so they never win."""
    if chaos == "skip-minimization":
        return np.zeros(scores.shape[:1] + scores.shape[2:], dtype=np.int64)
    if chaos == "worst-action":  # the largest finite score, negated, is least
        scores = np.where(np.isfinite(scores), -scores, np.inf)
    elif chaos is not None:
        raise ValueError(f"unknown chaos mode {chaos!r}; choices: {CHAOS_MODES}")
    cols = [scores[:, k] for k in range(scores.shape[1])]
    low = cols[0]
    for col in cols[1:]:
        low = np.minimum(low, col)
    # the pick is the number of leading actions scored above the minimum
    above = cols[0] != low
    pick = above.astype(np.int64)
    for col in cols[1:-1]:
        above &= col != low
        pick += above
    return pick


class ScoreTensor:
    """Every (event, action) score of N queue states (a chunk's paths, or one
    queue vector), shape (W, K, N) with the states contiguous, rebuilt in
    buffers allocated once, and the action each event would get from it.
    The +inf z0 padding of :attr:`ProblemSpec.action_table` never wins."""

    def __init__(self, spec: ProblemSpec, N: int):
        table = spec.action_table
        W, K = table.shape[1:]
        self.probs = np.asarray([e.probability for e in spec.events])[:, None]
        self.V = spec.V
        self.vz0 = (spec.V * table[0])[:, :, None]
        self.z = [zl[:, :, None] for zl in table[1:]]
        # z0 and every z_l of each (event, action) at event*K + action
        self.flat = table.reshape(len(table), W * K)
        self.scores = np.empty((W, K, N))
        # scratch shared by the products of choose() and the per-event
        # terms of expectations(), which never run at the same time
        scratch = np.empty(max(K, 2) * W * N)
        self._tmp = scratch[:W * K * N].reshape(W, K, N)
        self._vals = scratch[:2 * W * N].reshape(2, W, N)
        self._rows = np.arange(N)
        self._first = np.arange(W)[:, None] * K  # index of each event's action 0
        self._pos = self._first * N + self._rows  # ... in the raveled tensor
        self._idx = np.empty((W, N), dtype=np.int64)
        self._sel = np.empty(N, dtype=np.int64)
        self._decision = np.empty((len(table), N))

    def choose(self, q, chaos: str | None) -> None:
        """Score every action against the queues ``q`` (one (N,) array or
        float per constraint) in the pinned float order (``V*z0``, then
        ``+= q[l]*z[l]`` for l ascending) and pick each event's action
        through :func:`pick_actions`."""
        np.copyto(self.scores, self.vz0)
        for zl, ql in zip(self.z, q):
            np.multiply(zl, ql, out=self._tmp)
            self.scores += self._tmp
        self.picks = pick_actions(self.scores, chaos)  # each event's action

    def realized(self, ids: np.ndarray) -> np.ndarray:
        """z0 and every z_l, shape (1+L, N), of the action chosen for each
        state's realized event ``ids``: the decision.  The array is reused by
        the next call."""
        K, N = self.scores.shape[1:]
        sel = self._sel
        # indices are in range by construction; "clip" skips take's buffering
        np.multiply(ids, N, out=sel)
        sel += self._rows
        chosen = self.picks.ravel().take(sel, mode="clip")
        np.multiply(ids, K, out=sel)
        sel += chosen
        return self.flat.take(sel, axis=1, out=self._decision, mode="clip")

    def expectations(self, z_opt: float,
                     trunc: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
        """The exact one-step conditional expectation of the drift-plus-penalty
        expression at the queues of the last :meth:`choose`: each event's
        chosen score less ``V*z_opt``; and, when ``trunc`` (the truncated
        queue of a one-constraint problem) is given, its truncated
        counterpart ``V*(z0 - z_opt) + trunc*z_1`` from the same choices.
        Both are weighted by the event probabilities and summed from zero in
        event order, for every N (one reduction would sum a (W, 1) array
        pairwise)."""
        V, idx, terms, extra = self.V, self._idx, self._vals[0], self._vals[1]
        np.multiply(self.picks, self.scores.shape[2], out=idx)
        idx += self._pos
        np.take(self.scores.reshape(-1), idx, out=terms, mode="clip")
        terms -= V * z_opt
        terms *= self.probs
        expect = _event_sum(terms)
        if trunc is None:
            return expect, None
        np.add(self.picks, self._first, out=idx)
        np.take(self.flat[:2], idx, axis=1, out=self._vals, mode="clip")  # z0, z_1
        terms -= z_opt
        terms *= V
        extra *= trunc
        terms += extra
        terms *= self.probs
        return expect, _event_sum(terms)


def _event_sum(terms: np.ndarray) -> np.ndarray:
    out = np.zeros(terms.shape[1])
    for row in terms:
        out += row
    return out


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
    table = spec.action_table
    # per event, trimmed to its actions: ([V*z0 ...], [z rows ...]) with V folded in once
    tables = [((V * table[0, i, :len(e.actions)]).tolist(),
               table[1:, i, :len(e.actions)].T.tolist()) for i, e in enumerate(spec.events)]
    kernel = None if chaos is None else ScoreTensor(spec, 1)
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
            kernel.choose(q, chaos)
            best_k = int(kernel.picks[e, 0])
        zrow = zs[best_k]
        for l in rng_l:
            nq = q[l] + zrow[l]
            q[l] = 0.0 if nq < 0.0 else nq
        q_buf.extend(q)
        a_idx.append(best_k)
    del id_list
    actions = np.frombuffer(a_idx, dtype=np.int64)
    qs = np.frombuffer(q_buf, dtype=np.float64).reshape(T + 1, L)
    # the chosen action's z0 and z, the latter from a contiguous (W, K, L) copy of the table
    z_tab = np.ascontiguousarray(np.moveaxis(table[1:], 0, -1))
    n2 = row_norm_sq(qs)  # in the stored-trace checker's float order
    return PathTrace(
        event_ids=ids,
        action_indices=actions,
        z0=table[0][ids, actions],
        z=z_tab[ids, actions],
        q=qs,
        drift=0.5 * (n2[1:] - n2[:-1]),
    )
