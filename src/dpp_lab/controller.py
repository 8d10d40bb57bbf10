"""The per-slot decision rule and the single-path simulation loop.

The controller sees only the realized event and the current queue vector,
never the event probabilities; ground-truth quantities that need the
distribution live in :mod:`dpp_lab.oracle`.

Float evaluation order is pinned: an action's score is ``V*z0`` followed by
``+= q[l]*z[l]`` for l ascending.  :class:`ScoreTensor`, the one vectorized
scorer, keeps that order for a batch of queue states: the new states of the
lockstep engine's transition table, its paths once a batch hands over, or
:func:`run_path`'s chaos rule.
:func:`run_path`'s honest rule replays it in plain Python, so the engines
agree bit for bit.

A decision is a pure function of the realized event and the queue vector,
so :func:`run_path` decides each distinct (event, queue vector) pair of a
path once while its states repeat, and replays that decision on later
visits; once a block of slots brings mostly new pairs, it decides every
remaining slot.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Callable

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
    """Every (event, action) score of N queue states (a batch's paths, its
    table's new states, or one queue vector), shape (W, K, N), states
    contiguous, in buffers allocated once, and each event's action from it.
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

    def every_event(self) -> np.ndarray:
        """z0 and every z_l, shape (1+L, W*N), of the action chosen for each
        (event, state) pair, event-major: every event's decision."""
        return self.flat.take((self.picks + self._first).ravel(), axis=1, mode="clip")

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


RUN_PATH_BLOCK = 4096  # slots between run_path's checks of its table's hit rate


def _step_rule(spec: ProblemSpec, chaos: str | None) -> Callable[[int, list[float]], int]:
    """``step(e, q)``: decide the slot of event ``e`` at the queue vector
    ``q`` (a list), apply the queue update ``max(q + z, 0)`` to ``q`` in
    place and return the action index.  The honest rule scores in the
    pinned float order in plain Python, since a numpy call per slot costs
    far more at one path; a chaos rule goes through :class:`ScoreTensor` at
    one state."""
    table = spec.action_table
    # per event, trimmed to its actions: ([V*z0 ...], [z rows ...]) with V folded in once
    tables = [((spec.V * table[0, i, :len(e.actions)]).tolist(),
               table[1:, i, :len(e.actions)].T.tolist()) for i, e in enumerate(spec.events)]
    rng_l = range(spec.L)
    if chaos is not None:
        kernel = ScoreTensor(spec, 1)

        def step(e: int, q: list[float]) -> int:
            kernel.choose(q, chaos)
            k = int(kernel.picks[e, 0])
            zrow = tables[e][1][k]
            for l in rng_l:
                nq = q[l] + zrow[l]
                q[l] = 0.0 if nq < 0.0 else nq
            return k
        return step

    def step(e: int, q: list[float]) -> int:
        vz0s, zs = tables[e]
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
        zrow = zs[best_k]
        for l in rng_l:
            nq = q[l] + zrow[l]
            q[l] = 0.0 if nq < 0.0 else nq
        return best_k
    return step


def run_path(spec: ProblemSpec, seed: int, T: int, chaos: str | None = None) -> PathTrace:
    """Simulate one path of length T from empty queues.

    Deterministic in (spec, seed, T): event draws are pure functions of
    (seed, t) and the decision rule is deterministic.  ``chaos`` switches in a
    deliberately broken decision rule for negative-control testing.

    The decision, and so the next queue vector, is a pure function of the
    realized event and the queue vector, so the path is first run over a
    table: queue vectors are numbered as first visited, each (state, event)
    pair is decided once, and later visits replay it.  The path runs in
    blocks of :data:`RUN_PATH_BLOCK` slots; after a block in which more than
    half the slots were decided afresh, the rest of the path decides every
    slot.  Only a slot decided afresh adds a state, at most half the slots
    of every tabled block but the last, so the table holds at most
    (T + RUN_PATH_BLOCK)/2 + 1 states, each with W entries.  Both phases
    make the same float operations in the same order, so the arrays do not
    depend on where the hand-over falls.
    """
    if T < 1:
        raise ValueError("T must be at least 1")
    L, W = spec.L, len(spec.events)
    ids = sample_block(spec, seed, T)
    step = _step_rule(spec, chaos)
    table = spec.action_table
    a_idx = array("q")
    # tabled phase.  A sum is -0.0 only when both terms are, and the queues
    # start at +0.0, so they never hold -0.0 and equal tuples have equal bits.
    states = [(0.0,) * L]
    number = {states[0]: 0}
    trans: list[tuple[int, int] | None] = [None] * W  # [s*W + e]: (k, s_next*W)
    visits = array("q", [0])  # s*W of the queues before each slot, then the last
    events = iter(ids.tolist())
    s = 0
    for block in iter(lambda: list(islice(events, RUN_PATH_BLOCK)), []):
        misses = 0
        for e in block:
            hit = trans[s + e]
            if hit is None:
                misses += 1
                q = list(states[s // W])
                k = step(e, q)
                nq = tuple(q)
                n = number.setdefault(nq, len(states))
                if n == len(states):
                    states.append(nq)
                    trans.extend([None] * W)
                hit = trans[s + e] = (k, n * W)
            k, s = hit
            a_idx.append(k)
            visits.append(s)
        if 2 * misses > len(block):
            break
    visited = np.frombuffer(visits, dtype=np.int64)
    visited //= W
    q_buf = array("d")  # row-major (T+1, L): the queues before each slot, then the last
    q_buf.frombytes(memoryview(np.array(states).reshape(-1, L)[visited]).cast("B"))
    del trans, number, states, visits, visited
    # plain phase: decide every remaining slot
    q = q_buf[-L:].tolist()
    for e in events:
        a_idx.append(step(e, q))
        q_buf.extend(q)
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
