"""Seeded i.i.d. event sampling and ready-made problem builders.

Sampling is counter based: the draw for slot t is a pure function of
(seed, t), so any slot of any path can be regenerated in isolation and
batches can be split across workers without coordination.  The generator is
the splitmix64 output function evaluated at counter t, which is bit-exact
across platforms.  The finalizer is written once, over uint64 arrays; its
scalar reference ``mix64`` lives in ``tests/helpers.py``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import ActionVector, EventOutcome, ProblemSpec

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x6A09E667F3BCC909  # domain separation for derived stream seeds
_G, _M1, _M2 = (np.uint64(c) for c in (_GOLDEN, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))
_S11, _S27, _S30, _S31 = (np.uint64(c) for c in (11, 27, 30, 31))


def derive_seeds(master: int, start: int, count: int) -> np.ndarray:
    """Seeds of substreams ``start .. start+count-1`` of ``master``, one per
    path: those outputs of the stream keyed by output 0 of the stream
    keyed by ``master ^ _STREAM_SALT``."""
    return u64_block(int(u64_block(master ^ _STREAM_SALT, 0, 1)[0]), start, count)


def _mix64_block(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of every entry of the uint64 array ``x``, in
    place.  uint64 array arithmetic wraps modulo 2**64 without a warning."""
    tmp = np.empty_like(x)
    np.right_shift(x, _S30, out=tmp)
    x ^= tmp
    x *= _M1
    np.right_shift(x, _S27, out=tmp)
    x ^= tmp
    x *= _M2
    np.right_shift(x, _S31, out=tmp)
    x ^= tmp
    return x


def u64_block(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs ``start .. start+count-1`` of the stream keyed by ``seed``;
    output n is splitmix64's finalizer of ``seed + n * golden`` mod 2**64."""
    state = np.arange(start, start + count, dtype=np.uint64)
    state *= _G
    state += np.uint64(seed & _MASK64)
    return _mix64_block(state)


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    return (u64_block(seed, start, count) >> _S11) * 2.0 ** -53


def uniform_across(seeds: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """Uniform double of output n of many streams at once (one per path in a
    lockstep batch), written into the float64 array ``out``."""
    bits = out.view(np.uint64)  # the integer steps run in out's own memory
    np.add(seeds, np.uint64((n * _GOLDEN) & _MASK64), out=bits)
    _mix64_block(bits)
    bits >>= _S11
    np.multiply(bits, 2.0 ** -53, out=out)
    return out


def cumulative_probabilities(spec: ProblemSpec) -> np.ndarray:
    return np.cumsum(np.asarray([e.probability for e in spec.events], dtype=np.float64))


def event_ids(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The event id of each uniform in ``u`` under the cumulative
    probabilities ``cum``: how many of ``cum[:-1]`` lie at or below it.
    Since ``cum`` never decreases, that is ``searchsorted(cum, u,
    side="right")`` clamped to the last event, which also catches a ``u``
    past a ``cum[-1]`` that rounding left just under 1."""
    return (cum[:-1, None] <= u).sum(axis=0, dtype=np.int64)


def sample_block(spec: ProblemSpec, seed: int, T: int) -> np.ndarray:
    """Event ids for slots 1..T in one vectorized call."""
    return event_ids(cumulative_probabilities(spec), uniform_block(seed, 1, T))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

_SERVICE_OPTIONS = ((1, 1, 0), (1, 0, 1), (0, 1, 1))
_SERVICE_COSTS = (1.0, 1.0, 2.0)


def build_server_scheduling_spec(arrival_means=(0.5, 0.7, 0.4), V: float = 10.0) -> ProblemSpec:
    """The 3-queue / 2-server benchmark.

    Eight event outcomes enumerate the Bernoulli arrival triples (first queue
    is the most significant bit) with product probabilities.  Each event
    offers the three two-server service patterns; serving pattern k costs
    ``_SERVICE_COSTS[k]`` units and the constraint increments are
    arrivals minus service.
    """
    means = tuple(float(m) for m in arrival_means)
    if len(means) != 3 or any(not 0.0 < m < 1.0 for m in means):
        raise ValueError("arrival means must be three values strictly inside (0, 1)")
    events = []
    for bits in itertools.product((1, 0), repeat=3):
        # event 0 is a=(1,1,1), event 7 is a=(0,0,0): 4*(1-a1)+2*(1-a2)+(1-a3)
        p = 1.0
        for a, m in zip(bits, means):
            p *= m if a == 1 else 1.0 - m
        actions = tuple(
            ActionVector(cost, tuple(float(a - b) for a, b in zip(bits, srv)))
            for cost, srv in zip(_SERVICE_COSTS, _SERVICE_OPTIONS)
        )
        events.append(EventOutcome(p, actions))
    return ProblemSpec(events=tuple(events), L=3, z_max=2.0, B=math.sqrt(3.0), V=float(V))


def build_single_queue_spec(arrival_mean: float = 0.5, V: float = 10.0) -> ProblemSpec:
    """One queue, one server that can be rested.

    Two events (arrival / no arrival); two actions per event: idle at zero
    cost, or serve one packet at cost 1.  The single constraint is
    arrivals minus service.
    """
    m = float(arrival_mean)
    if not 0.0 < m < 1.0:
        raise ValueError("arrival mean must lie strictly inside (0, 1)")
    events = []
    for a in (1, 0):
        p = m if a == 1 else 1.0 - m
        actions = (
            ActionVector(0.0, (float(a),)),      # idle
            ActionVector(1.0, (float(a - 1),)),  # serve
        )
        events.append(EventOutcome(p, actions))
    return ProblemSpec(events=tuple(events), L=1, z_max=1.0, B=1.0, V=float(V))


BUILTIN_SPECS = {
    "server-scheduling-3x2": build_server_scheduling_spec,
    "single-queue-serve-idle": build_single_queue_spec,
}


def builtin_spec(name: str, V: float) -> ProblemSpec:
    try:
        builder = BUILTIN_SPECS[name]
    except KeyError:
        raise ValueError(f"unknown builtin problem {name!r}; "
                         f"choices: {sorted(BUILTIN_SPECS)}") from None
    return builder(V=V)
