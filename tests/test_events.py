import math

import numpy as np
import pytest
from helpers import derive_seed, mix64, u64_at, uniform_at
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from dpp_lab.core import PROB_TOL, ActionVector, EventOutcome, ProblemSpec
from dpp_lab.events import (build_server_scheduling_spec, build_single_queue_spec,
                            builtin_spec, cumulative_probabilities, derive_seeds, event_ids,
                            sample_block, u64_block, uniform_across, uniform_block)

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


def test_generator_regression_pins():
    # frozen outputs; a change here breaks replay of every stored seed
    assert mix64(0) == 0
    assert u64_at(0, 1) == 16294208416658607535
    assert u64_at(12345, 7) == 2262534019502804546
    assert uniform_at(42, 1) == 0.7415648787718233
    assert derive_seed(0, 0) == 9464877524578443653
    assert derive_seed(999, 123) == 6239021794866276273


# the vectorized draws wrap uint64 arithmetic in place: "error" shows that
# none of it raises a RuntimeWarning
@pytest.mark.filterwarnings("error")
@given(U64, st.integers(min_value=0, max_value=1 << 32))
def test_vector_generator_matches_scalar(seed, start):
    block = u64_block(seed, start, 8)
    for i in range(8):
        assert int(block[i]) == u64_at(seed, start + i)


@given(U64, st.integers(min_value=1, max_value=1 << 20))
def test_uniform_in_unit_interval(seed, t):
    u = uniform_at(seed, t)
    assert 0.0 <= u < 1.0


@pytest.mark.filterwarnings("error")
def test_uniform_across_matches_per_path():
    seeds = np.asarray([derive_seed(5, i) for i in range(16)], dtype=np.uint64)
    buf = np.empty(16)
    for t in (1, 2, 100, (1 << 64) - 1):
        assert uniform_across(seeds, t, out=buf) is buf
        for i in range(16):
            assert buf[i] == uniform_at(int(seeds[i]), t)
    assert seeds.tobytes() == np.asarray([derive_seed(5, i) for i in range(16)],
                                         dtype=np.uint64).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("start", [0, 1 << 32, 3 << 32, (1 << 63) - 5])
@pytest.mark.parametrize("master", [0, 999, (1 << 64) - 1])
def test_derive_seeds_match_derive_seed(master, start):
    # the last start runs across 2**63
    block = derive_seeds(master, start, 10)
    assert block.dtype == np.uint64
    assert block.tolist() == [derive_seed(master, start + i) for i in range(10)]


def _searchsorted_ids(cum, u):
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


@st.composite
def _cum_and_uniforms(draw):
    """Cumulative probabilities of 1-9 ragged weights, with a last entry up
    to PROB_TOL short of 1, and uniforms that include every boundary and
    the gap past cum[-1]."""
    w = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=9))
    cum = np.cumsum(np.asarray(w, dtype=np.float64) / float(sum(w)))
    cum[-1] = 1.0 - draw(st.sampled_from([0.0, PROB_TOL / 2, PROB_TOL]))
    on = [float(c) for c in cum if c < 1.0]
    below = [float(np.nextafter(c, 0.0)) for c in cum]
    past = [float(np.nextafter(1.0, 0.0))]
    free = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    return cum, np.asarray([0.0] + on + below + past + free)


@pytest.mark.filterwarnings("error")
@given(_cum_and_uniforms())
def test_event_ids_match_clamped_searchsorted(case):
    cum, u = case
    ids = event_ids(cum, u)
    assert ids.dtype == np.int64
    assert ids.tolist() == _searchsorted_ids(cum, u).tolist()


@pytest.mark.filterwarnings("error")
def test_event_ids_single_event_and_boundaries():
    assert event_ids(np.asarray([1.0]), np.asarray([0.0, 0.5, 0.999])).tolist() == [0, 0, 0]
    cum = np.asarray([0.25, 0.5, 1.0 - PROB_TOL])
    u = np.asarray([0.0, 0.25, np.nextafter(0.25, 0.0), 0.5, 1.0 - PROB_TOL, 1.0 - 2 ** -53])
    assert event_ids(cum, u).tolist() == [0, 1, 0, 2, 2, 2]


@pytest.mark.filterwarnings("error")
def test_sample_block_uses_the_clamped_rule(sv_spec):
    u = uniform_block(77, 1, 5000)
    expected = _searchsorted_ids(cumulative_probabilities(sv_spec), u)
    assert sample_block(sv_spec, 77, 5000).tolist() == expected.tolist()


def test_sample_is_pure_in_seed_and_slot(sv_spec):
    full = sample_block(sv_spec, 123, 20)
    assert np.array_equal(sample_block(sv_spec, 123, 20), full)
    # a shorter horizon draws the same prefix: slot t depends on (seed, t) only
    assert np.array_equal(sample_block(sv_spec, 123, 7), full[:7])
    cum = cumulative_probabilities(sv_spec)
    for t in range(1, 21):
        u = uniform_at(123, t)
        assert full[t - 1] == min(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def test_single_event_support_always_sampled():
    a = ActionVector(0.0, (0.0,))
    spec = ProblemSpec(events=(EventOutcome(1.0, (a,)),),
                       L=1, z_max=1.0, B=1.0, V=1.0)
    assert set(sample_block(spec, 9, 1000).tolist()) == {0}


def test_two_event_determinism():
    spec = build_single_queue_spec(arrival_mean=0.5, V=1.0)
    ids = sample_block(spec, 31, 200)
    assert np.array_equal(sample_block(spec, 31, 200), ids)
    assert set(ids.tolist()) == {0, 1}


def _arrival_bits(eid: int) -> tuple[int, int, int]:
    return (1 - ((eid >> 2) & 1), 1 - ((eid >> 1) & 1), 1 - (eid & 1))


def test_benchmark_arrival_means_converge(sv_spec):
    n = 1_000_000
    ids = sample_block(sv_spec, 2718, n)
    bits = np.asarray([_arrival_bits(e) for e in range(8)])
    counts = np.bincount(ids, minlength=8)
    means = (counts[:, None] * bits).sum(axis=0) / n
    for m, target in zip(means, (0.5, 0.7, 0.4)):
        assert abs(m - target) < 0.005


def test_chi_square_goodness_of_fit(sv_spec):
    n = 1_000_000
    ids = sample_block(sv_spec, 314159, n)
    counts = np.bincount(ids, minlength=8)
    expected = np.asarray([e.probability for e in sv_spec.events]) * n
    res = scipy_stats.chisquare(counts, expected)
    assert res.pvalue > 0.001


def test_benchmark_spec_structure():
    spec = build_server_scheduling_spec(V=10.0)
    assert len(spec.events) == 8 and spec.L == 3
    assert spec.z_max == 2.0 and spec.B == math.sqrt(3.0)
    by_bits = {_arrival_bits(i): e for i, e in enumerate(spec.events)}
    assert by_bits[(1, 1, 0)].probability == pytest.approx(0.5 * 0.7 * 0.6, abs=1e-15)
    total = math.fsum(e.probability for e in spec.events)
    assert abs(total - 1.0) <= 1e-12
    # service patterns and costs
    ev = by_bits[(0, 0, 0)]
    assert ev.actions[0] == ActionVector(1.0, (-1.0, -1.0, 0.0))
    assert ev.actions[1] == ActionVector(1.0, (-1.0, 0.0, -1.0))
    assert ev.actions[2] == ActionVector(2.0, (0.0, -1.0, -1.0))


def test_benchmark_increment_norm_bound_is_tight():
    spec = build_server_scheduling_spec(V=1.0)
    norms = [math.sqrt(sum(v * v for v in a.z))
             for e in spec.events for a in e.actions]
    assert max(norms) == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert all(n <= spec.B + 1e-12 for n in norms)


def test_binary_fraction_means_sum_exactly_to_one():
    spec = build_server_scheduling_spec(arrival_means=(0.5, 0.25, 0.75), V=1.0)
    assert math.fsum(e.probability for e in spec.events) == 1.0


def test_builder_rejects_bad_means():
    with pytest.raises(ValueError):
        build_server_scheduling_spec(arrival_means=(0.0, 0.5, 0.5), V=1.0)
    with pytest.raises(ValueError):
        build_server_scheduling_spec(arrival_means=(0.5, 1.0, 0.5), V=1.0)
    with pytest.raises(ValueError):
        build_single_queue_spec(arrival_mean=1.0, V=1.0)


def test_builtin_lookup():
    assert builtin_spec("server-scheduling-3x2", V=2.0).V == 2.0
    assert builtin_spec("single-queue-serve-idle", V=3.0).L == 1
    with pytest.raises(ValueError):
        builtin_spec("nope", V=1.0)


def test_derived_seeds_are_distinct():
    seeds = {derive_seed(42, i) for i in range(2000)}
    assert len(seeds) == 2000
    assert all(0 <= s < (1 << 64) for s in seeds)


def test_single_queue_spec_structure():
    spec = build_single_queue_spec(arrival_mean=0.5, V=10.0)
    assert spec.L == 1 and spec.B == 1.0 and spec.z_max == 1.0
    arrival = spec.events[0]
    assert arrival.actions[0] == ActionVector(0.0, (1.0,))   # idle
    assert arrival.actions[1] == ActionVector(1.0, (0.0,))   # serve
    quiet = spec.events[1]
    assert quiet.actions[0] == ActionVector(0.0, (0.0,))
    assert quiet.actions[1] == ActionVector(1.0, (-1.0,))
