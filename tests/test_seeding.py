"""Batch seeding of replicas, and contract v1's stream against numpy's own.

``_replica_seeds`` must give ``derive_replica_seed`` for every replica,
and ensembles seeded this way must equal their replicas run one at a
time through ``simulate_replica``.

The per-epoch stepper of contract v1 draws its uniforms from the test
module ``pcg64`` as v1's driver did: ``pcg64_words`` must give
``SeedSequence(s).generate_state(4, np.uint64)`` for every seed, and a
generator built from those words must draw the stream of ``PCG64(s)``,
as must the array draw ``pcg64_uniforms`` from the words alone.
"""

import numpy as np
import pytest
from conftest import single_group_params, two_group_params
from hypothesis import given, settings
from hypothesis import strategies as st
from pcg64 import ARRAY_DRAW_COLUMNS, ARRAY_DRAW_EPOCHS, Words, pcg64_uniforms, pcg64_words

from diffusim import (
    FULL,
    PAPER_LITERAL,
    DiscreteState,
    derive_replica_seed,
    extinction_time_stochastic,
    monte_carlo_mean,
    simulate_replica,
)
from diffusim.dtmc import _replica_seeds
from diffusim.errors import DomainError

EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1]


def numpy_words(seed):
    return np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)


def small_init():
    return DiscreteState(s=[10], a=[5], dd=[5])


def test_words_match_seed_sequence_at_the_edges():
    words = pcg64_words(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert words.dtype == np.uint64
    np.testing.assert_array_equal(words, np.stack([numpy_words(s) for s in EDGE_SEEDS]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_words_match_seed_sequence(seed):
    np.testing.assert_array_equal(pcg64_words(np.array([seed], dtype=np.uint64))[0], numpy_words(seed))


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, derive_replica_seed(42, 0)])
def test_generator_from_words_draws_the_pcg64_stream(seed):
    words = pcg64_words(np.array([seed], dtype=np.uint64))[0]
    gen = np.random.Generator(np.random.PCG64(Words(words)))
    # drawn in v1's 256-uniform blocks, across three refills
    got = np.concatenate([gen.random(256) for _ in range(4)])[:1000]
    np.testing.assert_array_equal(got, np.random.Generator(np.random.PCG64(seed)).random(1000))


# k = 1, each side of every column-group edge, and the block bound
DRAW_LENGTHS = sorted({1, ARRAY_DRAW_EPOCHS} | {
    k for edge in range(ARRAY_DRAW_COLUMNS, ARRAY_DRAW_EPOCHS + 1, ARRAY_DRAW_COLUMNS)
    for k in (edge, edge + 1) if k <= ARRAY_DRAW_EPOCHS
})


def array_draws(words, k):
    out = np.full((len(words), k), 2.0)
    pcg64_uniforms(np.asarray(words, dtype=np.uint64), k, out)
    return out


def generator_draws(words, k):
    return np.stack([np.random.Generator(np.random.PCG64(Words(np.asarray(w, dtype=np.uint64)))).random(k)
                     for w in words])


@pytest.mark.parametrize("k", DRAW_LENGTHS)
def test_array_draw_is_the_pcg64_stream_at_the_edge_seeds(k):
    got = array_draws(pcg64_words(np.array(EDGE_SEEDS, dtype=np.uint64)), k)
    want = np.stack([np.random.Generator(np.random.PCG64(s)).random(k) for s in EDGE_SEEDS])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(1, ARRAY_DRAW_EPOCHS))
def test_array_draw_is_the_pcg64_stream(seed, k):
    got = array_draws(pcg64_words(np.array([seed], dtype=np.uint64)), k)
    assert got.tobytes() == np.random.Generator(np.random.PCG64(seed)).random(k).tobytes()


TOP = 2**64 - 1
HAND_WORDS = [
    [0, TOP, 0, 0],                 # state_lo + inc_lo carries with inc = 1
    [0, 2**63, 0, 2**62],           # 2^63 + (2^63 + 1) carries by one
    [TOP, TOP, TOP, TOP],           # every sum and product wraps
    [0, 0, 0, 2**63],               # word 3's top bit moves into inc's high half
    [2**63, TOP - 5, 2**63 - 1, 2**63 + 7],
    [0, 0, 0, 0],
]


@pytest.mark.parametrize("k", [1, ARRAY_DRAW_COLUMNS + 1, ARRAY_DRAW_EPOCHS])
def test_array_draw_carries_and_wraps_like_pcg64(k):
    got = array_draws(HAND_WORDS, k)
    assert got.tobytes() == generator_draws(HAND_WORDS, k).tobytes()


def test_array_draw_writes_only_the_first_k_columns():
    words = pcg64_words(_replica_seeds(3, 0, 5))
    out = np.full((5, 12), 2.0)
    pcg64_uniforms(words, 7, out)
    assert out[:, :7].tobytes() == generator_draws(words, 7).tobytes()
    assert (out[:, 7:] == 2.0).all()


def test_replica_seeds_match_the_published_vectors():
    assert _replica_seeds(0, 0, 2).tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert _replica_seeds(42, 0, 2).tolist() == [0xBDD732262FEB6E95, 0x28EFE333B266F103]


@pytest.mark.parametrize("master", [0, 42, -1])
@pytest.mark.parametrize("lo, hi", [(0, 256), (512, 600)])
def test_replica_seeds_match_derive_replica_seed(master, lo, hi):
    seeds = _replica_seeds(master, lo, hi)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_replica_seed(master, r) for r in range(lo, hi)]


def test_ensemble_of_three_chunks_equals_its_replicas_byte_for_byte():
    # 600 replicas, more than one batch of slots, so the stream refills
    p = single_group_params()
    n, seed = 600, 2024
    mc = monte_carlo_mean(p, small_init(), 0.05, 2.0, PAPER_LITERAL, n_replicas=n, seed=seed)
    runs = [simulate_replica(p, small_init(), 0.05, 2.0, PAPER_LITERAL, seed=derive_replica_seed(seed, r))
            for r in range(n)]
    for field, sd_field in (("s", "sd_s"), ("a", "sd_a"), ("dd", "sd_dd")):
        stack = np.stack([getattr(tr, field) for tr in runs])
        mean = stack.sum(axis=0) / float(n)
        var = (np.square(stack).sum(axis=0) - n * mean * mean) / (n - 1.0)
        assert getattr(mc, field).tobytes() == mean.tobytes()
        assert getattr(mc, sd_field).tobytes() == np.sqrt(np.maximum(var, 0.0)).tobytes()


def test_extinction_times_equal_those_of_the_replicas():
    p = two_group_params(alpha=0.5)
    init = DiscreteState(s=[10, 10], a=[1, 1], dd=[1, 1])
    n, seed, dt = 260, 2**64 - 7, 0.02
    summary = extinction_time_stochastic(p, init, dt, 10.0, FULL, n_replicas=n, seed=seed)
    expected = []
    for r in range(n):
        tr = simulate_replica(p, init, dt, 10.0, FULL, seed=derive_replica_seed(seed, r))
        gone = np.flatnonzero(tr.a.sum(axis=1) == 0)
        expected.append(gone[0] * dt if gone.size else np.nan)
    np.testing.assert_array_equal(summary.times, expected)
    assert 0 < summary.n_censored < n


@pytest.mark.parametrize("seed", [-1, 1.5, 2**64], ids=["negative", "fractional", "too_wide"])
def test_replica_seed_outside_the_64_bit_range_is_a_domain_error(seed):
    with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\^64\)"):
        simulate_replica(single_group_params(), small_init(), 0.05, 1.0, PAPER_LITERAL, seed=seed)


@pytest.mark.parametrize("driver", [monte_carlo_mean, extinction_time_stochastic])
@pytest.mark.parametrize("seed", [-1, 1.5, 2**64], ids=["negative", "fractional", "too_wide"])
def test_ensemble_seed_outside_the_64_bit_range_is_a_domain_error(driver, seed):
    # the ensembles must not wrap or truncate a seed that simulate_replica rejects
    with pytest.raises(DomainError, match=r"seed must be an integer in \[0, 2\^64\)"):
        driver(single_group_params(), small_init(), 0.05, 1.0, PAPER_LITERAL, n_replicas=2, seed=seed)


def test_replica_seed_at_the_top_of_the_range_and_as_numpy_integer():
    p = single_group_params()
    top = simulate_replica(p, small_init(), 0.05, 5.0, PAPER_LITERAL, seed=2**64 - 1)
    again = simulate_replica(p, small_init(), 0.05, 5.0, PAPER_LITERAL, seed=np.uint64(2**64 - 1))
    np.testing.assert_array_equal(top.a, again.a)
