"""The event-driven chain against a scalar per-event stepper, byte for byte.

The per-event stepper below is the bit-for-bit oracle of contract v2 (see
the ``dtmc`` docstring). It runs one replica at a time in plain Python:
it hashes its uniforms with a pure-Python SplitMix64, computes each gap
with numpy's ``log1p`` on scalars and picks each event with
``np.searchsorted``. ``_run_replicas`` must reproduce its sample sums and
sums of squares, extinction epochs and summed final states, each
replica's trajectory and final state (replayed as a one-replica batch)
exactly, and raise ``StepSizeError`` for the same runs.

The per-epoch stepper of contract v1, one ``PCG64`` uniform per epoch, is
kept as an oracle in law: it draws different numbers, so v2 must match it
only in distribution. It draws contract v1's stream as v1's driver did
(see the test module ``pcg64``) and reproduces recorded v1 output.
"""

import functools
import math
import re

import numpy as np
import pytest
from conftest import chain_models, finite_stable_dt, single_group_params, two_group_params
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pcg64 import ARRAY_DRAW_EPOCHS, v1_uniforms

from diffusim import (
    FULL,
    PAPER_LITERAL,
    DiscreteState,
    LogisticConfig,
    ModelParams,
    derive_replica_seed,
    dtmc,
    monte_carlo_mean,
    simulate_replica,
)
from diffusim.dtmc import _AHEAD, _BATCH_SLOTS, _KEY_STEPS, _ROW_SUM_SLOTS, _Engine, _mix64, _run_replicas, _select
from diffusim.errors import StepSizeError

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """SplitMix64's finalizer on a Python int in [0, 2^64)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def uniform(seed: int, k: int) -> float:
    """u_k of a replica with 64-bit ``seed``, in pure Python."""
    return (mix64((seed + k * GOLDEN) & MASK) >> 11) * 2.0**-53


def step_events(params, mode, logistic, init, dt, n_epochs, seed, stride):
    """v2 oracle for one replica: (trajectory, extinction epoch, final state, events).

    With ``stride == 0`` the replica stops when its actives run out and the
    trajectory is empty. Raises ``StepSizeError`` naming the epoch it was
    about to simulate from a state whose summed probability exceeds 1, and
    the events before it.
    """
    eng = _Engine(params, mode, dt, logistic)
    m = params.m
    state = np.concatenate([init.s, init.a, init.dd]).astype(np.int64)
    traj = np.zeros(((n_epochs // stride + 1) if stride else 0, 3 * m), dtype=np.int64)
    ext = 0 if state[m : 2 * m].sum() == 0 else -1
    ptr = events = filled = 0
    while ptr < n_epochs and (stride or ext < 0):
        q = np.cumsum(eng.probabilities(state[None, :])[0])
        total = q[-1]
        if total > 1.0:
            raise StepSizeError(f"epoch {ptr} after {events} events")
        u, v = uniform(seed, 2 * events + 1), uniform(seed, 2 * events + 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.maximum(np.ceil(np.log1p(np.float64(-u)) / np.log1p(-total)), 1.0)
        if not ptr + gap <= n_epochs:  # also false for nan
            break
        ptr += int(gap)
        while stride and filled * stride < ptr:  # samples before the event
            traj[filled] = state
            filled += 1
        x = v * total
        k = min(int(np.searchsorted(q, x, side="right")), int(np.searchsorted(q, total, side="left")))
        state += eng.delta[:, k]
        events += 1
        if ext < 0 and state[m : 2 * m].sum() == 0:
            ext = ptr
    traj[filled:] = state
    return traj, ext, state, events


def step_epochs(params, mode, logistic, init, dt, n_epochs, seeds, *,
                stride=0, stop_when_extinct=False):
    """Per-epoch stepper of contract v1: (trajectories, extinction epochs, final states).

    Every epoch draws one uniform from the replica's ``PCG64(seed)`` and
    selects the event it falls in. A replica stopped by
    ``stop_when_extinct`` keeps its state and is no longer checked
    against the step-size bound.
    """
    eng = _Engine(params, mode, dt, logistic)
    m = params.m
    n = len(seeds)
    state = np.tile(np.concatenate([init.s, init.a, init.dd]), (n, 1))
    s, a, dd = state[:, :m], state[:, m : 2 * m], state[:, 2 * m :]
    uniforms = v1_uniforms(seeds, n_epochs)
    traj = np.zeros((n, (n_epochs // stride + 1) if stride else 0, 3 * m), dtype=np.int64)
    if stride:
        traj[:, 0] = state
    ext = np.where(a.sum(axis=1) == 0, 0, -1)
    running = ext < 0 if stop_when_extinct else np.ones(n, dtype=bool)
    p = np.empty((eng.n_events, n))
    q = np.empty_like(p)
    for epoch in range(n_epochs):
        eng.fill_probabilities(state.T, p)
        np.cumsum(p, axis=0, out=q)
        if np.any(q[-1, running] > 1.0):
            raise StepSizeError(f"epoch {epoch}")
        idx = _select(q, uniforms[:, epoch])
        state[running] += eng.delta[:, idx[running]].T
        fresh = (a.sum(axis=1) == 0) & (ext < 0)
        ext[fresh] = epoch + 1
        if stop_when_extinct:
            running &= ext < 0
        if stride and (epoch + 1) % stride == 0:
            traj[:, (epoch + 1) // stride] = state
    return traj, ext, state


def assert_replay_matches_stepper(params, mode, logistic, init, dt, n_epochs, seeds, stride):
    """``_run_replicas`` at ``stride`` (0: first passage) must match the per-event stepper exactly.

    The batch keeps no final state per replica, so each seed is also run
    as its own one-replica batch, whose ``final`` (and with ``stride > 0``
    its ``sums``) must be that seed's own. With ``stride > 0`` the seeds'
    first passage must reach the stepper's extinction epochs.
    """
    try:
        runs = [step_events(params, mode, logistic, init, dt, n_epochs, seed, stride) for seed in seeds]
    except StepSizeError:
        with pytest.raises(StepSizeError):
            _run_replicas(params, mode, logistic, init, dt, n_epochs, seeds, stride=stride)
        return False
    traj = np.stack([r[0] for r in runs])
    out = _run_replicas(params, mode, logistic, init, dt, n_epochs, seeds, stride=stride)
    finals = np.stack([r[2] for r in runs])
    assert out.final.dtype == np.int64
    np.testing.assert_array_equal(out.final, finals.sum(axis=0))
    if not stride:
        assert out.sums is None and out.sumsq is None
        first = out
    else:
        assert out.sums.dtype == np.int64 and out.sumsq.dtype == np.int64 and out.ext_epoch is None
        np.testing.assert_array_equal(out.sums, traj.sum(axis=0))
        np.testing.assert_array_equal(out.sumsq, np.square(traj).sum(axis=0))
        first = _run_replicas(params, mode, logistic, init, dt, n_epochs, seeds)
    np.testing.assert_array_equal(first.ext_epoch, [r[1] for r in runs])
    for seed, want, final in zip(seeds, traj, finals):
        one = _run_replicas(params, mode, logistic, init, dt, n_epochs, [seed], stride=stride)
        np.testing.assert_array_equal(one.final, final)
        if stride:
            np.testing.assert_array_equal(one.sums, want)
    return True


# ------------------------------------------------------------- counter hash


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, GOLDEN, 2**64 - 2 * GOLDEN % 2**64, 2**64 - GOLDEN, 2**64 - 1]


def test_finalizer_matches_a_pure_python_splitmix64():
    words = EDGE_SEEDS + [(s + k * GOLDEN) & MASK for s in EDGE_SEEDS for k in (1, 2, 2**62 + 1)]
    got = _mix64(np.array(words, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.tolist() == [mix64(w) for w in words]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**64 - 1))
def test_finalizer_matches_a_pure_python_splitmix64_on_drawn_words(word):
    assert int(_mix64(np.array([word], dtype=np.uint64))[0]) == mix64(word)


def test_uniforms_wrap_at_two_to_the_64():
    # from 2^64 - gamma up, seed + gamma wraps at the first event, and every
    # seed's key seed + 2j gamma wraps within a few events; dense events run
    # each replica through dozens of them
    p = single_group_params(alpha=1.5)
    init = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))
    assert assert_replay_matches_stepper(p, PAPER_LITERAL, None, init, 0.05, 200, EDGE_SEEDS, 1)


def test_replica_seeds_are_the_master_seeds_counter_hash():
    # derive_replica_seed(s, r) is the master stream's word r + 1
    for master in (0, 42, 2**64 - 1):
        assert [derive_replica_seed(master, r) for r in range(5)] == [
            mix64((master + k * GOLDEN) & MASK) for k in range(1, 6)]


# ------------------------------------------------------------ selection rule


def test_zero_uniform_never_fires_a_zero_probability_event():
    # s_1 = 0, so activate(1) has probability 0; u = 0.0 must pick the
    # first event with positive probability, activate(2)
    p = two_group_params(alpha=1.2)
    eng = _Engine(p, FULL, 1e-3, None)
    q = np.cumsum(eng.probabilities(np.array([[0, 40, 3, 2, 1, 1]])), axis=1)
    assert q[0, 0] == 0.0 and q[0, 1] > 0.0
    assert _select(q.T, np.array([0.0]))[0] == 1


def test_selection_is_a_right_sided_search_at_every_bound():
    p = two_group_params(alpha=1.2)
    eng = _Engine(p, FULL, 1e-3, None)
    q = np.cumsum(eng.probabilities(np.array([[7, 40, 3, 0, 0, 5]])), axis=1)
    row = q[0]
    rng = np.random.default_rng(5)
    probes = np.concatenate([row, np.nextafter(row, -1.0), [0.0, 1.0 - 2**-53],
                             rng.uniform(0.0, 2 * row[-1], 200)])
    got = _select(np.repeat(q.T, probes.size, axis=1), probes)
    np.testing.assert_array_equal(got, np.searchsorted(row, probes, side="right"))
    # no event at or past the last bound
    assert np.all(got[probes >= row[-1]] == row.size)


# ------------------------------------------------ replay vs event stepper


def test_replay_matches_the_stepper_over_many_seeds():
    # 300 table2 replicas in full mode with about one event in eight
    # epochs; sampled epochs fall between unsampled ones
    p = two_group_params(alpha=2.0)
    init = DiscreteState(s=np.array([30, 42]), a=np.array([20, 8]), dd=np.zeros(2))
    seeds = [derive_replica_seed(2718, r) for r in range(300)]
    assert assert_replay_matches_stepper(p, FULL, None, init, 0.01, 601, seeds, 7)


def test_replay_matches_the_stepper_with_logistic_coupling():
    p = two_group_params(alpha=2.0)
    init = DiscreteState(s=np.array([30, 42]), a=np.array([20, 8]), dd=np.zeros(2))
    logistic = LogisticConfig(enabled=True, growth_rate=0.2, capacity=150.0)
    seeds = [derive_replica_seed(99, r) for r in range(40)]
    # dt = 0.01 is four times max_stable_dt's logistic bound, so a replica
    # can reach an overloaded state: each that does must fail alone at the
    # stepper's epoch, and the rest must match it as a batch
    calm, overloaded = [], []
    for seed in seeds:
        try:
            step_events(p, FULL, logistic, init, 0.01, 777, seed, 1)
            calm.append(seed)
        except StepSizeError as err:
            overloaded.append((seed, int(re.search(r"epoch (\d+)", str(err)).group(1))))
    assert len(calm) > 30 and overloaded
    assert assert_replay_matches_stepper(p, FULL, logistic, init, 0.01, 777, calm, 1)
    for seed, epoch in overloaded:
        with pytest.raises(StepSizeError, match=rf"replica 0 at epoch {epoch} "):
            _run_replicas(p, FULL, logistic, init, 0.01, 777, [seed], stride=1)


def test_replay_matches_the_stepper_when_stopping_at_extinction():
    p = single_group_params(alpha=0.8)
    init = DiscreteState(s=np.array([10]), a=np.array([2]), dd=np.array([8]))
    seeds = [derive_replica_seed(4, r) for r in range(64)]
    assert assert_replay_matches_stepper(p, PAPER_LITERAL, None, init, 0.05, 2000, seeds, 0)
    out = _run_replicas(p, PAPER_LITERAL, None, init, 0.05, 2000, seeds)
    assert np.count_nonzero(out.ext_epoch > 0) > 32


def test_zero_epochs_return_the_initial_state():
    p = single_group_params()
    init = DiscreteState(s=np.array([10]), a=np.array([0]), dd=np.array([10]))
    seeds = [1, 2, 3]
    assert assert_replay_matches_stepper(p, PAPER_LITERAL, None, init, 0.05, 0, seeds, 1)
    assert assert_replay_matches_stepper(p, PAPER_LITERAL, None, init, 0.05, 0, seeds, 0)


@pytest.mark.parametrize("n_epochs", [56, 57])
@pytest.mark.parametrize("stride", [0, 1, 7])
def test_replay_matches_the_stepper_at_each_stride_and_alone(n_epochs, stride):
    # events are dense, and stride 7 divides one horizon but not the other
    p = single_group_params(alpha=1.5)
    init = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))
    seeds = [derive_replica_seed(31, r) for r in range(40)]
    assert assert_replay_matches_stepper(p, PAPER_LITERAL, None, init, 0.05, n_epochs, seeds, stride)
    # one-replica batches; with stride > 0 the check above runs every seed alone too
    for seed in seeds[:3]:
        assert assert_replay_matches_stepper(p, PAPER_LITERAL, None, init, 0.05, n_epochs, [seed], stride)


@st.composite
def chain_cases(draw):
    params, mode, logistic, init = draw(chain_models())
    # up to 3x the conservative bound, so events are dense and some runs overload
    dt = draw(st.floats(0.1, 3.0)) * finite_stable_dt(params, max(init.total(), 1))
    n_epochs = draw(st.one_of(st.integers(0, 40), st.sampled_from([255, 256, 257, 600])))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
    stride = draw(st.sampled_from([0, 1, 2, 3, 64]))
    return params, mode, logistic, init, dt, n_epochs, seeds, stride


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_cases())
def test_replay_matches_the_stepper_on_random_chains(case):
    assert_replay_matches_stepper(*case)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(chain_models(), st.integers(0, 2**64 - 1), st.integers(1, 300))
def test_a_shorter_horizon_is_a_prefix_of_the_same_path(model, seed, cut):
    # the uniforms are indexed by event, not drawn ahead by epoch, so
    # stopping earlier leaves the path up to the cut unchanged
    params, mode, logistic, init = model
    dt = 0.5 * finite_stable_dt(params, max(init.total(), 1), logistic)
    long = _run_replicas(params, mode, logistic, init, dt, 300, [seed], stride=1)
    short = _run_replicas(params, mode, logistic, init, dt, cut, [seed], stride=1)
    np.testing.assert_array_equal(short.sums, long.sums[: cut + 1])


# ------------------------------------------ uniforms hashed ahead in blocks


BLOCK_SEEDS = [derive_replica_seed(26, r) for r in range(257)]


@functools.lru_cache
def block_case(logistic: bool, stride: int):
    """A chain whose replicas run a median of over 3 blocks of events, and the stepper's (trajectories, ext, finals)."""
    if logistic:
        args = (two_group_params(alpha=2.0), FULL, LogisticConfig(enabled=True, growth_rate=0.2, capacity=150.0),
                DiscreteState(s=np.array([30, 42]), a=np.array([20, 8]), dd=np.zeros(2)), 0.01, 100)
    else:
        args = (single_group_params(alpha=1.0), PAPER_LITERAL, None,
                DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5])), 0.05, 1000)
    runs = [step_events(*args, seed, stride) for seed in BLOCK_SEEDS]
    assert np.median([r[3] for r in runs]) > 3 * _AHEAD
    return args, *(np.stack([r[k] for r in runs]) for k in range(3))


class RecordedSteps:
    """``dtmc._KEY_STEPS`` that records the number of events of each key move."""

    def __init__(self):
        self.moves = []

    def __getitem__(self, k):
        self.moves.append(int(k))
        return _KEY_STEPS[k]


@pytest.mark.parametrize("n_rep", [255, 257], ids=["narrow", "wide"])
@pytest.mark.parametrize("logistic", [False, True], ids=["constant", "logistic"])
@pytest.mark.parametrize("stride", [0, 5])
def test_batches_match_the_stepper_across_their_blocks_of_uniforms(n_rep, logistic, stride, monkeypatch):
    # a narrow batch hashes _AHEAD events per slot at once and a wide one a
    # single event; replicas run past three blocks, and the batch drops its
    # finished half at rounds that fall at many places within a block, where
    # the kept slots' keys go back to their next event
    (params, mode, lg, init, dt, n_epochs), traj, ext, finals = block_case(logistic, stride)
    steps = RecordedSteps()
    monkeypatch.setattr(dtmc, "_KEY_STEPS", steps)
    out = _run_replicas(params, mode, lg, init, dt, n_epochs, BLOCK_SEEDS[:n_rep], stride=stride)
    np.testing.assert_array_equal(out.final, finals[:n_rep].sum(axis=0))
    if stride:
        np.testing.assert_array_equal(out.sums, traj[:n_rep].sum(axis=0))
        np.testing.assert_array_equal(out.sumsq, np.square(traj[:n_rep]).sum(axis=0))
    else:
        np.testing.assert_array_equal(out.ext_epoch, ext[:n_rep])
    ahead = 1 if n_rep > _ROW_SUM_SLOTS else _AHEAD
    rewinds = {k for k in steps.moves if k != ahead}
    assert rewinds <= set(range(ahead))
    if ahead > 1:
        assert len(rewinds - {0}) >= 4, steps.moves


# ------------------------------------------------ edges of the gap and choice


def unmix64(z: int) -> int:
    """The inverse of :func:`mix64`."""
    def unshift(z, s):
        x = z
        for _ in range(64 // s):
            x = z ^ (x >> s)
        return x
    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & MASK
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK
    return unshift(z, 30)


def seed_with_first_words(gap_word: int) -> int:
    """A replica seed whose first gap uniform hashes to the SplitMix64 output ``gap_word``."""
    seed = (unmix64(gap_word) - GOLDEN) & MASK
    assert mix64((seed + GOLDEN) & MASK) == gap_word
    return seed


def test_the_choice_at_the_rounding_edge_selects_the_last_positive_event():
    # withdraw is the only event, at probability T = 2^-1074; a gap uniform
    # of 0 fires it in the first epoch, and in the subnormal range v T
    # rounds up to T for v > 1/2, where a bare right-sided search would
    # select no_event
    p = ModelParams(m=1, n_total=1.0, alpha=0.0, b=0.0, d=0.0, rho=5e-324, delta=0.0,
                    phi=0.0, eps=1.0, gamma=1.0)
    init = DiscreteState(s=[1], a=[0], dd=[0])
    seed = seed_with_first_words(0)
    assert uniform(seed, 1) == 0.0
    v = uniform(seed, 2)
    eng = _Engine(p, PAPER_LITERAL, 1.0, None)
    q = np.cumsum(eng.probabilities(np.array([[1, 0, 0]]))[0])
    assert q.tolist() == [0.0, 0.0, 0.0, 5e-324] and v * q[-1] == q[-1]
    assert np.searchsorted(q, v * q[-1], side="right") == 4  # no_event
    out = _run_replicas(p, PAPER_LITERAL, None, init, 1.0, 3, [seed], stride=1)
    np.testing.assert_array_equal(out.sums, [[1, 0, 0], [0, 0, 1], [0, 0, 1], [0, 0, 1]])
    assert step_events(p, PAPER_LITERAL, None, init, 1.0, 3, seed, 1)[0].tolist() == out.sums.tolist()


def test_a_zero_total_never_fires_even_for_a_zero_gap_uniform():
    # every rate zero: log1p(-0) / log1p(-0) is nan, and the replica stays put
    p = ModelParams(m=1, n_total=20.0, alpha=0.0, b=0.0, d=0.0, rho=0.0, delta=0.0,
                    phi=0.0, eps=1.0, gamma=1.0)
    init = DiscreteState(s=[10], a=[5], dd=[5])
    seeds = [seed_with_first_words(0), *range(5)]
    assert uniform(seeds[0], 1) == 0.0
    out = _run_replicas(p, FULL, None, init, 1.0, 100, seeds, stride=10)
    np.testing.assert_array_equal(out.sums, np.tile([10, 5, 5], (11, 1)) * len(seeds))
    np.testing.assert_array_equal(_run_replicas(p, FULL, None, init, 1.0, 100, seeds).ext_epoch, -1)


def test_a_total_of_one_fires_every_epoch_for_every_gap_uniform():
    # births only, at b dt = 1: log1p(-1) = -inf puts every gap at 1,
    # including a gap uniform of 1 - 2^-53
    p = ModelParams(m=1, n_total=20.0, alpha=0.0, b=1.0, d=0.0, rho=0.0, delta=0.0,
                    phi=0.0, eps=1.0, gamma=1.0)
    init = DiscreteState(s=[10], a=[0], dd=[0])
    top = seed_with_first_words(MASK)
    assert uniform(top, 1) == 1.0 - 2.0**-53
    seeds = [top, *range(7)]
    out = _run_replicas(p, FULL, None, init, 1.0, 50, seeds, stride=1)
    np.testing.assert_array_equal(out.sums[:, 0], (10 + np.arange(51)) * len(seeds))
    assert assert_replay_matches_stepper(p, FULL, None, init, 1.0, 50, seeds, 5)


# ------------------------------------------------- v2 against v1, in law


def test_first_passage_epochs_match_the_per_epoch_stepper_in_law():
    # two-sample KS over 1,000 replicas each; 1.95 sqrt(2 / 1000) is the
    # critical value at the 0.1% level, fixed before the run (censored
    # replicas count as never extinct on both sides)
    p = single_group_params(alpha=0.8)
    init = DiscreteState(s=np.array([10]), a=np.array([2]), dd=np.array([8]))
    n, n_epochs, dt = 1000, 2000, 0.05
    _, v1, _ = step_epochs(p, PAPER_LITERAL, None, init, dt, n_epochs,
                           [derive_replica_seed(5, r) for r in range(n)], stop_when_extinct=True)
    v2 = _run_replicas(p, PAPER_LITERAL, None, init, dt, n_epochs,
                       [derive_replica_seed(6, r) for r in range(n)]).ext_epoch
    grid = np.arange(n_epochs + 1)
    cdf = [np.searchsorted(np.sort(np.where(e >= 0, e, n_epochs + 1)), grid, side="right") / n for e in (v1, v2)]
    ks = float(np.abs(cdf[0] - cdf[1]).max())
    assert np.count_nonzero(v1 > 0) > n // 2
    assert ks < 1.95 * math.sqrt(2.0 / n), ks


def test_sampled_means_match_the_per_epoch_stepper_in_law():
    # table2 in full mode, 2,000 replicas each, 12 samples of 6 counts; the
    # bound |z| < 4.5 keeps the chance of any of the 72 z-scores passing it
    # below 0.1%, and was fixed before the run
    p = two_group_params(alpha=2.0)
    init = DiscreteState(s=np.array([30, 42]), a=np.array([20, 8]), dd=np.zeros(2))
    n, n_epochs, stride, dt = 2000, 600, 50, 0.01
    traj, _, _ = step_epochs(p, FULL, None, init, dt, n_epochs,
                             [derive_replica_seed(11, r) for r in range(n)], stride=stride)
    out = _run_replicas(p, FULL, None, init, dt, n_epochs,
                        [derive_replica_seed(12, r) for r in range(n)], stride=stride)
    moments = [(traj.sum(axis=0), np.square(traj).sum(axis=0)), (out.sums, out.sumsq)]
    means = [s1 / n for s1, _ in moments]
    variances = [(s2 - n * mu * mu) / (n - 1.0) for (_, s2), mu in zip(moments, means)]
    se = np.sqrt((variances[0] + variances[1]) / n)[1:]  # sample 0 is the fixed initial state
    z = np.abs(means[0] - means[1])[1:] / se
    assert np.all(se > 0)
    assert float(z.max()) < 4.5, float(z.max())


def test_the_per_epoch_stepper_reproduces_contract_v1_on_both_sides_of_its_array_draw():
    # final states of v1's _run_replicas, recorded before v2 replaced it;
    # v1 drew a run of ARRAY_DRAW_EPOCHS epochs in one array pass and a
    # longer one from a Generator per replica
    p = single_group_params(alpha=1.5)
    init = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))
    seeds = [derive_replica_seed(31, r) for r in range(10)]
    recorded = {
        56: [[6, 4, 10], [3, 5, 12], [9, 5, 6], [7, 6, 7], [5, 5, 10],
             [4, 6, 10], [3, 6, 11], [8, 5, 7], [6, 6, 8], [5, 4, 11]],
        57: [[6, 4, 10], [3, 5, 12], [9, 5, 6], [6, 6, 8], [5, 5, 10],
             [4, 6, 10], [3, 6, 11], [8, 5, 7], [6, 6, 8], [5, 4, 11]],
    }
    assert ARRAY_DRAW_EPOCHS == 56
    for n_epochs, final in recorded.items():
        _, _, state = step_epochs(p, PAPER_LITERAL, None, init, 0.05, n_epochs, seeds, stop_when_extinct=True)
        assert state.tolist() == final


# ------------------------------------------- StepSizeError on the chain path


def overloaded() -> tuple[ModelParams, DiscreteState]:
    # births and deaths only; summed probability 0.5 + 0.1 * s_1 at dt = 1,
    # over 1 once s_1 > 5
    p = ModelParams(m=1, n_total=10.0, alpha=0.0, b=0.5, d=0.1, rho=0.0,
                    delta=0.0, phi=0.0, eps=1.0, gamma=1.0)
    return p, DiscreteState(s=np.array([4]), a=np.array([0]), dd=np.array([0]))


def test_chain_rejects_an_overloaded_initial_state():
    p = single_group_params()
    init = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))
    with pytest.raises(StepSizeError, match=r"replica 0 at epoch 0 "):
        simulate_replica(p, init, 5.0, 50.0, PAPER_LITERAL, seed=1)
    with pytest.raises(StepSizeError, match=r"replica 0 at epoch 0 "):
        monte_carlo_mean(p, init, 5.0, 50.0, PAPER_LITERAL, n_replicas=300, seed=1)


def test_chain_raises_once_births_push_past_the_bound():
    p, init = overloaded()
    seed = derive_replica_seed(8, 0)
    with pytest.raises(StepSizeError) as oracle:
        step_events(p, FULL, None, init, 1.0, 200, seed, 1)
    epoch = int(re.search(r"epoch (\d+)", str(oracle.value)).group(1))
    assert epoch > 1
    with pytest.raises(StepSizeError, match=rf"replica 0 at epoch {epoch} "):
        simulate_replica(p, init, 1.0, 200.0, FULL, seed=seed)
    # the horizon ends before that state is simulated: no error
    simulate_replica(p, init, 1.0, float(epoch), FULL, seed=seed)


def test_an_overloaded_round_skips_its_masked_finished_slots():
    # to a horizon of 12 epochs: replica 189 fires its 8th and last event
    # in epoch 12 into an overloaded state, so it is finished; replica 2
    # runs 12 events and replica 48 overloads after 10. As one batch, 189's
    # slot stays, masked, from round 9 (one finished slot of three is not
    # half the batch), and round 11 must raise for 48 alone
    p, init = overloaded()
    seeds = [derive_replica_seed(8, r) for r in (189, 2, 48)]
    _, _, state, events = step_events(p, FULL, None, init, 1.0, 12, seeds[0], 1)
    assert events == 8 and 0.5 + 0.1 * state[0] > 1.0
    assert step_events(p, FULL, None, init, 1.0, 12, seeds[1], 1)[3] == 12
    with pytest.raises(StepSizeError, match=r"^epoch 11 after 10 events$"):
        step_events(p, FULL, None, init, 1.0, 12, seeds[2], 1)
    with pytest.raises(StepSizeError, match=r"replica 2 at epoch 11 "):
        _run_replicas(p, FULL, None, init, 1.0, 12, seeds, stride=1)
    # without the overloading replica the batch runs to the horizon
    out = _run_replicas(p, FULL, None, init, 1.0, 12, seeds[:2], stride=1)
    np.testing.assert_array_equal(out.final, state + step_events(p, FULL, None, init, 1.0, 12, seeds[1], 1)[2])


def test_ensemble_error_names_the_replica_and_its_epoch():
    p, init = overloaded()
    with pytest.raises(StepSizeError) as err:
        monte_carlo_mean(p, init, 1.0, 200.0, FULL, n_replicas=300, seed=8)
    found = re.search(r"replica (\d+) at epoch (\d+) ", str(err.value))
    r, epoch = int(found.group(1)), int(found.group(2))
    assert 0 <= r < 300 and epoch > 0
    # reproduce: that replica alone fails at that epoch, not before it
    seed = derive_replica_seed(8, r)
    simulate_replica(p, init, 1.0, float(epoch), FULL, seed=seed)
    with pytest.raises(StepSizeError, match=rf"replica 0 at epoch {epoch} "):
        simulate_replica(p, init, 1.0, float(epoch + 1), FULL, seed=seed)


def births_against_extinction() -> tuple[ModelParams, DiscreteState]:
    # one active among three heads; an event ends the actives with
    # probability 4/9 (deactivate or death_a) and adds a head with 3/9, and
    # the summed probability 0.6 + 0.1 N at dt = 1 is over 1 from N = 5
    p = ModelParams(m=1, n_total=3.0, alpha=0.0, b=0.3, d=0.1, rho=0.0, delta=0.0,
                    phi=0.3, eps=1.0, gamma=1.0)
    return p, DiscreteState(s=np.array([2]), a=np.array([1]), dd=np.array([0]))


def test_errors_name_replicas_by_ensemble_index_across_a_refill():
    # first passages to 200 epochs of derive_replica_seed(19, r), picked
    # through the per-event oracle: replica 34 overloads after 2 events,
    # replica 1151 after 14, and the calm ones fill every other place
    p, init = births_against_extinction()
    w = _BATCH_SLOTS

    def oracle(r):
        try:
            return step_events(p, FULL, None, init, 1.0, 200, derive_replica_seed(19, r), 0)[3], None
        except StepSizeError as err:
            epoch, events = map(int, re.search(r"^epoch (\d+) after (\d+) events$", str(err)).groups())
            return events, epoch

    (fast_events, fast_epoch), (slow_events, slow_epoch) = oracle(34), oracle(1151)
    assert fast_events == 2 and slow_events == 14
    # about seven in eight replicas are calm, so 2w of them fill w + 10 places
    calm = [(r, events) for r, (events, epoch) in ((r, oracle(r)) for r in range(2 * w)) if epoch is None]
    # more than half the first batch finishes within two events, so the
    # first refill comes after round 1 at the latest and takes replica w + 5
    assert sum(events <= 2 for _, events in calm[:w]) > w // 2

    def named(placed: dict[int, int]) -> tuple[int, int]:
        order = [placed.get(i, r) for i, (r, _) in enumerate(calm[: w + 10])]
        seeds = np.array([derive_replica_seed(19, r) for r in order], dtype=np.uint64)
        with pytest.raises(StepSizeError) as err:
            _run_replicas(p, FULL, None, init, 1.0, 200, seeds)
        return tuple(map(int, re.search(r"replica (\d+) at epoch (\d+) ", str(err.value)).groups()))

    # the one overloaded replica is named by its ensemble index
    assert named({w + 5: 34}) == (w + 5, fast_epoch)
    assert named({3: 1151}) == (3, slow_epoch)
    # replica 3 overloads in round 14; replica w + 5 joins by round 2 and
    # overloads two rounds later, and the first overloaded round names it
    assert named({3: 1151, w + 5: 34}) == (w + 5, fast_epoch)
