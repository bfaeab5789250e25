"""Event-driven replay against a per-epoch stepper, byte for byte.

The stepper below is the oracle: it advances every replica through every
epoch, drawing one uniform per epoch, and selects events with the same
rule as replay. Replay must reproduce its sample sums and sums of
squares, each replica's trajectory (replayed as a one-replica batch),
extinction epochs and final states exactly, and raise ``StepSizeError``
for the same runs.
"""

import re

import numpy as np
import pytest
from conftest import chain_models, finite_stable_dt, single_group_params, two_group_params
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffusim import (
    FULL,
    PAPER_LITERAL,
    DiscreteState,
    LogisticConfig,
    ModelParams,
    derive_replica_seed,
    monte_carlo_mean,
    simulate_replica,
)
from diffusim import dtmc
from diffusim.dtmc import _ARRAY_DRAW_EPOCHS, _Engine, _run_replicas, _select
from diffusim.errors import StepSizeError


def step_epochs(params, mode, logistic, init, dt, n_epochs, seeds, *,
                stride=0, stop_when_extinct=False):
    """Per-epoch oracle: (trajectories, extinction epochs, final states).

    A replica stopped by ``stop_when_extinct`` keeps its state and is no
    longer checked against the step-size bound.
    """
    eng = _Engine(params, mode, dt, logistic)
    m = params.m
    n = len(seeds)
    state = np.tile(np.concatenate([init.s, init.a, init.dd]), (n, 1))
    s, a, dd = state[:, :m], state[:, m : 2 * m], state[:, 2 * m :]
    uniforms = np.stack([np.random.Generator(np.random.PCG64(sd)).random(n_epochs) for sd in seeds])
    traj = np.zeros((n, (n_epochs // stride + 1) if stride else 0, 3 * m), dtype=np.int64)
    if stride:
        traj[:, 0] = state
    ext = np.where(a.sum(axis=1) == 0, 0, -1)
    running = ext < 0 if stop_when_extinct else np.ones(n, dtype=bool)
    p = eng.make_buffers(n)
    q = np.empty_like(p)
    for epoch in range(n_epochs):
        eng.fill_probabilities(state, p)
        np.cumsum(p, axis=1, out=q)
        if np.any(q[running, -1] > 1.0):
            raise StepSizeError(f"epoch {epoch}")
        idx = _select(q, uniforms[:, epoch])
        state[running] += eng.delta[idx[running]]
        fresh = (a.sum(axis=1) == 0) & (ext < 0)
        ext[fresh] = epoch + 1
        if stop_when_extinct:
            running &= ext < 0
        if stride and (epoch + 1) % stride == 0:
            traj[:, (epoch + 1) // stride] = state
    return traj, ext, state


def assert_replay_matches_stepper(params, mode, logistic, init, dt, n_epochs, seeds, stride):
    """Replay at ``stride`` (0: first passage) must match the stepper exactly.

    With ``stride > 0`` each seed is also replayed as its own one-replica
    batch, whose ``sums`` must be that seed's trajectory.
    """
    try:
        traj, ext, final = step_epochs(params, mode, logistic, init, dt, n_epochs, seeds,
                                       stride=stride, stop_when_extinct=(stride == 0))
    except StepSizeError:
        with pytest.raises(StepSizeError):
            _run_replicas(params, mode, logistic, init, dt, n_epochs, seeds, stride=stride)
        return False
    out = _run_replicas(params, mode, logistic, init, dt, n_epochs, seeds, stride=stride)
    if not stride:
        assert out.sums is None and out.sumsq is None
    else:
        assert out.sums.dtype == np.int64 and out.sumsq.dtype == np.int64
        np.testing.assert_array_equal(out.sums, traj.sum(axis=0))
        np.testing.assert_array_equal(out.sumsq, np.square(traj).sum(axis=0))
        for seed, want in zip(seeds, traj):
            one = _run_replicas(params, mode, logistic, init, dt, n_epochs, [seed], stride=stride)
            np.testing.assert_array_equal(one.sums, want)
    np.testing.assert_array_equal(out.ext_epoch, ext)
    np.testing.assert_array_equal(out.final, final)
    return True


# ------------------------------------------------------------ selection rule


def test_zero_uniform_never_fires_a_zero_probability_event():
    # s_1 = 0, so activate(1) has probability 0; u = 0.0 must pick the
    # first event with positive probability, activate(2)
    p = two_group_params(alpha=1.2)
    eng = _Engine(p, FULL, 1e-3, None)
    q = np.cumsum(eng.probabilities(np.array([[0, 40, 3, 2, 1, 1]])), axis=1)
    assert q[0, 0] == 0.0 and q[0, 1] > 0.0
    assert _select(q, np.array([0.0]))[0] == 1


def test_selection_is_a_right_sided_search_at_every_bound():
    p = two_group_params(alpha=1.2)
    eng = _Engine(p, FULL, 1e-3, None)
    q = np.cumsum(eng.probabilities(np.array([[7, 40, 3, 0, 0, 5]])), axis=1)
    row = q[0]
    rng = np.random.default_rng(5)
    probes = np.concatenate([row, np.nextafter(row, -1.0), [0.0, 1.0 - 2**-53],
                             rng.uniform(0.0, 2 * row[-1], 200)])
    got = _select(np.repeat(q, probes.size, axis=0), probes)
    np.testing.assert_array_equal(got, np.searchsorted(row, probes, side="right"))
    # no event at or past the last bound
    assert np.all(got[probes >= row[-1]] == row.size)


# ------------------------------------------------------- replay vs stepper


def test_replay_matches_the_stepper_over_many_seeds():
    # more than a chunk of table2 replicas in full mode with about one
    # event in eight epochs; the horizon is not a multiple of the block
    # and sampled epochs fall between unsampled ones
    p = two_group_params(alpha=2.0)
    init = DiscreteState(s=np.array([30, 42]), a=np.array([20, 8]), dd=np.zeros(2))
    seeds = [derive_replica_seed(2718, r) for r in range(300)]
    assert assert_replay_matches_stepper(p, FULL, None, init, 0.01, 601, seeds, 7)


def test_replay_matches_the_stepper_with_logistic_coupling():
    p = two_group_params(alpha=2.0)
    init = DiscreteState(s=np.array([30, 42]), a=np.array([20, 8]), dd=np.zeros(2))
    logistic = LogisticConfig(enabled=True, growth_rate=0.2, capacity=150.0)
    seeds = [derive_replica_seed(99, r) for r in range(40)]
    assert assert_replay_matches_stepper(p, FULL, logistic, init, 0.01, 777, seeds, 1)


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


@pytest.mark.parametrize("n_epochs", [_ARRAY_DRAW_EPOCHS, _ARRAY_DRAW_EPOCHS + 1])
@pytest.mark.parametrize("stride", [0, 1, 7])
def test_replay_matches_the_stepper_on_both_sides_of_the_array_draw(n_epochs, stride):
    # the bound is drawn from the seeding words, one epoch more from Generators;
    # events are dense, and stride 7 divides one horizon but not the other
    p = single_group_params(alpha=1.5)
    init = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))
    seeds = [derive_replica_seed(31, r) for r in range(40)]
    assert assert_replay_matches_stepper(p, PAPER_LITERAL, None, init, 0.05, n_epochs, seeds, stride)
    # one-replica batches; with stride > 0 the check above replays every seed alone too
    for seed in seeds[:3]:
        assert assert_replay_matches_stepper(p, PAPER_LITERAL, None, init, 0.05, n_epochs, [seed], stride)


def test_a_run_that_fits_the_array_draw_builds_no_generator(monkeypatch):
    def refuse(words):
        raise AssertionError("built a generator")

    monkeypatch.setattr(dtmc, "_Words", refuse)
    p = single_group_params()
    init = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))
    _run_replicas(p, PAPER_LITERAL, None, init, 0.05, _ARRAY_DRAW_EPOCHS, [1, 2], stride=1)
    with pytest.raises(AssertionError, match="built a generator"):
        _run_replicas(p, PAPER_LITERAL, None, init, 0.05, _ARRAY_DRAW_EPOCHS + 1, [1, 2], stride=1)


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
        step_epochs(p, FULL, None, init, 1.0, 200, [seed])
    epoch = int(re.search(r"epoch (\d+)", str(oracle.value)).group(1))
    assert epoch > 1
    with pytest.raises(StepSizeError, match=rf"replica 0 at epoch {epoch} "):
        simulate_replica(p, init, 1.0, 200.0, FULL, seed=seed)
    # the horizon ends before that state is simulated: no error
    simulate_replica(p, init, 1.0, float(epoch), FULL, seed=seed)


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
