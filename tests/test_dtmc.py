"""Discrete-time chain: probabilities, replicas, ensembles, exact law."""

import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import chain_models, exact_extinction_cdf, finite_stable_dt, single_group_params, two_group_params
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffusim import (
    FULL,
    PAPER_LITERAL,
    DiscreteState,
    LogisticConfig,
    ModelParams,
    calibrate_alpha,
    canonical_events,
    derive_replica_seed,
    event_probabilities,
    exact_propagation,
    extinction_time_stochastic,
    max_stable_dt,
    monte_carlo_mean,
    simulate_replica,
)
from diffusim.dtmc import _BATCH_SLOTS, _ROW_SUM_SLOTS, _Engine, _ReplicaSeeds, _run_replicas, _running_sums
from diffusim.errors import DomainError, NumericError, StepSizeError


def theta_params() -> ModelParams:
    return ModelParams(m=1, n_total=10.0, alpha=0.64, b=0.0, d=0.01, rho=0.2,
                       delta=0.03, phi=0.03, eps=0.5, gamma=0.5)


def theta_state() -> DiscreteState:
    return DiscreteState(s=np.array([5]), a=np.array([3]), dd=np.array([2]))


def small_init() -> DiscreteState:
    return DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))


# ------------------------------------------------------------- seed mixing


def test_seed_mixing_matches_published_reference_stream():
    # the derivation is the SplitMix64 output sequence for the master
    # seed; the first two outputs for seed 0 are published test vectors
    assert derive_replica_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_replica_seed(0, 1) == 0x6E789E6AA1B965F4
    assert derive_replica_seed(42, 0) == 0xBDD732262FEB6E95
    assert derive_replica_seed(42, 1) == 0x28EFE333B266F103


def test_seed_mixing_avoids_collisions_across_replicas_and_masters():
    seen = {derive_replica_seed(s, r) for s in range(20) for r in range(200)}
    assert len(seen) == 20 * 200


# -------------------------------------------------------- event enumeration


def test_constant_population_event_order():
    kinds = [(e.kind, e.group) for e in canonical_events(2, PAPER_LITERAL)]
    assert kinds == [
        ("activate", 1), ("activate", 2),
        ("deactivate", 1), ("deactivate", 2),
        ("return", 1), ("return", 2),
        ("withdraw", 1), ("withdraw", 2),
        ("no_event", None),
    ]


def test_full_mode_event_order_appends_demography():
    kinds = [(e.kind, e.group) for e in canonical_events(2, FULL)]
    assert kinds[:8] == [(k, g) for k in ("activate", "deactivate", "return", "withdraw")
                         for g in (1, 2)]
    assert kinds[8:] == [(k, g) for k in ("death_s", "death_a", "death_d", "birth")
                         for g in (1, 2)] + [("no_event", None)]


# ------------------------------------------------------------ discrete state


def test_discrete_state_accepts_whole_floats_and_rejects_fractions():
    st = DiscreteState(s=np.array([3.0]), a=np.array([2.0]), dd=np.array([1.0]))
    assert st.total() == 6
    assert st.s.dtype == np.int64
    with pytest.raises(DomainError):
        DiscreteState(s=np.array([3.5]), a=np.array([2.0]), dd=np.array([1.0]))


def test_discrete_state_rejects_negative_counts():
    with pytest.raises(DomainError):
        DiscreteState(s=np.array([-1]), a=np.array([2]), dd=np.array([1]))


# -------------------------------------------------------- event probabilities


def test_probability_table_frozen_values_and_exact_normalization():
    table = event_probabilities(theta_params(), theta_state(), 0.1, PAPER_LITERAL)
    by_kind = {e.kind: float(v) for e, v in table.probabilities.items()}
    assert by_kind["activate"] == pytest.approx(0.024, abs=1e-15)
    assert by_kind["deactivate"] == pytest.approx(0.012, abs=1e-15)
    assert by_kind["return"] == pytest.approx(0.006, abs=1e-15)
    assert by_kind["withdraw"] == pytest.approx(0.105, abs=1e-15)
    assert by_kind["no_event"] == pytest.approx(0.853, abs=1e-15)
    assert sum(float(v) for v in table.probabilities.values()) == 1.0
    assert table.no_event + sum(v for ev, v in table.probabilities.items() if ev.kind != "no_event") == 1.0
    assert table.dt == 0.1


def test_full_mode_splits_mortality_from_transfers():
    table = event_probabilities(theta_params(), theta_state(), 0.1, FULL)
    by_key = {(e.kind, e.group): float(v) for e, v in table.probabilities.items()}
    # transfers now carry only their own rates; deaths get dedicated rows
    assert by_key[("deactivate", 1)] == pytest.approx(0.03 * 3 * 0.1, abs=1e-15)
    assert by_key[("withdraw", 1)] == pytest.approx(0.2 * 5 * 0.1, abs=1e-15)
    assert by_key[("death_s", 1)] == pytest.approx(0.01 * 5 * 0.1, abs=1e-15)
    assert by_key[("death_a", 1)] == pytest.approx(0.01 * 3 * 0.1, abs=1e-15)
    assert by_key[("death_d", 1)] == pytest.approx(0.01 * 2 * 0.1, abs=1e-15)
    assert by_key[("birth", 1)] == pytest.approx(0.0, abs=1e-15)
    assert sum(float(v) for v in table.probabilities.values()) == 1.0


def test_oversized_step_is_rejected_with_step_size_error():
    with pytest.raises(StepSizeError):
        event_probabilities(theta_params(), theta_state(), 50.0, PAPER_LITERAL)


def test_unknown_mode_rejected():
    with pytest.raises(DomainError):
        event_probabilities(theta_params(), theta_state(), 0.1, "bogus")


def test_one_step_frequencies_match_the_table_within_four_sigma():
    p = single_group_params()
    init = small_init()
    dt = 0.05
    table = event_probabilities(p, init, dt, PAPER_LITERAL)
    probs = {e.kind: float(v) for e, v in table.probabilities.items()}
    kinds = ["activate", "deactivate", "return", "withdraw"]
    deltas = np.array([(-1, 1, 0), (0, -1, 1), (1, 0, -1), (-1, 0, 1)])
    n_reps = 1_000_000
    base = np.array([10, 5, 5])
    # over one sampled epoch, n_k replicas firing event k move the sums of
    # the state by n_k delta_k and those of its square by
    # n_k (2 base delta_k + delta_k^2); the six sums fix the four counts
    moves = np.hstack([deltas, 2 * base * deltas + deltas**2]).T
    out = _run_replicas(p, PAPER_LITERAL, None, init, dt, 1, _ReplicaSeeds(13, n_reps), stride=1)
    seen = np.concatenate([out.sums[1] - n_reps * base, out.sumsq[1] - n_reps * base**2])
    fitted, _, rank, _ = np.linalg.lstsq(moves, seen, rcond=None)
    n = np.rint(fitted).astype(np.int64)
    assert rank == 4 and np.array_equal(moves @ n, seen) and np.all(n > 0), (fitted, seen)
    counts = dict(zip(kinds, n.tolist()), no_event=n_reps - int(n.sum()))
    for kind, c in counts.items():
        pk = probs[kind]
        z = abs(c - n_reps * pk) / math.sqrt(n_reps * pk * (1.0 - pk))
        assert z < 4.0, (kind, c, pk, z)


@pytest.mark.parametrize("m", [2, 3, 8])
@pytest.mark.parametrize("logistic", [None, LogisticConfig(enabled=True, growth_rate=0.5, capacity=300.0)])
def test_probabilities_of_a_row_do_not_depend_on_its_batch(m, logistic):
    # gamma . a is the left-to-right sum of the products a_i gamma_i, so a
    # row filled alone has the bits it has inside a batch of any width; a
    # BLAS product's bits depend on the batch's shape
    rng = np.random.default_rng(100 + m)
    p = ModelParams(m=m, n_total=1000.0, alpha=1.7, b=0.01, d=0.01, rho=0.2, delta=0.03, phi=0.03,
                    eps=rng.uniform(0.05, 1.0, m), gamma=rng.uniform(0.05, 1.0, m))
    rows = rng.integers(0, 300, (257, 3 * m))
    eng = _Engine(p, FULL, 1e-4, logistic)
    alone = np.vstack([eng.probabilities(rows[r : r + 1]) for r in range(rows.shape[0])])
    for width in (2, 255, 256, 257):
        np.testing.assert_array_equal(eng.probabilities(rows[:width]), alone[:width])
    if logistic is None:
        # activation i is (alpha dt eps_i / n_total) s_i (gamma . a), in Python floats
        for row, got in zip(rows[:16].tolist(), alone[:16]):
            scale = row[m] * float(p.gamma[0])
            for i in range(1, m):
                scale += row[m + i] * float(p.gamma[i])
            want = [row[i] * (1.7 * 1e-4 * float(p.eps[i]) / 1000.0) * scale for i in range(m)]
            assert got[:m].tolist() == want


def running_sum_engines():
    # 4m rows (no births or deaths), 8m with constant births, 8m under the
    # logistic coupling, and m = 1 rates whose column (s, a, dd) = (1, 1, 1)
    # sums 0.5 + 0.25 + 0.25 to exactly 1.0 at dt = 1 and to the floats
    # either side of 1.0 at the floats either side of 1
    rng = np.random.default_rng(23)
    p = ModelParams(m=3, n_total=1000.0, alpha=1.7, b=0.01, d=0.01, rho=0.2, delta=0.03, phi=0.03,
                    eps=rng.uniform(0.05, 1.0, 3), gamma=rng.uniform(0.05, 1.0, 3))
    unit = ModelParams(m=1, n_total=4.0, alpha=0.0, b=0.0, d=0.0, rho=0.5, delta=0.25, phi=0.25, eps=1.0, gamma=1.0)
    logistic = LogisticConfig(enabled=True, growth_rate=0.5, capacity=300.0)
    return {
        "4m": (_Engine(p, PAPER_LITERAL, 1e-4, None), None),
        "8m births": (_Engine(p, FULL, 1e-4, None), None),
        "8m logistic": (_Engine(p, FULL, 1e-4, logistic), None),
        **{f"T = {t!r}": (_Engine(unit, FULL, t, None), t)
           for t in (np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0))},
    }


@pytest.mark.parametrize("case", list(running_sum_engines()))
def test_running_sums_in_place_row_by_row_equal_accumulate_across_the_crossover(case):
    # _running_sums sums an array wider than _ROW_SUM_SLOTS (gamma . a too)
    # one row at a time and a narrower one by one accumulate, both in place:
    # the adds of np.cumsum, so the bits of a column filled alone, on either
    # side of the crossover and in every round of one buffer
    eng, total = running_sum_engines()[case]
    m = eng.m
    rng = np.random.default_rng(7)
    cols = rng.integers(0, 300 if total is None else 3, (3 * m, _ROW_SUM_SLOTS + 1))
    cols[:, 0] = 1
    assert eng.n_events == (4 * m if case == "4m" else 8 * m if m > 1 else 4)
    for width in (_ROW_SUM_SLOTS, _ROW_SUM_SLOTS + 1):
        state = cols[:, :width]
        alone = np.column_stack([np.cumsum(eng.probabilities(state[:, r][None, :])[0]) for r in range(width)])
        q = np.empty((eng.n_events, width))
        for _ in range(2):  # the second round reads no sum left by the first
            eng.fill_probabilities(state, q)
            assert _running_sums(q).tobytes() == alone.tobytes()
        if total is not None:
            assert q[-1, 0] == total


@pytest.mark.parametrize("case", ["4m", "8m births", "8m logistic"])
def test_fill_probabilities_writes_every_row_of_its_buffer(case):
    # constant birth rows are written every round, as the logistic ones are,
    # so no row keeps what the buffer held before, here nan
    eng, _ = running_sum_engines()[case]
    state = np.random.default_rng(5).integers(0, 300, (3 * eng.m, 9))
    p = np.full((eng.n_events, 9), np.nan)
    eng.fill_probabilities(state, p)
    assert np.isfinite(p).all()
    fresh = np.zeros_like(p)
    eng.fill_probabilities(state, fresh)
    assert p.tobytes() == fresh.tobytes()


# ----------------------------------------------------------- stability bound


def test_stability_bound_single_channel_frozen_value():
    p = ModelParams(m=1, n_total=10.0, alpha=0.0, b=0.0, d=0.0, rho=0.0,
                    delta=0.0, phi=0.04, eps=1.0, gamma=1.0)
    assert max_stable_dt(p, 10) == pytest.approx(0.9 / 0.4, rel=1e-14)


def test_stability_bound_zero_rates_returns_horizon():
    p = ModelParams(m=1, n_total=10.0, alpha=0.0, b=0.0, d=0.0, rho=0.0,
                    delta=0.0, phi=0.0, eps=1.0, gamma=1.0)
    assert max_stable_dt(p, 10) == math.inf


def test_stability_bound_shrinks_with_population_and_guards_the_table():
    p = theta_params()
    assert max_stable_dt(p, 50) < max_stable_dt(p, 10)
    rng = np.random.default_rng(31)
    dt = max_stable_dt(p, 10)
    for _ in range(50):
        counts = rng.multinomial(10, np.ones(3) / 3.0)
        st = DiscreteState(s=counts[:1], a=counts[1:2], dd=counts[2:])
        table = event_probabilities(p, st, dt, PAPER_LITERAL)
        vals = np.array([float(v) for v in table.probabilities.values()])
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


# alpha eps gamma n^2 / n_total overflows to inf, so 0.9 / bound was 0.0;
# b = 1e308 leaves a finite bound whose 0.9 / bound is subnormal
OVERFLOWING_BOUNDS = [
    (dict(alpha=1e300, eps=1e10), r"^total event rate bound inf is too large .* = 0\.0$"),
    (dict(b=1e308), r"^total event rate bound 1e\+308 is too large .* = 9e-309$"),
]


@pytest.mark.parametrize("rates, match", OVERFLOWING_BOUNDS, ids=["zero", "subnormal"])
def test_an_overflowing_stability_bound_is_refused_naming_it(rates, match):
    p = ModelParams(**{**dict(m=1, n_total=10.0, alpha=1.0, b=0.0, d=0.01, rho=0.2, delta=0.03,
                              phi=0.03, eps=1.0, gamma=1.0), **rates})
    with pytest.raises(NumericError, match=match):
        max_stable_dt(p, 10)


# alpha dt eps overflows to inf beside gamma = 0, so activation was inf * 0 =
# nan, which passed every "> 1" check: the chain fired activation from a = 1
# at the first epoch, event_probabilities returned nan entries and
# exact_propagation failed in np.bincount
NAN_ACTIVATION = dict(m=1, n_total=3.0, alpha=1e300, b=0.0, d=0.0, rho=0.1, delta=0.1, phi=0.1, eps=1e10,
                      gamma=0.0)
CHAIN_CALLS = {
    "simulate_replica": lambda p, init: simulate_replica(p, init, 0.1, 2.0),
    "monte_carlo_mean": lambda p, init: monte_carlo_mean(p, init, 0.1, 2.0, n_replicas=200),
    "extinction_time_stochastic": lambda p, init: extinction_time_stochastic(p, init, 0.1, 2.0),
    "event_probabilities": lambda p, init: event_probabilities(p, init, 0.1, FULL),
    "exact_propagation": lambda p, init: exact_propagation(p, init, 0.1, 3),
}


@pytest.mark.parametrize("call", CHAIN_CALLS.values(), ids=CHAIN_CALLS.keys())
def test_an_overflowing_event_coefficient_is_refused_naming_it(call):
    with pytest.raises(NumericError, match=r"^event coefficient alpha \* dt \* eps_1 = inf is not finite$"):
        call(ModelParams(**NAN_ACTIVATION), DiscreteState(s=[1], a=[1], dd=[1]))


@pytest.mark.parametrize("rates, logistic, match", [
    (dict(m=2, rho=[0.1, 1e308]), None, r"rho_2 \* dt = inf"),
    (dict(b=[0.0, 1e308]), None, r"b_2 \* dt = inf"),
    ({}, LogisticConfig(enabled=True, growth_rate=1e308, capacity=0.5), r"growth_rate \* dt / capacity = inf"),
], ids=["withdraw_2", "birth_2", "logistic"])
def test_the_first_overflowing_coefficient_is_named_with_its_group(rates, logistic, match):
    p = ModelParams(**{**NAN_ACTIVATION, "m": 2, "alpha": 1.0, "eps": 1.0, **rates})
    init = DiscreteState(s=np.ones(p.m), a=np.ones(p.m), dd=np.ones(p.m))
    with pytest.raises(NumericError, match=rf"^event coefficient {match} is not finite$"):
        simulate_replica(p, init, 10.0, 20.0, logistic=logistic)


@pytest.mark.parametrize("name", CHAIN_CALLS)
def test_a_nan_summed_probability_is_refused(name):
    # finite coefficients, but gamma . a overflows beside s = 0, so activation
    # is inf * 0 = nan again, now inside a round: no overload, so no
    # StepSizeError, and the chain drivers name the replica and the epoch
    p = ModelParams(**{**NAN_ACTIVATION, "alpha": 1.0, "eps": 1.0, "gamma": 1e308})
    with pytest.raises(NumericError) as info:
        CHAIN_CALLS[name](p, DiscreteState(s=[0], a=[2], dd=[1]))
    assert type(info.value) is NumericError
    where = "" if name in ("event_probabilities", "exact_propagation") else " for replica 0 at epoch 0 (t = 0)"
    assert str(info.value) == f"event probability of activate(1) is nan{where}: an infinite factor times zero"


@pytest.mark.parametrize("capacity", [60.0, 150.0])
def test_logistic_stability_bound_keeps_the_cli_ceiling(capacity):
    # the formula the CLI used for logistic scenarios before the bound moved
    # into max_stable_dt: every per-capita channel maximized over groups, at
    # populations up to max(N0, 1.5 K, 1)
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 1.4))
    lg = LogisticConfig(enabled=True, growth_rate=1.0, capacity=capacity)
    total0 = 100.0
    pop = max(total0, 1.5 * lg.capacity, 1.0)
    r_max = pop * (
        p.alpha * float(p.eps.max()) * float(p.gamma.max())
        + float(p.phi.max())
        + float(p.delta.max())
        + float(p.rho.max())
        + lg.growth_rate * (1.0 + pop / lg.capacity)
    )
    assert max_stable_dt(p, total0, logistic=lg) == 0.9 / r_max
    off = LogisticConfig(enabled=False, growth_rate=1.0, capacity=capacity)
    assert max_stable_dt(p, total0, logistic=off) == max_stable_dt(p, total0)


# ------------------------------------------------------------ single replica


def test_replica_is_reproducible_and_seed_sensitive():
    p = single_group_params()
    one = simulate_replica(p, small_init(), 0.05, 10.0, PAPER_LITERAL, seed=7)
    two = simulate_replica(p, small_init(), 0.05, 10.0, PAPER_LITERAL, seed=7)
    other = simulate_replica(p, small_init(), 0.05, 10.0, PAPER_LITERAL, seed=8)
    np.testing.assert_array_equal(one.s, two.s)
    np.testing.assert_array_equal(one.a, two.a)
    np.testing.assert_array_equal(one.dd, two.dd)
    assert not (np.array_equal(one.s, other.s) and np.array_equal(one.a, other.a)
                and np.array_equal(one.dd, other.dd))


def test_replica_conserves_population_in_constant_mode():
    p = single_group_params()
    traj = simulate_replica(p, small_init(), 0.05, 50.0, PAPER_LITERAL, seed=5)
    totals = traj.s.sum(axis=1) + traj.a.sum(axis=1) + traj.dd.sum(axis=1)
    np.testing.assert_array_equal(totals, np.full(totals.shape, 20.0))


def test_replica_sampling_grid_and_cadence():
    p = single_group_params()
    traj = simulate_replica(p, small_init(), 0.05, 2.0, PAPER_LITERAL, seed=5,
                            sample_every=0.5)
    np.testing.assert_allclose(traj.times, np.arange(5) * 0.5, atol=1e-12)
    with pytest.raises(DomainError):
        simulate_replica(p, small_init(), 0.05, 2.0, PAPER_LITERAL, seed=5,
                         sample_every=0.47)


def test_modes_coincide_without_demography():
    p = ModelParams(m=2, n_total=30.0, alpha=1.5, b=0.0, d=0.0, rho=0.1,
                    delta=0.05, phi=0.08, eps=np.array([0.5, 0.9]),
                    gamma=np.array([0.6, 0.8]))
    init = DiscreteState(s=np.array([8, 9]), a=np.array([4, 3]), dd=np.array([3, 3]))
    lit = simulate_replica(p, init, 0.02, 20.0, PAPER_LITERAL, seed=12)
    full = simulate_replica(p, init, 0.02, 20.0, FULL, seed=12)
    np.testing.assert_array_equal(lit.s, full.s)
    np.testing.assert_array_equal(lit.a, full.a)
    np.testing.assert_array_equal(lit.dd, full.dd)


def test_constant_mode_requires_matching_initial_total():
    p = single_group_params()
    bad = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([4]))
    with pytest.raises(DomainError):
        simulate_replica(p, bad, 0.05, 1.0, PAPER_LITERAL, seed=0)


@pytest.mark.parametrize("horizon, sample_every, name", [
    (1e300, None, "horizon"),
    ((2**53 + 2) * 2.0**-5, None, "horizon"),  # two epochs past 2^53, exactly
    (1.0, 1e300, "sample_every"),
])
def test_epoch_counts_past_2_to_the_53_are_refused_before_any_round(horizon, sample_every, name):
    # the chain's float epoch pointer is exact only up to 2^53 epochs; past
    # it a run used to die in its epoch arithmetic or count epochs inexactly
    p, init = single_group_params(), small_init()  # dt = 2^-5 is stable, and exact
    dt = 2.0**-5
    runs = [lambda: simulate_replica(p, init, dt, horizon, PAPER_LITERAL, sample_every=sample_every),
            lambda: monte_carlo_mean(p, init, dt, horizon, PAPER_LITERAL, n_replicas=2, sample_every=sample_every)]
    if sample_every is None:
        runs.append(lambda: extinction_time_stochastic(p, init, dt, horizon, PAPER_LITERAL, n_replicas=2))
    for run in runs:
        with pytest.raises(DomainError, match=rf"^{name}/dt = .* epochs is past 2\^53"):
            run()


@pytest.mark.parametrize("sample_every", [math.nan, -math.inf])
def test_a_non_finite_sample_every_is_refused_by_name(sample_every):
    # both pass the 2^53 check; rounding the ratio used to raise a bare
    # ValueError for nan and an OverflowError for -inf
    p, init, dt = single_group_params(), small_init(), 2.0**-5
    for run in (lambda: simulate_replica(p, init, dt, 1.0, PAPER_LITERAL, sample_every=sample_every),
                lambda: monte_carlo_mean(p, init, dt, 1.0, PAPER_LITERAL, n_replicas=2, sample_every=sample_every)):
        with pytest.raises(DomainError, match=rf"^sample_every/dt = {sample_every!r} is not finite$"):
            run()


def dying_chain():
    # b = 0 < d: every replica dies out after a few dozen events, so a run of
    # 2^45 epochs at dt = 2^-5 ends in a few rounds
    p = ModelParams(m=1, n_total=10.0, alpha=1.0, b=0.0, d=0.5, rho=0.1, delta=0.1, phi=0.1, eps=1.0, gamma=1.0)
    return p, DiscreteState(s=[5], a=[3], dd=[2]), 2.0**-5, 2.0**40


def test_a_sample_table_past_the_cell_budget_is_refused_before_any_allocation():
    # 2^45 + 1 samples of 3 values: the int64 moments alone would take 1.7 PB,
    # and numpy's allocator used to refuse them with _ArrayMemoryError
    p, init, dt, horizon = dying_chain()
    message = r"^35184372088833 samples x 3 values pass the 67108864-cell budget of a table held in memory$"
    for run in (lambda: simulate_replica(p, init, dt, horizon),
                lambda: monte_carlo_mean(p, init, dt, horizon, n_replicas=2)):
        with pytest.raises(DomainError, match=message):
            run()
    # a first passage keeps no table; the exact law checks its rows before its kernel build, which
    # would refuse the overflowing coefficient alpha dt eps
    extinction_time_stochastic(p, init, dt, horizon, n_replicas=2)
    with pytest.raises(DomainError, match=r"^10000000000001 steps x 5 values pass the 67108864-cell budget"):
        exact_propagation(ModelParams(**{**NAN_ACTIVATION, "alpha": 1.0}), DiscreteState(s=[1], a=[1], dd=[1]),
                          1e300, 10**13)


@pytest.mark.parametrize("n_steps", [2.0, 2.5, "3", None, -1])
def test_a_step_count_other_than_a_nonnegative_integer_is_refused_before_the_kernel_build(n_steps):
    # the kernel build would refuse the overflowing coefficient alpha dt eps first
    p, init = ModelParams(**{**NAN_ACTIVATION, "alpha": 1.0}), DiscreteState(s=[1], a=[1], dd=[1])
    with pytest.raises(DomainError, match=rf"^n_steps must be a nonnegative integer, got {re.escape(repr(n_steps))}$"):
        exact_propagation(p, init, 1e300, n_steps)
    with pytest.raises(NumericError, match=r"^event coefficient alpha \* dt \* eps_1 = inf is not finite$"):
        exact_propagation(p, init, 1e300, 2)
    law = exact_propagation(single_group_params(), small_init(), 0.05, np.int64(3))
    assert law.e_s.shape == (4,)


def test_a_long_run_with_few_samples_runs():
    p, init, dt, horizon = dying_chain()
    one = simulate_replica(p, init, dt, horizon, sample_every=horizon / 8)
    mean = monte_carlo_mean(p, init, dt, horizon, n_replicas=2, sample_every=horizon / 8)
    for table in (one, mean):
        assert table.times.shape == (9,) and table.times[-1] == horizon
        assert not (table.s[-1].any() or table.a[-1].any() or table.dd[-1].any())


def test_no_event_creates_actives_from_nothing():
    # an extinct chain stays extinct in both modes, even with births
    p = ModelParams(m=2, n_total=40.0, alpha=3.0, b=0.2, d=0.05, rho=0.1,
                    delta=0.05, phi=0.08, eps=np.array([0.5, 0.9]),
                    gamma=np.array([0.6, 0.8]))
    init = DiscreteState(s=np.array([10, 10]), a=np.zeros(2), dd=np.array([5, 5]))
    traj = simulate_replica(p, init, 0.05, 100.0, FULL, seed=99)
    assert traj.a.max() == 0.0


@st.composite
def replica_runs(draw, modes=(PAPER_LITERAL, FULL)):
    """``simulate_replica`` arguments with dt from the stability bound."""
    params, mode, logistic, init = draw(chain_models(modes))
    # where the population cannot grow no count exceeds the total, so the
    # bound at the total holds throughout; where it can, the bound leaves
    # headroom and a run past it stops with StepSizeError
    grows = mode == FULL and (logistic is not None or any(params.b > 0))
    n_bound = 2 * init.total() + 10 if grows else max(init.total(), 1)
    dt = finite_stable_dt(params, n_bound, logistic=logistic)
    n_epochs = draw(st.integers(100, 600))
    seed = draw(st.integers(0, 2**64 - 1))
    return params, init, dt, n_epochs * dt, mode, seed, logistic


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(replica_runs())
def test_counts_never_go_negative_on_random_chains(run):
    params, init, dt, horizon, mode, seed, logistic = run
    try:
        traj = simulate_replica(params, init, dt, horizon, mode, seed=seed, logistic=logistic)
    except StepSizeError:
        assume(False)
    assert min(traj.s.min(), traj.a.min(), traj.dd.min()) >= 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(replica_runs((PAPER_LITERAL,)))
def test_paper_literal_replicas_keep_the_initial_total_on_random_chains(run):
    params, init, dt, horizon, mode, seed, _ = run
    traj = simulate_replica(params, init, dt, horizon, mode, seed=seed)
    totals = traj.s.sum(axis=1) + traj.a.sum(axis=1) + traj.dd.sum(axis=1)
    np.testing.assert_array_equal(totals, np.full(totals.shape, float(init.total())))


# --------------------------------------------------------------- ensembles


def test_single_replica_ensemble_equals_that_replica_with_zero_spread():
    p = single_group_params()
    mc = monte_carlo_mean(p, small_init(), 0.05, 10.0, PAPER_LITERAL,
                          n_replicas=1, seed=7)
    solo = simulate_replica(p, small_init(), 0.05, 10.0, PAPER_LITERAL,
                            seed=derive_replica_seed(7, 0))
    np.testing.assert_array_equal(mc.s, solo.s)
    np.testing.assert_array_equal(mc.a, solo.a)
    np.testing.assert_array_equal(mc.dd, solo.dd)
    assert mc.has_spread
    np.testing.assert_array_equal(mc.sd_a, np.zeros_like(mc.sd_a))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(chain_models(), st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 3, 64]), st.integers(0, 300),
       st.floats(0.1, 3.0))
def test_single_replica_ensembles_equal_their_replicas_bit_for_bit(model, seed, stride, n_epochs, scale):
    # across strides and both couplings; up to 3x the conservative bound, so
    # events are dense and some runs overload
    params, mode, logistic, init = model
    dt = scale * finite_stable_dt(params, max(init.total(), 1))
    runs = (lambda: simulate_replica(params, init, dt, n_epochs * dt, mode, seed=derive_replica_seed(seed, 0),
                                     sample_every=stride * dt, logistic=logistic),
            lambda: monte_carlo_mean(params, init, dt, n_epochs * dt, mode, n_replicas=1, seed=seed,
                                     sample_every=stride * dt, logistic=logistic))
    try:
        one = runs[0]()
    except StepSizeError as exc:
        with pytest.raises(StepSizeError, match=f"^{re.escape(str(exc))}$"):
            runs[1]()
        return
    mean = runs[1]()
    assert mean.times.tobytes() == one.times.tobytes()
    for field in ("s", "a", "dd"):
        assert getattr(mean, field).tobytes() == getattr(one, field).tobytes()
        assert not getattr(mean, "sd_" + field).any() and getattr(one, "sd_" + field) is None


def test_deterministic_chain_mean_is_the_initial_state():
    p = ModelParams(m=1, n_total=20.0, alpha=0.0, b=0.0, d=0.0, rho=0.0,
                    delta=0.0, phi=0.0, eps=1.0, gamma=1.0)
    mc = monte_carlo_mean(p, small_init(), 0.5, 5.0, FULL, n_replicas=16, seed=3)
    for k in range(mc.times.shape[0]):
        np.testing.assert_array_equal(mc.s[k], [10.0])
        np.testing.assert_array_equal(mc.a[k], [5.0])
        np.testing.assert_array_equal(mc.dd[k], [5.0])
    np.testing.assert_array_equal(mc.sd_s, np.zeros_like(mc.sd_s))


def test_ensemble_mean_and_spread_match_per_replica_streams():
    p = single_group_params()
    n = 300
    mc = monte_carlo_mean(p, small_init(), 0.05, 5.0, PAPER_LITERAL,
                          n_replicas=n, seed=911)
    stack_a = np.stack([
        simulate_replica(p, small_init(), 0.05, 5.0, PAPER_LITERAL,
                         seed=derive_replica_seed(911, r)).a
        for r in range(n)
    ])
    np.testing.assert_allclose(mc.a, stack_a.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(mc.sd_a, stack_a.std(axis=0, ddof=1), atol=1e-12)


def test_ensemble_error_shrinks_at_the_root_n_rate():
    p = single_group_params()
    ex = exact_propagation(p, small_init(), 0.05, 20)
    exact = np.stack([ex.e_s, ex.e_a, ex.e_d], axis=1)
    errs = {}
    for n in (1000, 10000, 100000):
        mc = monte_carlo_mean(p, small_init(), 0.05, 1.0, PAPER_LITERAL,
                              n_replicas=n, seed=99, sample_every=0.05)
        got = np.hstack([mc.s, mc.a, mc.dd])
        errs[n] = float(np.sqrt(np.mean((got - exact) ** 2)))
    assert errs[1000] > errs[10000] > errs[100000]
    assert errs[1000] / errs[100000] > 3.0


def fast_extinction_chain() -> tuple[ModelParams, DiscreteState]:
    # m = 2 with fast deactivation, so many replicas go extinct and leave
    # their slots at different rounds
    p = ModelParams(m=2, n_total=100.0, alpha=1.0, b=0.01, d=0.01, rho=0.2, delta=0.03, phi=0.5,
                    eps=np.array([0.4, 0.6]), gamma=np.array([0.4, 0.7]))
    return p, DiscreteState(s=np.array([30, 42]), a=np.array([2, 1]), dd=np.zeros(2))


def split_runs(params, logistic, init, dt, n_epochs, seeds, stride, cuts):
    """``_run_replicas`` over ``seeds`` cut into batches at ``cuts``.

    A first passage gives (extinction epochs per replica, summed final
    states); a sampled run gives the sums over replicas of (final states,
    samples, their squares). A one-replica part records no squares: its
    squares are those of its sums.
    """
    bounds = [0, *cuts, len(seeds)]
    parts = [_run_replicas(params, FULL, logistic, init, dt, n_epochs, seeds[lo:hi], stride=stride)
             for lo, hi in zip(bounds, bounds[1:])]
    if not stride:
        return np.concatenate([o.ext_epoch for o in parts]), sum(o.final for o in parts)
    for o, lo, hi in zip(parts, bounds, bounds[1:]):
        assert (o.sumsq is None) == (hi - lo == 1)
    return (sum(o.final for o in parts), sum(o.sums for o in parts),
            sum(np.square(o.sums) if o.sumsq is None else o.sumsq for o in parts))


@pytest.mark.parametrize("stride", [0, 7])
@pytest.mark.parametrize("logistic", [None, LogisticConfig(enabled=True, growth_rate=0.2, capacity=150.0)])
def test_replicas_do_not_depend_on_how_the_batch_is_cut(logistic, stride):
    # the same 300 seeds as one batch, cut at 1, 255, 256 and 257, and one
    # replica at a time
    p, init = fast_extinction_chain()
    seeds = np.array([derive_replica_seed(1234, r) for r in range(300)], dtype=np.uint64)
    n_epochs = 601  # not a multiple of the stride
    whole = split_runs(p, logistic, init, 0.005, n_epochs, seeds, stride, [])
    for cuts in ([1, 255, 256, 257], list(range(1, 300))):
        for want, got in zip(whole, split_runs(p, logistic, init, 0.005, n_epochs, seeds, stride, cuts)):
            np.testing.assert_array_equal(got, want)
    if not stride:
        extinct = np.count_nonzero(whole[0] > 0)
        assert 60 < extinct < 240, extinct
    else:
        # the events of epochs 596-601 follow the last sample, at 595, and
        # land in no sample: the run to 595 has the same sums
        short = _run_replicas(p, FULL, logistic, init, 0.005, 595, seeds, stride=stride)
        np.testing.assert_array_equal(short.sums, whole[1])
        np.testing.assert_array_equal(short.sumsq, whole[2])
        assert not np.array_equal(short.final, whole[0])


@pytest.mark.parametrize("logistic", [None, LogisticConfig(enabled=True, growth_rate=0.2, capacity=150.0)])
def test_an_ensemble_streamed_through_refills_equals_its_replicas_alone(logistic):
    # around one and two batches of slots, from a small population, so
    # replicas go extinct and leave their slots at many different rounds;
    # the master seed is near 2^64, so the seeds derived at every refill wrap
    p, _ = fast_extinction_chain()
    init = DiscreteState(s=np.array([4, 5]), a=np.array([1, 1]), dd=np.zeros(2))
    seed, dt, n_epochs, stride = 2**64 - 5, 0.04, 60, 7
    w = _BATCH_SLOTS
    sizes = (w - 1, w, w + 1, 2 * w + 3)
    alone = [derive_replica_seed(seed, r) for r in range(max(sizes))]
    sampled = [_run_replicas(p, FULL, logistic, init, dt, n_epochs, [s], stride=stride) for s in alone]
    sums = np.cumsum([o.sums for o in sampled], axis=0)
    assert all(o.sumsq is None for o in sampled)
    sumsq = np.cumsum([np.square(o.sums) for o in sampled], axis=0)
    ext = np.concatenate([_run_replicas(p, FULL, logistic, init, dt, n_epochs, [s]).ext_epoch for s in alone])
    assert 200 < np.count_nonzero(ext > 0) < max(sizes) - 200 and np.unique(ext[ext > 0]).size > 40
    for n in sizes:
        mc = monte_carlo_mean(p, init, dt, n_epochs * dt, FULL, n_replicas=n, seed=seed,
                              sample_every=stride * dt, logistic=logistic)
        mean = sums[n - 1] / float(n)
        sd = np.sqrt(np.maximum((sumsq[n - 1] - n * mean * mean) / (n - 1.0), 0.0))
        for k, (field, sd_field) in enumerate((("s", "sd_s"), ("a", "sd_a"), ("dd", "sd_dd"))):
            assert getattr(mc, field).tobytes() == mean[:, 2 * k : 2 * k + 2].tobytes()
            assert getattr(mc, sd_field).tobytes() == sd[:, 2 * k : 2 * k + 2].tobytes()
        summary = extinction_time_stochastic(p, init, dt, n_epochs * dt, FULL, n_replicas=n, seed=seed,
                                             logistic=logistic)
        np.testing.assert_array_equal(summary.times, np.where(ext[:n] >= 0, ext[:n] * dt, np.nan))


def test_a_sampled_ensemble_keeps_nothing_per_replica():
    # the stream's memory is flat in the ensemble size: the traced peak at
    # 40 batches' worth of replicas is at most 5% above that at two, a
    # bound fixed before the run
    p = single_group_params()

    def peak(n: int) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            monte_carlo_mean(p, small_init(), 0.05, 1.0, PAPER_LITERAL, n_replicas=n, seed=5, sample_every=0.05)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2 * _BATCH_SLOTS), peak(40 * _BATCH_SLOTS)
    assert large <= 1.05 * small, (small, large)


def test_a_wide_sampled_batch_peaks_within_its_buffer_layout():
    # 20,000 m = 1 replicas through _BATCH_SLOTS slots. A slot holds its int64
    # rid, key, pointer and (s, a, dd), a bool flag, its 4 running sums in
    # place of its probabilities and 6 int64 of moment scratch: 129 bytes.
    # Its 16-byte block of (gap, choice) uniforms and a round's temporaries
    # (next epochs, event indices and numpy's iterator buffers, whose size
    # varies with the numpy version) may take one more layout per slot; a
    # 512-slot batch made afresh at every refill peaked at about 400 B a slot
    layout = (3 + 3) * 8 + 1 + 4 * 8 + 6 * 8

    def run():
        monte_carlo_mean(single_group_params(), small_init(), 0.05, 1.0, PAPER_LITERAL, n_replicas=20000, seed=5,
                         sample_every=0.05)

    run()  # numpy's first calls fill caches that would count otherwise
    gc.collect()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / _BATCH_SLOTS <= 2 * layout, peak / _BATCH_SLOTS


@pytest.mark.parametrize("n_replicas, tables", [(None, 2.0), (4, 4.5)], ids=["trajectory", "ensemble"])
def test_a_sampled_run_holds_only_the_tables_it_returns(n_replicas, tables):
    # table2's rates at 10,001 samples of 6 counts, in tables of the float
    # output (480 KB). A trajectory holds its int64 sums and their float
    # copy: 2 tables. An ensemble holds its int64 sums and squares, its means
    # and its spreads, and while it makes its times half a table more (the
    # int64 epochs, their float products and numpy's 64 KB cast buffer):
    # 4.5. A tenth of a table covers the batch. Recording a lone replica's
    # squares, or forming the spread in temporaries, would hold one table more
    p = two_group_params()
    init = DiscreteState(s=np.array([30, 42]), a=np.array([20, 8]), dd=np.zeros(2))
    dt = max_stable_dt(p, p.n_total)
    n_samples = 10_001
    table = n_samples * 3 * p.m * 8

    def run():
        if n_replicas is None:
            return simulate_replica(p, init, dt, (n_samples - 1) * dt, FULL, seed=3)
        return monte_carlo_mean(p, init, dt, (n_samples - 1) * dt, FULL, n_replicas=n_replicas, seed=3)

    assert run().times.shape == (n_samples,)  # numpy's first calls fill caches that would count otherwise
    gc.collect()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (tables + 0.1) * table, peak / table


# ----------------------------------------------------------- extinction time


def test_extinction_is_immediate_without_actives():
    p = single_group_params()
    init = DiscreteState(s=np.array([15]), a=np.array([0]), dd=np.array([5]))
    summary = extinction_time_stochastic(p, init, 0.05, 5.0, PAPER_LITERAL,
                                         n_replicas=20, seed=4)
    np.testing.assert_array_equal(summary.times, np.zeros(20))
    assert summary.mean == 0.0 and summary.n_censored == 0


def test_pure_death_extinction_matches_the_analytic_mean():
    # alpha = 0, delta = 0: actives only leave, one head at a time, at
    # per-head rate phi + d; the epoch draws are geometric, so the mean
    # absorption time is the harmonic number H_10 / (phi + d)
    p = ModelParams(m=1, n_total=10.0, alpha=0.0, b=0.0, d=0.01, rho=0.0,
                    delta=0.0, phi=0.03, eps=1.0, gamma=1.0)
    init = DiscreteState(s=np.array([0]), a=np.array([10]), dd=np.array([0]))
    n = 2000
    summary = extinction_time_stochastic(p, init, 1.0, 5000.0, FULL,
                                         n_replicas=n, seed=2024)
    rate = 0.04
    analytic = sum(1.0 / (k * rate) for k in range(1, 11))
    assert summary.n_censored == 0
    se = summary.spread / math.sqrt(n)
    assert abs(summary.mean - analytic) < 3.0 * se


def test_first_passage_epochs_follow_the_exact_extinction_law():
    # m = 1 without demography, so a = 0 is absorbing and the exact law
    # gives P(T <= k) at every epoch; the bound, 1.95 / sqrt(n), is the
    # one-sample KS critical value at the 0.1% level, fixed before the run
    p = ModelParams(m=1, n_total=20.0, alpha=1.0, b=0.0, d=0.0, rho=0.2,
                    delta=0.3, phi=0.5, eps=1.0, gamma=1.0)
    init = DiscreteState(s=np.array([10]), a=np.array([5]), dd=np.array([5]))
    dt, n_epochs, n = 0.05, 2000, 5000
    exact = exact_extinction_cdf(p, init, dt, n_epochs)
    summary = extinction_time_stochastic(p, init, dt, n_epochs * dt, PAPER_LITERAL,
                                         n_replicas=n, seed=7)
    epochs = np.rint(summary.times[np.isfinite(summary.times)] / dt).astype(np.int64)
    empirical = np.cumsum(np.bincount(epochs, minlength=n_epochs + 1)) / n
    ks = float(np.abs(empirical - exact).max())
    assert ks < 1.95 / math.sqrt(n), ks


def test_fully_censored_ensemble_reports_none():
    p = ModelParams(m=1, n_total=20.0, alpha=0.0, b=0.0, d=0.0, rho=0.0,
                    delta=0.0, phi=0.0, eps=1.0, gamma=1.0)
    summary = extinction_time_stochastic(p, small_init(), 0.5, 5.0, FULL,
                                         n_replicas=10, seed=6)
    assert summary.mean is None and summary.spread is None
    assert summary.n_censored == 10
    assert np.all(np.isnan(summary.times))


# ---------------------------------------------------------------- exact law


def test_point_mass_stays_put_with_zero_rates():
    p = ModelParams(m=1, n_total=20.0, alpha=0.0, b=0.0, d=0.0, rho=0.0,
                    delta=0.0, phi=0.0, eps=1.0, gamma=1.0)
    ex = exact_propagation(p, small_init(), 0.1, 10)
    assert np.count_nonzero(ex.final_p) == 1
    np.testing.assert_allclose(ex.e_s, np.full(11, 10.0), atol=1e-14)
    np.testing.assert_allclose(ex.e_a, np.full(11, 5.0), atol=1e-14)
    np.testing.assert_allclose(ex.e_d, np.full(11, 5.0), atol=1e-14)


def test_states_enumerate_lexicographically():
    p = ModelParams(m=1, n_total=3.0, alpha=0.0, b=0.0, d=0.0, rho=0.0,
                    delta=0.0, phi=0.0, eps=1.0, gamma=1.0)
    init = DiscreteState(s=np.array([1]), a=np.array([1]), dd=np.array([1]))
    ex = exact_propagation(p, init, 0.1, 1)
    expected = [(s, a) for s in range(4) for a in range(4 - s)]
    assert [tuple(row) for row in ex.states] == expected


def test_one_step_law_equals_the_transition_table():
    p = theta_params()
    init = theta_state()
    ex = exact_propagation(p, init, 0.1, 1)
    table = event_probabilities(p, init, 0.1, PAPER_LITERAL)
    by_kind = {e.kind: float(v) for e, v in table.probabilities.items()}
    targets = {
        (4, 4): by_kind["activate"],
        (5, 2): by_kind["deactivate"],
        (6, 3): by_kind["return"],
        (4, 3): by_kind["withdraw"],
        (5, 3): by_kind["no_event"],
    }
    index = {tuple(row): k for k, row in enumerate(ex.states)}
    for state, prob in targets.items():
        assert ex.final_p[index[state]] == pytest.approx(prob, abs=1e-15)
    assert ex.final_p.sum() == pytest.approx(1.0, abs=1e-15)
    # expectation of a point mass is the state itself, before any step
    assert ex.e_s[0] == 5.0 and ex.e_a[0] == 3.0 and ex.e_d[0] == 2.0


def test_probability_mass_is_conserved_along_the_run():
    p = single_group_params()
    ex = exact_propagation(p, small_init(), 0.05, 50)
    np.testing.assert_allclose(ex.mass, np.ones(51), atol=1e-12)


def test_exact_law_rejects_multiple_groups_and_total_mismatch():
    p = ModelParams(m=2, n_total=20.0, alpha=1.0, b=0.0, d=0.02, rho=0.2,
                    delta=0.03, phi=0.03, eps=np.array([0.5, 0.5]),
                    gamma=np.array([0.5, 0.5]))
    init = DiscreteState(s=np.array([5, 5]), a=np.array([3, 3]), dd=np.array([2, 2]))
    with pytest.raises(DomainError):
        exact_propagation(p, init, 0.05, 5)
    q = single_group_params()
    short = DiscreteState(s=np.array([5]), a=np.array([3]), dd=np.array([2]))
    with pytest.raises(DomainError):
        exact_propagation(q, short, 0.05, 5)
