"""Density-dependent birth/death coupling, in the flow and in the chain."""

import numpy as np
import pytest
from conftest import apply_logistic, logistic_rates, two_group_params

from diffusim import (
    FULL,
    PAPER_LITERAL,
    ContinuousState,
    DiscreteState,
    IntegrationConfig,
    LogisticConfig,
    ModelParams,
    calibrate_alpha,
    disease_free_equilibrium,
    integrate,
    monte_carlo_mean,
    simulate_replica,
)
from diffusim.errors import DomainError, NumericError


def quiet_params(n_total: float = 60.0) -> ModelParams:
    return ModelParams(m=1, n_total=n_total, alpha=0.0, b=0.01, d=0.01,
                       rho=0.05, delta=0.03, phi=0.03, eps=1.0, gamma=1.0)


# -------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(DomainError):
        LogisticConfig(enabled=True, growth_rate=-0.1, capacity=100.0)
    with pytest.raises(DomainError):
        LogisticConfig(enabled=True, growth_rate=1.0, capacity=0.0)
    assert not LogisticConfig().enabled


# --------------------------------------------------------------------- rates


def test_rates_balance_at_capacity():
    cfg = LogisticConfig(enabled=True, growth_rate=0.7, capacity=120.0)
    births, death = logistic_rates(cfg, 120.0)
    assert births - death * 120.0 == pytest.approx(0.0, abs=1e-12)


def test_rates_vanish_at_zero_population():
    cfg = LogisticConfig(enabled=True, growth_rate=0.7, capacity=120.0)
    assert logistic_rates(cfg, 0.0) == (0.0, 0.0)


def test_net_growth_peaks_at_half_capacity():
    cfg = LogisticConfig(enabled=True, growth_rate=0.8, capacity=100.0)
    births, death = logistic_rates(cfg, 50.0)
    assert births - death * 50.0 == pytest.approx(0.8 * 100.0 / 4.0, rel=1e-12)


def test_rates_reject_negative_population():
    cfg = LogisticConfig(enabled=True, growth_rate=0.8, capacity=100.0)
    with pytest.raises(DomainError):
        logistic_rates(cfg, -1.0)


# ------------------------------------------------------------ effective params


def test_effective_params_at_capacity_equalize_birth_and_death():
    p = quiet_params()
    cfg = LogisticConfig(enabled=True, growth_rate=0.5, capacity=60.0)
    st = ContinuousState(t=0.0, s=np.array([40.0]), a=np.array([10.0]), dd=np.array([10.0]))
    eff = apply_logistic(p, cfg, st)
    np.testing.assert_allclose(eff.b, [0.5 * 60.0], rtol=1e-12)
    np.testing.assert_allclose(eff.d, [0.5], rtol=1e-12)
    assert eff.n_total == 60.0


def test_disabled_coupling_returns_params_unchanged():
    p = quiet_params()
    cfg = LogisticConfig(enabled=False, growth_rate=0.5, capacity=60.0)
    st = ContinuousState(t=0.0, s=np.array([40.0]), a=np.array([10.0]), dd=np.array([10.0]))
    assert apply_logistic(p, cfg, st) is p


def test_larger_capacity_means_smaller_death_rate():
    p = quiet_params()
    st = ContinuousState(t=0.0, s=np.array([40.0]), a=np.array([10.0]), dd=np.array([10.0]))
    small = apply_logistic(p, LogisticConfig(enabled=True, growth_rate=0.5, capacity=60.0), st)
    large = apply_logistic(p, LogisticConfig(enabled=True, growth_rate=0.5, capacity=200.0), st)
    assert float(large.d[0]) < float(small.d[0])


def test_births_split_equally_across_groups():
    p = ModelParams(m=3, n_total=90.0, alpha=0.0, b=0.01, d=0.01, rho=0.05,
                    delta=0.03, phi=0.03, eps=1.0, gamma=1.0)
    cfg = LogisticConfig(enabled=True, growth_rate=0.6, capacity=90.0)
    st = ContinuousState(t=0.0, s=np.full(3, 20.0), a=np.full(3, 5.0), dd=np.full(3, 5.0))
    eff = apply_logistic(p, cfg, st)
    np.testing.assert_allclose(eff.b, np.full(3, 0.6 * 90.0 / 3.0), rtol=1e-12)


# ----------------------------------------------------------------- mean field


def test_ode_population_tracks_the_closed_form_logistic_curve():
    p = quiet_params(n_total=100.0)
    cfg = LogisticConfig(enabled=True, growth_rate=1.0, capacity=200.0)
    init = ContinuousState(t=0.0, s=np.array([80.0]), a=np.array([10.0]), dd=np.array([10.0]))
    traj = integrate(p, init, IntegrationConfig(step=0.01, horizon=10.0, sample_every=0.5),
                     logistic=cfg)
    total = traj.s[:, 0] + traj.a[:, 0] + traj.dd[:, 0]
    n0, cap = 100.0, 200.0
    expected = cap / (1.0 + (cap / n0 - 1.0) * np.exp(-1.0 * traj.times))
    rel = np.max(np.abs(total - expected) / expected)
    assert rel < 1e-4


def test_negative_stage_population_fails_loudly():
    # a step far too large for R0 4.9 under strong logistic turnover drives
    # the population of an RK4 stage negative; the coupling must refuse it
    # rather than feed a negative N into the birth and death rates
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 4.9))
    eq = disease_free_equilibrium(p)
    a0 = 0.01 * eq.s_star
    init = ContinuousState(t=0.0, s=eq.s_star - a0, a=a0, dd=eq.d_star)
    lg = LogisticConfig(enabled=True, growth_rate=1.0, capacity=150.0)
    cfg = IntegrationConfig(step=0.1, horizon=50.0, sample_every=0.5)
    with pytest.raises(NumericError, match=r"population must be nonnegative and finite, got -2450030\.12"):
        integrate(p, init, cfg, logistic=lg)


# ---------------------------------------------------------------------- chain


def test_chain_population_settles_near_capacity():
    p = quiet_params()
    lg = LogisticConfig(enabled=True, growth_rate=0.5, capacity=60.0)
    init = DiscreteState(s=np.array([30]), a=np.array([0]), dd=np.array([0]))
    mc = monte_carlo_mean(p, init, 0.005, 30.0, FULL, n_replicas=64, seed=555,
                          sample_every=5.0, logistic=lg)
    total = (mc.s + mc.a + mc.dd)[:, 0]
    assert total[0] == 30.0
    assert 54.0 < total[-1] < 66.0


def test_chain_rejects_logistic_in_constant_population_mode():
    p = quiet_params()
    lg = LogisticConfig(enabled=True, growth_rate=0.5, capacity=60.0)
    init = DiscreteState(s=np.array([30]), a=np.array([20]), dd=np.array([10]))
    with pytest.raises(DomainError):
        simulate_replica(p, init, 0.005, 1.0, PAPER_LITERAL, seed=1, logistic=lg)


def test_disabled_coupling_leaves_the_chain_untouched():
    p = quiet_params()
    off = LogisticConfig(enabled=False, growth_rate=0.5, capacity=60.0)
    init = DiscreteState(s=np.array([30]), a=np.array([20]), dd=np.array([10]))
    plain = simulate_replica(p, init, 0.01, 5.0, FULL, seed=2)
    with_off = simulate_replica(p, init, 0.01, 5.0, FULL, seed=2, logistic=off)
    np.testing.assert_array_equal(plain.s, with_off.s)
    np.testing.assert_array_equal(plain.a, with_off.a)
    np.testing.assert_array_equal(plain.dd, with_off.dd)
