"""Fixed-step integrator: config validation, oracles, sampling, extinction."""

import numpy as np
import pytest
from conftest import extinction_time_deterministic, two_group_params

from diffusim import (
    ContinuousState,
    IntegrationConfig,
    ModelParams,
    calibrate_alpha,
    disease_free_equilibrium,
    integrate,
)
from diffusim.errors import DomainError, NumericError


def frozen_params(**overrides) -> ModelParams:
    kwargs = dict(m=1, n_total=100.0, alpha=0.0, b=0.0, d=0.0, rho=0.0,
                  delta=0.0, phi=0.0, eps=1.0, gamma=1.0)
    kwargs.update(overrides)
    return ModelParams(**kwargs)


def demo_init() -> ContinuousState:
    return ContinuousState(t=0.0, s=np.array([30.0, 42.0]),
                           a=np.array([20.0, 8.0]), dd=np.array([0.0, 0.0]))


# -------------------------------------------------------------------- config


@pytest.mark.parametrize("kwargs", [
    dict(step=0.0),
    dict(horizon=-1.0),
    dict(sample_every=np.inf),
    dict(step=2.0, sample_every=1.0),
    dict(sample_every=300.0, horizon=200.0),
    dict(step=0.3, sample_every=1.0),
])
def test_config_validation_rejects_bad_combinations(kwargs):
    with pytest.raises(DomainError):
        IntegrationConfig(**kwargs)


def test_config_defaults_are_valid():
    cfg = IntegrationConfig()
    assert cfg.step == 0.01 and cfg.horizon == 200.0 and cfg.sample_every == 1.0


# ------------------------------------------------------------------- oracles


def test_zero_field_keeps_the_state_frozen():
    init = ContinuousState(t=0.0, s=np.array([7.0]), a=np.array([3.0]),
                           dd=np.array([2.0]))
    traj = integrate(frozen_params(), init, IntegrationConfig(step=0.1, horizon=5.0, sample_every=1.0))
    assert traj.times.shape == (6,)
    for k in range(6):
        np.testing.assert_array_equal(traj.s[k], [7.0])
        np.testing.assert_array_equal(traj.a[k], [3.0])
        np.testing.assert_array_equal(traj.dd[k], [2.0])


def test_pure_deactivation_matches_exponential_decay():
    p = frozen_params(phi=0.05)
    init = ContinuousState(t=0.0, s=np.array([0.0]), a=np.array([10.0]), dd=np.array([0.0]))
    traj = integrate(p, init, IntegrationConfig(step=0.01, horizon=10.0, sample_every=1.0))
    expected = 10.0 * np.exp(-0.05 * traj.times)
    np.testing.assert_allclose(traj.a[:, 0], expected, atol=1e-6)
    np.testing.assert_allclose(traj.dd[:, 0], 10.0 - expected, atol=1e-6)


def test_population_matches_linear_relaxation_oracle():
    p = frozen_params(b=0.5, d=0.02)
    init = ContinuousState(t=0.0, s=np.array([100.0]), a=np.array([0.0]), dd=np.array([0.0]))
    traj = integrate(p, init, IntegrationConfig(step=0.01, horizon=50.0, sample_every=5.0))
    n0, bal = 100.0, 0.5 / 0.02
    expected = bal + (n0 - bal) * np.exp(-0.02 * traj.times)
    total = traj.s[:, 0] + traj.a[:, 0] + traj.dd[:, 0]
    np.testing.assert_allclose(total, expected, atol=1e-6)


def test_group_totals_follow_linear_law_even_with_activation():
    # activation only shuffles mass between compartments of the same
    # group; each group's total still solves dN/dt = b - d N exactly
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 1.4))
    traj = integrate(p, demo_init(), IntegrationConfig(step=0.01, horizon=20.0, sample_every=2.0))
    for i, n0 in enumerate((50.0, 50.0)):
        bal = p.b[i] / p.d[i]
        expected = bal + (n0 - bal) * np.exp(-p.d[i] * traj.times)
        total = traj.s[:, i] + traj.a[:, i] + traj.dd[:, i]
        np.testing.assert_allclose(total, expected, atol=1e-6)


def test_halving_the_step_shrinks_error_at_fourth_order():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 1.4))

    def final_state(h: float) -> np.ndarray:
        cfg = IntegrationConfig(step=h, horizon=2.0, sample_every=2.0)
        tr = integrate(p, demo_init(), cfg)
        return np.concatenate([tr.s[-1], tr.a[-1], tr.dd[-1]])

    ref = final_state(0.00125)
    err_coarse = np.linalg.norm(final_state(0.02) - ref)
    err_fine = np.linalg.norm(final_state(0.01) - ref)
    ratio = err_coarse / err_fine
    assert 8.0 < ratio < 24.0


# ------------------------------------------------------------------ sampling


def test_sampling_cadence_is_a_pure_subsample():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 1.4))
    dense = integrate(p, demo_init(), IntegrationConfig(step=0.05, horizon=10.0, sample_every=0.05))
    sparse = integrate(p, demo_init(), IntegrationConfig(step=0.05, horizon=10.0, sample_every=0.5))
    for k, t in enumerate(sparse.times):
        j = int(round(t / 0.05))
        assert dense.times[j] == pytest.approx(t, abs=1e-12)
        np.testing.assert_array_equal(sparse.s[k], dense.s[j])
        np.testing.assert_array_equal(sparse.a[k], dense.a[j])
        np.testing.assert_array_equal(sparse.dd[k], dense.dd[j])


def test_a_sample_table_past_the_cell_budget_is_refused_before_any_allocation():
    # 10^13 + 1 samples of 6 values would take 437 TiB; numpy's allocator used
    # to refuse them with _ArrayMemoryError
    cfg = IntegrationConfig(step=1.0, horizon=1e13, sample_every=1.0)
    with pytest.raises(DomainError, match=r"^10000000000001 samples x 6 values pass the 67108864-cell budget"):
        integrate(two_group_params(), demo_init(), cfg)
    few = integrate(two_group_params(), demo_init(), IntegrationConfig(step=0.1, horizon=1e3, sample_every=1e2))
    assert few.times.shape == (11,) and np.isfinite(few.a).all()


def test_group_count_mismatch_rejected():
    with pytest.raises(DomainError):
        integrate(frozen_params(), demo_init(), IntegrationConfig())


# ----------------------------------------------------------- failure modes


def test_nonfinite_state_reports_time_of_blowup():
    p = frozen_params(alpha=1e10, b=0.01, d=0.01, rho=0.2, delta=0.03, phi=0.03)
    init = ContinuousState(t=0.0, s=np.array([90.0]), a=np.array([10.0]), dd=np.array([0.0]))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite at t"):
        integrate(p, init, IntegrationConfig(step=1e8, horizon=1e9, sample_every=1e8))


def test_nan_state_is_rejected_not_clamped():
    # gamma * a overflows, so the activation term is inf * 0 = nan in the
    # first step: the state holds nans but no inf, and clamping a nan to 0
    # would hide the failure
    p = frozen_params(alpha=1.0, rho=0.1, phi=0.1, gamma=10.0)
    init = ContinuousState(t=0.0, s=np.array([0.0]), a=np.array([1e308]), dd=np.array([0.0]))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"non-finite at t = 0\.1$"):
        integrate(p, init, IntegrationConfig(step=0.1, horizon=1.0, sample_every=0.1))


def test_chronic_negativity_clamping_is_rejected():
    with pytest.raises(NumericError, match="clamp"):
        integrate(two_group_params(), demo_init(),
                  IntegrationConfig(step=30.0, horizon=3000.0, sample_every=30.0))


# ------------------------------------------------------- qualitative shape


def test_supercritical_run_rises_peaks_then_dies_out():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 1.4))
    traj = integrate(p, demo_init(), IntegrationConfig(step=0.01, horizon=60.0, sample_every=0.5))
    total = traj.total_active()
    k = int(np.argmax(total))
    assert total[k] > total[0]
    assert 0 < k < total.shape[0] - 1
    assert total[-1] < 0.5 * total[k]
    d_total = traj.dd.sum(axis=1)
    assert d_total[-1] > d_total[0]
    late_slope = (d_total[-1] - d_total[-2]) / (traj.times[-1] - traj.times[-2])
    assert abs(late_slope) < 0.05 * d_total[-1]


# ------------------------------------------------------- extinction timing


def test_extinct_from_the_start_returns_first_sample():
    init = ContinuousState(t=0.0, s=np.array([10.0]), a=np.array([0.0]), dd=np.array([0.0]))
    traj = integrate(frozen_params(), init, IntegrationConfig(step=0.5, horizon=5.0, sample_every=1.0))
    assert extinction_time_deterministic(traj, 1e-3) == 0.0


def test_still_active_at_the_end_returns_none():
    init = ContinuousState(t=0.0, s=np.array([10.0]), a=np.array([5.0]), dd=np.array([0.0]))
    traj = integrate(frozen_params(), init, IntegrationConfig(step=0.5, horizon=5.0, sample_every=1.0))
    assert extinction_time_deterministic(traj, 1e-3) is None


def test_threshold_must_be_positive_and_finite():
    init = ContinuousState(t=0.0, s=np.array([10.0]), a=np.array([0.0]), dd=np.array([0.0]))
    traj = integrate(frozen_params(), init, IntegrationConfig(step=0.5, horizon=5.0, sample_every=1.0))
    with pytest.raises(DomainError):
        extinction_time_deterministic(traj, 0.0)
    with pytest.raises(DomainError):
        extinction_time_deterministic(traj, np.inf)


def test_weaker_spreading_dies_out_sooner():
    base = two_group_params()
    eq = disease_free_equilibrium(base)
    times = {}
    for target in (0.5, 0.9):
        p = base.with_alpha(calibrate_alpha(base, target))
        init = ContinuousState(t=0.0, s=eq.s_star, a=np.array([1.0, 1.0]), dd=eq.d_star)
        traj = integrate(p, init, IntegrationConfig(step=0.05, horizon=2600.0, sample_every=2.0))
        times[target] = extinction_time_deterministic(traj, 1e-3)
    assert times[0.5] == 394.0
    assert times[0.9] == 1348.0
    assert times[0.5] < times[0.9]
