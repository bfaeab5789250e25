"""Core model: parameters, activation pressure, flow field, equilibria."""

import numpy as np
import pytest
from conftest import random_params, single_group_params, two_group_params

from diffusim import (
    ContinuousState,
    ModelParams,
    disease_free_equilibrium,
    endemic_equilibrium,
    force_of_activation,
    ode_rhs,
)
from diffusim.errors import ConvergenceError, DomainError, NumericError
from diffusim.threshold import calibrate_alpha


def demo_state() -> ContinuousState:
    return ContinuousState(
        t=0.0,
        s=np.array([30.0, 42.0]),
        a=np.array([20.0, 8.0]),
        dd=np.array([0.0, 0.0]),
    )


# ---------------------------------------------------------------- parameters


def test_scalar_rates_broadcast_to_every_group():
    p = ModelParams(m=3, n_total=50.0, alpha=1.0, b=0.1, d=0.2, rho=0.3,
                    delta=0.4, phi=0.5, eps=0.6, gamma=0.7)
    for name, value in (("b", 0.1), ("d", 0.2), ("rho", 0.3), ("delta", 0.4),
                        ("phi", 0.5), ("eps", 0.6), ("gamma", 0.7)):
        np.testing.assert_array_equal(getattr(p, name), np.full(3, value))


def test_rate_arrays_are_read_only():
    p = two_group_params()
    with pytest.raises(ValueError):
        p.eps[0] = 9.0


def test_with_alpha_replaces_only_alpha():
    p = two_group_params()
    q = p.with_alpha(3.5)
    assert q.alpha == 3.5
    assert q.m == p.m and np.array_equal(q.eps, p.eps)
    assert p.alpha == 1.0


def test_params_equality_covers_arrays():
    assert two_group_params() == two_group_params()
    assert two_group_params() != two_group_params(alpha=2.0)


@pytest.mark.parametrize("field,value", [
    ("m", 0),
    ("n_total", 0.0),
    ("n_total", -5.0),
    ("alpha", -1.0),
    ("b", -0.01),
    ("d", np.array([0.01, -0.01])),
    ("eps", np.array([0.4, np.nan])),
])
def test_invalid_params_rejected(field, value):
    kwargs = dict(m=2, n_total=100.0, alpha=1.0, b=0.01, d=0.01, rho=0.2,
                  delta=0.03, phi=0.03, eps=np.array([0.4, 0.6]),
                  gamma=np.array([0.4, 0.7]))
    kwargs[field] = value
    with pytest.raises(DomainError):
        ModelParams(**kwargs)


def test_rate_vector_length_must_match_m():
    with pytest.raises(DomainError):
        ModelParams(m=2, n_total=100.0, alpha=1.0, b=0.01, d=0.01, rho=0.2,
                    delta=0.03, phi=0.03, eps=np.array([0.4, 0.6, 0.8]),
                    gamma=np.array([0.4, 0.7]))


def test_state_rejects_negative_and_wrong_length():
    with pytest.raises(DomainError):
        ContinuousState(t=0.0, s=np.array([-1.0, 2.0]), a=np.zeros(2), dd=np.zeros(2))
    with pytest.raises(DomainError):
        ContinuousState(t=0.0, s=np.zeros(2), a=np.zeros(3), dd=np.zeros(2))


# ---------------------------------------------------- activation pressure


def test_activation_pressure_matrix_on_demo_state():
    lam = force_of_activation(two_group_params(), demo_state().a)
    np.testing.assert_allclose(
        lam, np.array([[0.032, 0.0224], [0.048, 0.0336]]), rtol=0.0, atol=1e-15
    )


def test_activation_pressure_scales_linearly_with_alpha():
    p = two_group_params()
    a = demo_state().a
    np.testing.assert_allclose(
        force_of_activation(p.with_alpha(3.0), a), 3.0 * force_of_activation(p, a)
    )


def test_activation_pressure_zero_without_actives():
    lam = force_of_activation(two_group_params(), np.zeros(2))
    np.testing.assert_array_equal(lam, np.zeros((2, 2)))


# ---------------------------------------------------------------- flow field


def test_flow_field_on_demo_state_matches_hand_values():
    ds, da, ddd = ode_rhs(two_group_params(), demo_state())
    np.testing.assert_allclose(ds, np.array([-7.922, -12.2372]), atol=1e-12)
    np.testing.assert_allclose(da, np.array([0.832, 3.1072]), atol=1e-12)
    np.testing.assert_allclose(ddd, np.array([6.6, 8.64]), atol=1e-12)


def test_group_totals_obey_inflow_minus_mortality():
    # d(s + a + dd)/dt per group must equal b - d * (s + a + dd): the
    # internal transfers cancel exactly.
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        p = random_params(rng, m)
        st = ContinuousState(
            t=0.0, s=rng.uniform(0, 50, m), a=rng.uniform(0, 50, m),
            dd=rng.uniform(0, 50, m),
        )
        ds, da, ddd = ode_rhs(p, st)
        totals = st.s + st.a + st.dd
        np.testing.assert_allclose(ds + da + ddd, p.b - p.d * totals, atol=1e-12)


def test_flow_field_group_count_must_match():
    with pytest.raises(DomainError):
        ode_rhs(single_group_params(), demo_state())


# ---------------------------------------------------------------- equilibria


def closed_form_stationary_point(p: ModelParams):
    """Independent oracle: solve the a=0 stationarity system directly.

    With a = 0 the flow is linear in (s, dd) per group:
        0 = b - (d + rho) s + delta dd
        0 = rho s - (d + delta) dd
    """
    s = np.empty(p.m)
    dd = np.empty(p.m)
    for i in range(p.m):
        mat = np.array([
            [-(p.d[i] + p.rho[i]), p.delta[i]],
            [p.rho[i], -(p.d[i] + p.delta[i])],
        ])
        s[i], dd[i] = np.linalg.solve(mat, np.array([-p.b[i], 0.0]))
    return s, dd


def test_stationary_point_matches_linear_solve_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        p = random_params(rng, int(rng.integers(1, 5)))
        eq = disease_free_equilibrium(p)
        s_ref, d_ref = closed_form_stationary_point(p)
        np.testing.assert_allclose(eq.s_star, s_ref, rtol=1e-12)
        np.testing.assert_allclose(eq.d_star, d_ref, rtol=1e-12)
        np.testing.assert_array_equal(eq.a_star, np.zeros(p.m))
        assert eq.kind == "disease_free"


def test_demo_rates_stationary_point_is_one_sixth_five_sixths():
    eq = disease_free_equilibrium(two_group_params())
    np.testing.assert_allclose(eq.s_star, np.full(2, 1.0 / 6.0), rtol=1e-14)
    np.testing.assert_allclose(eq.d_star, np.full(2, 5.0 / 6.0), rtol=1e-14)


def test_stationary_point_zeroes_the_flow():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = random_params(rng, int(rng.integers(1, 5)))
        eq = disease_free_equilibrium(p)
        st = ContinuousState(t=0.0, s=eq.s_star, a=eq.a_star, dd=eq.d_star)
        ds, da, ddd = ode_rhs(p, st)
        assert max(np.abs(ds).max(), np.abs(da).max(), np.abs(ddd).max()) < 1e-10


def test_stationary_point_needs_positive_mortality():
    p = ModelParams(m=1, n_total=10.0, alpha=1.0, b=0.0, d=0.0, rho=0.2,
                    delta=0.03, phi=0.03, eps=1.0, gamma=1.0)
    with pytest.raises(DomainError):
        disease_free_equilibrium(p)


def seeded_state(p: ModelParams, fraction: float = 0.01) -> ContinuousState:
    eq = disease_free_equilibrium(p)
    a0 = fraction * eq.s_star
    return ContinuousState(t=0.0, s=eq.s_star - a0, a=a0, dd=eq.d_star)


def test_persistent_state_found_above_threshold():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 2.3))
    eq = endemic_equilibrium(p, seeded_state(p))
    assert eq.kind == "endemic"
    assert float(eq.a_star.sum()) > 1e-3
    st = ContinuousState(t=0.0, s=eq.s_star, a=eq.a_star, dd=eq.d_star)
    ds, da, ddd = ode_rhs(p, st)
    assert max(np.abs(ds).max(), np.abs(da).max(), np.abs(ddd).max()) < 1e-8


def test_persistent_search_below_threshold_lands_on_dfe():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 0.5))
    eq = endemic_equilibrium(p, seeded_state(p))
    assert eq.kind == "disease_free"
    assert float(eq.a_star.sum()) < 1e-3


def test_persistent_search_reports_nonconvergence_with_last_state():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 2.3))
    with pytest.raises(ConvergenceError) as err:
        endemic_equilibrium(p, seeded_state(p), horizon=5.0)
    assert err.value.last_state is not None


@pytest.mark.parametrize("horizon, n_steps", [(0.3, 3), (0.7, 7)])
def test_persistent_search_runs_every_step_of_the_horizon(horizon, n_steps):
    # with tol 0 the search never converges, so it must run all
    # floor(horizon / step) steps and report the time it reached
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 2.3))
    with pytest.raises(ConvergenceError) as err:
        endemic_equilibrium(p, seeded_state(p), tol=0.0, horizon=horizon, step=0.1)
    assert err.value.last_state.t == pytest.approx(n_steps * 0.1)


def test_persistent_search_never_clamps_a_nan_into_a_point():
    # gamma * a overflows, so the first residual is inf * 0 = nan; a march
    # that clamped the nan state to 0 would settle on a spurious point
    p = ModelParams(m=1, n_total=100.0, alpha=1.0, b=0.0, d=0.0, rho=0.1,
                    delta=0.0, phi=0.1, eps=1.0, gamma=10.0)
    seed = ContinuousState(t=0.0, s=np.array([0.0]), a=np.array([1e308]), dd=np.array([0.0]))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"non-finite at t = 0\.1$"):
        endemic_equilibrium(p, seed, horizon=1.0, step=0.1)
