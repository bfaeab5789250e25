"""Core model: parameters, activation pressure, flow field, equilibria."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    ConvergenceError,
    fast_params,
    march_equilibrium,
    random_params,
    single_group_params,
    two_group_params,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffusim import (
    ContinuousState,
    ModelParams,
    disease_free_equilibrium,
    endemic_equilibrium,
    ode_rhs,
)
from diffusim.errors import DomainError, NumericError
from diffusim.model import _activation_ratio
from diffusim.threshold import calibrate_alpha, r0_rank_one


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


def activation(params: ModelParams, a: np.ndarray) -> np.ndarray:
    """``ode_rhs``'s a' on the demo susceptibles with d = phi = 0: the
    activation term sum_j lam_ij s_i alone."""
    state = ContinuousState(t=0.0, s=demo_state().s, a=a, dd=np.zeros(params.m))
    return ode_rhs(replace(params, d=0.0, phi=0.0), state)[1]


def test_activation_pressure_matrix_on_demo_state():
    lam = np.array([[0.032, 0.0224], [0.048, 0.0336]])
    np.testing.assert_allclose(
        activation(two_group_params(), demo_state().a), lam.sum(axis=1) * demo_state().s,
        rtol=0.0, atol=1e-15,
    )


def test_activation_pressure_scales_linearly_with_alpha():
    p = two_group_params()
    a = demo_state().a
    np.testing.assert_allclose(
        activation(p.with_alpha(3.0), a), 3.0 * activation(p, a)
    )


def test_activation_pressure_zero_without_actives():
    np.testing.assert_array_equal(activation(two_group_params(), np.zeros(2)), np.zeros(2))


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


def test_flow_field_refuses_a_non_finite_derivative():
    # table2 at s = a = 1e300: the activation term overflows, so s' is -inf
    # and a' is +inf; the first non-finite component is named, without
    # a numpy warning first
    huge = ContinuousState(t=0.0, s=[1e300, 1e300], a=[1e300, 1e300], dd=[0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"^derivative of s_1 is not finite: -inf$"):
            ode_rhs(two_group_params(), huge)
    # a finite derivative of an equally huge state passes: no activation without actives
    calm = ContinuousState(t=0.0, s=[1e300, 1e300], a=[0.0, 0.0], dd=[0.0, 0.0])
    ds, da, _ = ode_rhs(two_group_params(), calm)
    assert np.all(np.isfinite(ds)) and np.all(da == 0.0)


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
        march_equilibrium(p, seeded_state(p), horizon=5.0)
    assert err.value.last_state is not None


@pytest.mark.parametrize("horizon, n_steps", [(0.3, 3), (0.7, 7)])
def test_persistent_search_runs_every_step_of_the_horizon(horizon, n_steps):
    # with tol 0 the search never converges, so it must run all
    # floor(horizon / step) steps and report the time it reached
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 2.3))
    with pytest.raises(ConvergenceError) as err:
        march_equilibrium(p, seeded_state(p), tol=0.0, horizon=horizon, step=0.1)
    assert err.value.last_state.t == pytest.approx(n_steps * 0.1)


def test_persistent_search_never_clamps_a_nan_into_a_point():
    # gamma * a overflows, so the first residual is inf * 0 = nan; a march
    # that clamped the nan state to 0 would settle on a spurious point
    p = ModelParams(m=1, n_total=100.0, alpha=1.0, b=0.0, d=0.0, rho=0.1,
                    delta=0.0, phi=0.1, eps=1.0, gamma=10.0)
    seed = ContinuousState(t=0.0, s=np.array([0.0]), a=np.array([1e308]), dd=np.array([0.0]))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"non-finite at t = 0\.1$"):
        march_equilibrium(p, seed, horizon=1.0, step=0.1)


# ------------------------------------------------- endemic point, closed form


def flat_point(eq) -> np.ndarray:
    return np.concatenate([eq.s_star, eq.a_star, eq.d_star])


def assert_same_point(got, want) -> None:
    assert got.kind == want.kind
    np.testing.assert_array_equal(flat_point(got), flat_point(want))


def max_residual(p: ModelParams, eq) -> float:
    state = ContinuousState(t=0.0, s=eq.s_star, a=eq.a_star, dd=eq.d_star)
    return float(np.abs(np.concatenate(ode_rhs(p, state))).max())


def jacobian(p: ModelParams, y: np.ndarray) -> np.ndarray:
    """The derivative of ode_rhs with respect to the flat state s + a + dd."""
    m = p.m
    s, a = y[:m], y[m : 2 * m]
    w = p.alpha / p.n_total * float(p.gamma @ a)
    # d(act_i)/d(a_j) = (alpha / N) eps_i s_i gamma_j
    act_a = p.alpha / p.n_total * np.outer(p.eps * s, p.gamma)
    jac = np.zeros((3 * m, 3 * m))
    si, ai, di = np.s_[:m], np.s_[m : 2 * m], np.s_[2 * m :]
    jac[si, si] = np.diag(-w * p.eps - p.d - p.rho)
    jac[si, ai] = -act_a
    jac[si, di] = np.diag(p.delta)
    jac[ai, si] = np.diag(w * p.eps)
    jac[ai, ai] = act_a - np.diag(p.d + p.phi)
    jac[di, si] = np.diag(p.rho)
    jac[di, ai] = np.diag(p.phi)
    jac[di, di] = np.diag(-(p.d + p.delta))
    return jac


def march_bound(p: ModelParams, y: np.ndarray, tol: float) -> float:
    """How far a march that stopped at max|rhs| < tol can be from the rest point y.

    Near y, rhs(x) = J (x - y) + O(|x - y|^2), so |x - y| <= ||J^-1|| tol
    in the max norm, to first order; the factor 2 covers the second-order
    term and rounding, both far below it at these tolerances.
    """
    return 2.0 * np.linalg.norm(np.linalg.inv(jacobian(p, y)), np.inf) * tol


@pytest.mark.parametrize("r0", [1.4, 2.3, 4.9])
@pytest.mark.parametrize("scenario", ["table2", "fast"])
def test_closed_form_matches_the_march_to_its_tolerance(scenario, r0):
    base = two_group_params() if scenario == "table2" else fast_params()
    p = base.with_alpha(calibrate_alpha(base, r0))
    seed = seeded_state(p, 0.01 if scenario == "table2" else 0.1)
    eq = endemic_equilibrium(p, seed)
    march = march_equilibrium(p, seed, tol=1e-12)
    assert eq.kind == march.kind == "endemic"
    y = flat_point(eq)
    gap = float(np.abs(y - flat_point(march)).max())
    assert gap <= march_bound(p, y, 1e-12), gap
    assert max_residual(p, eq) <= 1e-15 * float(y.max())


@st.composite
def endemic_models(draw):
    """Rates with every d_i > 0, alpha calibrated to a drawn R0 where one can be reached."""
    m = draw(st.integers(1, 4))

    def vec(lo, hi, off=False):
        # off: zero in any group but the first, else at least lo, so that a
        # calibrated alpha stays finite and the two R0 routes round alike
        value = st.floats(lo, hi)
        rest = st.one_of(st.just(0.0), value) if off else value
        return np.array([draw(value)] + draw(st.lists(rest, min_size=m - 1, max_size=m - 1)))

    p = ModelParams(
        m=m, n_total=draw(st.floats(20.0, 500.0)), alpha=1.0,
        b=vec(1e-3, 1.0, off=True), d=vec(1e-6, 0.1), rho=vec(0.0, 0.3), delta=vec(0.0, 0.3),
        phi=vec(0.0, 0.3), eps=vec(1e-2, 1.0, off=True), gamma=vec(1e-2, 1.0, off=True),
    )
    if r0_rank_one(p) > 0.0:
        p = p.with_alpha(calibrate_alpha(p, draw(st.floats(0.1, 20.0))))
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=endemic_models())
def test_closed_form_point_is_the_rest_point_or_the_dfe(p):
    r0 = r0_rank_one(p)
    # within rounding of the threshold the two R0 routes may fall on either side
    assume(abs(r0 - 1.0) > 1e-12)
    dfe = disease_free_equilibrium(p)
    eq = endemic_equilibrium(p, ContinuousState(t=0.0, s=dfe.s_star, a=np.full(p.m, 0.1), dd=dfe.d_star))
    if r0 <= 1.0:
        assert_same_point(eq, dfe)
        return
    y = flat_point(eq)
    # a group with no births or no susceptibility rests without actives
    assert np.all(y >= 0) and float(eq.a_star.sum()) > 0
    assert max_residual(p, eq) <= 1e-12 * float(y.max())
    # locally stable, so it is the point a march from nearby tends to
    assert np.all(np.linalg.eigvals(jacobian(p, y)).real < 0)


def test_activation_ratio_at_zero_is_the_rank_one_r0():
    rng = np.random.default_rng(29)
    for _ in range(200):
        p = random_params(rng, int(rng.integers(1, 9)))
        assert _activation_ratio(p, p.b, p.d)(0.0) == pytest.approx(r0_rank_one(p), rel=1e-13)


def test_group_without_births_rests_empty():
    base = ModelParams(m=2, n_total=100.0, alpha=1.0, b=[0.01, 0.0], d=0.01, rho=0.2,
                       delta=0.03, phi=0.03, eps=[0.4, 0.6], gamma=[0.4, 0.7])
    p = base.with_alpha(calibrate_alpha(base, 2.3))
    seed = ContinuousState(t=0.0, s=[0.5, 0.5], a=[0.1, 0.1], dd=[0.3, 0.3])
    eq = endemic_equilibrium(p, seed)
    assert eq.kind == "endemic"
    assert eq.s_star[1] == eq.a_star[1] == eq.d_star[1] == 0.0
    assert eq.a_star[0] > 0
    y = flat_point(eq)
    assert max_residual(p, eq) <= 1e-15 * float(y.max())
    march = march_equilibrium(p, seed, tol=1e-12)
    assert float(np.abs(y - flat_point(march)).max()) <= march_bound(p, y, 1e-12)


def test_rest_point_just_above_threshold_grows_with_the_excess():
    # the transcritical branch: the active mass is proportional to R0 - 1
    base = two_group_params()
    seed = seeded_state(base)
    masses = []
    for excess in (1e-6, 2e-6):
        p = base.with_alpha(calibrate_alpha(base, 1.0 + excess))
        eq = endemic_equilibrium(p, seed)
        assert np.all(eq.a_star > 0)
        # below an active mass of 1e-3, the point is tagged as by the march
        assert eq.kind == "disease_free"
        assert max_residual(p, eq) <= 1e-15 * float(flat_point(eq).max())
        masses.append(float(eq.a_star.sum()))
    assert masses[1] / masses[0] == pytest.approx(2.0, rel=1e-4)


def test_rest_point_just_below_threshold_is_the_dfe():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 1.0 - 1e-9))
    assert_same_point(endemic_equilibrium(p, seeded_state(base)), disease_free_equilibrium(p))


def test_closed_form_route_still_needs_active_mass():
    p = two_group_params()
    eq = disease_free_equilibrium(p)
    with pytest.raises(DomainError, match="active mass"):
        endemic_equilibrium(p, ContinuousState(t=0.0, s=eq.s_star, a=np.zeros(2), dd=eq.d_star))


def test_closed_form_route_refuses_an_overflowing_bracket():
    # b / d overflows, so (0, gamma . b/d] is no bracket; a NaN point must not come back
    p = ModelParams(m=1, n_total=100.0, alpha=1.0, b=1.0, d=5e-324, rho=0.1,
                    delta=0.1, phi=0.1, eps=1.0, gamma=1.0)
    seed = ContinuousState(t=0.0, s=[1.0], a=[1.0], dd=[0.0])
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
        endemic_equilibrium(p, seed)


def test_endemic_point_below_threshold_equals_the_dfe():
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, 0.5))
    eq = endemic_equilibrium(p, seeded_state(p))
    assert eq == disease_free_equilibrium(p)
    assert eq != endemic_equilibrium(base.with_alpha(calibrate_alpha(base, 2.3)), seeded_state(p))


# ------------------------------------- endemic point, groups that keep their totals


def seed_totals(p: ModelParams, seed: ContinuousState) -> np.ndarray:
    """N_i = s_i + a_i + dd_i of the seed for groups with d_i = 0, else 0."""
    return np.where(p.d == 0, seed.s + seed.a + seed.dd, 0.0)


def threshold_at_seed(p: ModelParams, seed: ContinuousState) -> float:
    """R0 with each conserved group at its seed total: the W -> 0 limit of the ratio.

    A group with d_i > 0 adds alpha eps_i gamma_i s*_i / (N (d_i + phi_i));
    a conserved one adds alpha eps_i gamma_i N_i delta_i / (N phi_i (delta_i + rho_i)).
    """
    total = 0.0
    for i, n_i in enumerate(seed_totals(p, seed)):
        weight = p.alpha * p.eps[i] * p.gamma[i] / p.n_total
        if p.d[i] == 0:
            total += weight * n_i * p.delta[i] / (p.phi[i] * (p.delta[i] + p.rho[i]))
        else:
            s_i = p.b[i] * (p.d[i] + p.delta[i]) / (p.d[i] * (p.d[i] + p.delta[i] + p.rho[i]))
            total += weight * s_i / (p.d[i] + p.phi[i])
    return total


def totals_march_bound(p: ModelParams, y: np.ndarray, march: np.ndarray, tol: float) -> float:
    """march_bound for a flow in which the groups with d_i = 0 keep their totals.

    Each such group's rows of rhs sum to zero, so J is singular. With L
    the 0/1 matrix whose columns mark those groups' coordinates,
    (J + L L^T)(x - y) = rhs(x) + L L^T (x - y) to first order, and
    L^T (x - y) is how far the march's totals drifted from y's. So
    |x - y| <= ||(J + L L^T)^-1|| (tol + drift) in the max norm, and the
    factor 2 again covers the second-order term. With every d_i > 0, L
    is empty, the drift is 0, and this is march_bound.
    """
    m = p.m
    kept = np.flatnonzero(p.d == 0)
    lmat = np.zeros((3 * m, kept.size))
    for col, i in enumerate(kept):
        lmat[[i, m + i, 2 * m + i], col] = 1.0
    drift = float(np.abs(lmat.T @ (march - y)).max(initial=0.0))
    pinned = jacobian(p, y) + lmat @ lmat.T
    return 2.0 * np.linalg.norm(np.linalg.inv(pinned), np.inf) * (tol + drift)


@st.composite
def conserving_models(draw, mixed: bool):
    """(params, seed) with b = d = 0 in every group, or (mixed) in some groups and
    d_i > 0 in the others; alpha is set so that R0 at the seed is drawn away from 1,
    where the march slows down."""
    m = draw(st.integers(2, 4) if mixed else st.integers(1, 3))
    kept = [True] * m
    if mixed:
        kept = draw(st.lists(st.booleans(), min_size=m, max_size=m).filter(lambda k: 0 < sum(k) < m))
    rate, weight = st.floats(0.1, 0.5), st.floats(0.1, 1.0)

    def vec(values):
        return [draw(values) for _ in range(m)]

    p = ModelParams(
        m=m, n_total=draw(st.floats(20.0, 200.0)), alpha=1.0,
        b=[0.0 if k else draw(st.floats(0.5, 5.0)) for k in kept],
        d=[0.0 if k else draw(st.floats(0.1, 0.3)) for k in kept],
        rho=vec(rate), delta=vec(rate), phi=vec(rate), eps=vec(weight), gamma=vec(weight),
    )
    seed = ContinuousState(t=0.0, s=vec(st.floats(0.0, 50.0)),
                           a=[draw(st.floats(1.0, 20.0))] + [draw(st.floats(0.0, 20.0)) for _ in range(m - 1)],
                           dd=vec(st.floats(0.0, 20.0)))
    r0 = draw(st.floats(0.2, 6.0).filter(lambda r: not 0.7 < r < 1.5))
    return p.with_alpha(r0 / threshold_at_seed(p, seed)), seed


def assert_matches_the_march(p: ModelParams, seed: ContinuousState) -> None:
    eq = endemic_equilibrium(p, seed)
    march = march_equilibrium(p, seed, tol=1e-12)
    assert eq.kind == march.kind
    assert eq.kind == ("endemic" if threshold_at_seed(p, seed) > 1.0 else "disease_free")
    y, x = flat_point(eq), flat_point(march)
    gap = float(np.abs(y - x).max())
    assert gap <= totals_march_bound(p, y, x, 1e-12), gap
    assert max_residual(p, eq) <= 1e-12 * float(y.max())
    kept = p.d == 0
    ratio = _activation_ratio(p, np.where(kept, seed_totals(p, seed), p.b), np.where(kept, 1.0, p.d))
    assert ratio(0.0) == pytest.approx(threshold_at_seed(p, seed), rel=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=conserving_models(mixed=False))
def test_closed_form_matches_the_march_when_every_group_keeps_its_total(model):
    assert_matches_the_march(*model)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(model=conserving_models(mixed=True))
def test_closed_form_matches_the_march_with_some_groups_keeping_their_totals(model):
    assert_matches_the_march(*model)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_conserved_table2_rates_match_the_march(alpha):
    # table2's rates with b = d = 0; at alpha 0.5 the seed's threshold
    # ratio is 0.63, so the point is the W -> 0 limit, with no actives
    base = two_group_params()
    p = ModelParams(m=2, n_total=100.0, alpha=alpha, b=0.0, d=0.0, rho=base.rho, delta=base.delta,
                    phi=base.phi, eps=base.eps, gamma=base.gamma)
    seed = demo_state()
    assert_matches_the_march(p, seed)
    eq = endemic_equilibrium(p, seed)
    np.testing.assert_allclose(eq.s_star + eq.a_star + eq.d_star, [50.0, 50.0], rtol=1e-15)
    if alpha == 0.5:
        assert threshold_at_seed(p, seed) < 1.0
        np.testing.assert_array_equal(eq.a_star, 0.0)
        np.testing.assert_allclose(eq.s_star, 50.0 * p.delta / (p.delta + p.rho), rtol=1e-15)


def test_growing_group_without_deaths_fails_at_once():
    # group 2 gains b_2 per unit time and loses nothing, so no rest point exists
    base = two_group_params()
    p = ModelParams(m=2, n_total=100.0, alpha=5.0, b=0.01, d=[0.01, 0.0], rho=base.rho,
                    delta=base.delta, phi=base.phi, eps=base.eps, gamma=base.gamma)
    with pytest.raises(DomainError, match=r"^group 2 has d_i = 0 < b_i"):
        endemic_equilibrium(p, demo_state())


def test_conserved_route_refuses_an_overflowing_bracket():
    # the seed total of 1e308 overflows gamma . N, so (0, gamma . N] is no bracket
    p = ModelParams(m=1, n_total=100.0, alpha=1.0, b=0.0, d=0.0, rho=0.1,
                    delta=0.1, phi=0.1, eps=1.0, gamma=10.0)
    seed = ContinuousState(t=0.0, s=np.array([0.0]), a=np.array([1e308]), dd=np.array([0.0]))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
        endemic_equilibrium(p, seed)
    # without returns (delta = 0) the threshold ratio is 0, and everything
    # ends deactivated: no bracket is needed
    eq = endemic_equilibrium(replace(p, delta=0.0), seed)
    assert eq.kind == "disease_free"
    np.testing.assert_allclose(flat_point(eq), [0.0, 0.0, 1e308], rtol=1e-15)


def test_conserved_group_without_returns_ends_deactivated_above_threshold():
    # group 1 (table2's rates at a total of 100) carries R0 = 2.3; group 2 keeps
    # its total of 50 with delta_2 = 0, so it rests at (0, 0, 50), where the
    # flow's (phi a + rho s) / (d + delta) for dd is 0 / 0
    base = two_group_params()
    p = ModelParams(m=2, n_total=100.0, alpha=1.0, b=[1.0, 0.0], d=[0.01, 0.0], rho=base.rho,
                    delta=[0.03, 0.0], phi=base.phi, eps=base.eps, gamma=base.gamma)
    seed = demo_state()
    p = p.with_alpha(calibrate_alpha(p, 2.3, totals=seed_totals(p, seed)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq = endemic_equilibrium(p, seed)
    assert eq.kind == "endemic" and np.isfinite(flat_point(eq)).all()
    assert eq.s_star[1] == eq.a_star[1] == 0.0
    assert eq.d_star[1] == pytest.approx(50.0, rel=1e-15)
    assert_matches_the_march(p, seed)


def test_overflowing_threshold_ratio_is_refused():
    # alpha eps_i gamma_i N_i delta_i / n_total overflows while gamma . N does
    # not; a bisection on an infinite ratio would return a NaN point
    p = ModelParams(m=1, n_total=100.0, alpha=1000.0, b=0.0, d=0.0, rho=0.1,
                    delta=0.5, phi=0.1, eps=1.0, gamma=1.0)
    seed = ContinuousState(t=0.0, s=np.array([0.0]), a=np.array([1e308]), dd=np.array([0.0]))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"R0 = inf is not finite"):
        endemic_equilibrium(p, seed)


def _one_group(**rates):
    return ModelParams(**{**dict(m=1, n_total=100.0, alpha=1.0, b=0.0, d=0.0, rho=0.1,
                                 delta=0.1, phi=0.1, eps=1.0, gamma=1.0), **rates})


def _seeded(a0):
    return ContinuousState(t=0.0, s=[0.0], a=[a0], dd=[0.0])


@pytest.mark.parametrize("call, match", [
    (lambda: endemic_equilibrium(_one_group(b=1.0, d=5e-324), _seeded(1.0)), "bracket .* is not finite"),
    (lambda: endemic_equilibrium(_one_group(gamma=10.0), _seeded(1e308)), "bracket .* is not finite"),
    (lambda: endemic_equilibrium(_one_group(alpha=1000.0, delta=0.5), _seeded(1e308)), "R0 = inf is not finite"),
    (lambda: disease_free_equilibrium(_one_group(b=1.0, d=5e-324)), "group 1 is not finite"),
    # R0 and the bracket are finite, but alpha eps W / n_total overflows at the
    # root: this used to return (0, nan, nan) tagged disease_free
    (lambda: endemic_equilibrium(_one_group(n_total=1e45, b=1.0, d=1e-178, delta=0.4, phi=1.0,
                                            eps=1e63, gamma=1e83),
                                 ContinuousState(t=0.0, s=[1.0], a=[1.0], dd=[0.0])),
     r"^rest point of group 1 is not finite: s = 0\.0, a = nan, dd = nan"),
], ids=["bracket", "conserved_bracket", "threshold_ratio", "disease_free_point", "rest_point"])
def test_refused_points_raise_before_any_numpy_warning(call, match):
    # the inputs of the overflow tests above, with every warning an error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=match):
            call()


@pytest.mark.parametrize("params, seed, group", [
    (_one_group(), ContinuousState(t=0.0, s=[1e308], a=[1e308], dd=[0.0]), 1),
    (_one_group(m=2, b=[0.01, 0.0], d=[0.01, 0.0]), ContinuousState(t=0.0, s=[1.0, 1e308], a=[1.0, 0.0],
                                                                      dd=[0.0, 1e308]), 2),
], ids=["conserved", "second_group"])
def test_a_seed_whose_group_total_overflows_is_refused_naming_the_group(params, seed, group):
    # s + a + dd overflowed with numpy's warning, and the refusal that
    # followed, "totals: entries must be finite", named a keyword the
    # caller never passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^seed group {group}: its total s \+ a \+ dd overflows to inf$"):
            endemic_equilibrium(params, seed)


@pytest.mark.parametrize("phi, delta, rho", [(0.0, 0.0, 0.2), (0.0, 0.03, 0.2), (0.03, 0.0, 0.0)])
def test_conserved_group_without_a_unique_rest_point_is_refused(phi, delta, rho):
    # phi_i (delta_i + rho_i) = 0: at W = 0 the group's split of its total is
    # frozen where the seed left it; with phi_i = delta_i = 0 it is at every W
    p = ModelParams(m=2, n_total=100.0, alpha=2.0, b=[0.01, 0.0], d=[0.01, 0.0], rho=[0.2, rho],
                    delta=[0.03, delta], phi=[0.03, phi], eps=[0.4, 0.6], gamma=[0.4, 0.7])
    with pytest.raises(DomainError, match=r"^group 2 keeps its total but has phi_i \(delta_i \+ rho_i\) = 0"):
        endemic_equilibrium(p, demo_state())
