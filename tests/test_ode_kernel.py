"""The scalar mean-field kernel against the numpy flow it replaced.

The oracle below is the array implementation the package used before the
scalar kernel: the flow on numpy vectors, a logistic coupling that
rebuilds ``ModelParams`` for every RK4 stage, and the same step, clamp
and sampling loop. ``integrate``, ``ode_rhs`` and ``endemic_equilibrium``
must agree with it to rounding.
"""

import numpy as np
import pytest
from conftest import two_group_params
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import (
    ContinuousState,
    IntegrationConfig,
    LogisticConfig,
    ModelParams,
    calibrate_alpha,
    disease_free_equilibrium,
    effective_params_for_total,
    endemic_equilibrium,
    integrate,
    ode_rhs,
)

# ------------------------------------------------------------------- oracle


def oracle_rhs(params: ModelParams, y: np.ndarray) -> np.ndarray:
    m = params.m
    s, a, dd = y[:m], y[m : 2 * m], y[2 * m :]
    act = (params.alpha / params.n_total) * float(params.gamma @ a) * params.eps * s
    ds = params.b - act - (params.d + params.rho) * s + params.delta * dd
    da = act - (params.d + params.phi) * a
    ddd = params.phi * a + params.rho * s - (params.d + params.delta) * dd
    return np.concatenate([ds, da, ddd])


def oracle_rk4(y: np.ndarray, h: float, f) -> np.ndarray:
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def oracle_field(params: ModelParams, logistic: LogisticConfig | None):
    if logistic is not None and logistic.enabled:
        return lambda v: oracle_rhs(effective_params_for_total(params, logistic, float(v.sum())), v)
    return lambda v: oracle_rhs(params, v)


def oracle_integrate(params, init, cfg, logistic=None):
    """Sampled states (rows of s + a + dd) and the clamp count."""
    f = oracle_field(params, logistic)
    stride = int(round(cfg.sample_every / cfg.step))
    n_steps = int(np.floor(cfg.horizon / cfg.step + 1e-9))
    y = np.concatenate([init.s, init.a, init.dd]).astype(float)
    rows, clamped = [y.copy()], 0
    for j in range(1, n_steps + 1):
        y = oracle_rk4(y, cfg.step, f)
        assert np.all(np.isfinite(y))
        if np.any(y < 0):
            clamped += 1
            np.maximum(y, 0.0, out=y)
        if j % stride == 0:
            rows.append(y.copy())
    return np.array(rows), clamped


def oracle_endemic(params, seed_state, tol=1e-9, step=0.05, horizon=2e4):
    f = oracle_field(params, None)
    y = np.concatenate([seed_state.s, seed_state.a, seed_state.dd])
    for _ in range(int(horizon / step)):
        if float(np.max(np.abs(f(y)))) < tol:
            return y
        y = oracle_rk4(y, step, f)
        np.maximum(y, 0.0, out=y)
    raise AssertionError("oracle did not converge")


def flat(traj) -> np.ndarray:
    return np.hstack([traj.s, traj.a, traj.dd])


def assert_close(got: np.ndarray, want: np.ndarray, rel: float) -> None:
    # relative to the largest entry, so that compartments emptied to
    # rounding level do not demand a relative match of their own
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= rel * scale


# --------------------------------------------------------------- strategies


@st.composite
def scenarios(draw):
    m = draw(st.integers(1, 8))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))

    params = ModelParams(
        m=m,
        n_total=draw(st.floats(20.0, 500.0)),
        alpha=draw(st.floats(0.0, 5.0)),
        b=vec(0.0, 1.0), d=vec(0.0, 0.1), rho=vec(0.0, 0.3), delta=vec(0.0, 0.3),
        phi=vec(0.0, 0.3), eps=vec(0.0, 1.0), gamma=vec(0.0, 1.0),
    )
    init = ContinuousState(t=0.0, s=vec(0.0, 60.0), a=vec(0.0, 20.0), dd=vec(0.0, 20.0))
    logistic = None
    if draw(st.booleans()):
        logistic = LogisticConfig(enabled=True, growth_rate=draw(st.floats(0.0, 1.0)),
                                  capacity=draw(st.floats(10.0, 300.0)))
    return params, init, logistic


# -------------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    scenario=scenarios(),
    step=st.sampled_from([0.01, 0.02, 0.025, 0.05]),
    stride=st.integers(1, 5),
    samples=st.integers(1, 20),
)
def test_integrate_matches_the_array_oracle(scenario, step, stride, samples):
    params, init, logistic = scenario
    cfg = IntegrationConfig(step=step, sample_every=stride * step, horizon=samples * stride * step)
    want, clamped = oracle_integrate(params, init, cfg, logistic)
    traj = integrate(params, init, cfg, logistic=logistic)
    assert traj.clamped_steps == clamped
    assert_close(flat(traj), want, 1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scenario=scenarios())
def test_ode_rhs_matches_the_array_oracle(scenario):
    params, state, _ = scenario
    got = np.concatenate(ode_rhs(params, state))
    want = oracle_rhs(params, np.concatenate([state.s, state.a, state.dd]))
    assert_close(got, want, 1e-10)


@pytest.mark.parametrize("r0, step, horizon, growth, clamps", [
    (2.3, 0.1, 60.0, 1.0, 0),
    # a step so coarse that one step in 2000 needs the clamp, within budget
    (4.9, 1.0, 2000.0, 0.05, 1),
])
def test_table2_logistic_run_matches_the_array_oracle(r0, step, horizon, growth, clamps):
    base = two_group_params()
    p = base.with_alpha(calibrate_alpha(base, r0))
    eq = disease_free_equilibrium(p)
    init = ContinuousState(t=0.0, s=eq.s_star - 0.01 * eq.s_star, a=0.01 * eq.s_star, dd=eq.d_star)
    lg = LogisticConfig(enabled=True, growth_rate=growth, capacity=150.0)
    cfg = IntegrationConfig(step=step, horizon=horizon, sample_every=step)
    want, clamped = oracle_integrate(p, init, cfg, lg)
    traj = integrate(p, init, cfg, logistic=lg)
    assert traj.clamped_steps == clamped == clamps
    assert_close(flat(traj), want, 1e-10)


def test_frozen_activation_run_is_bit_identical_to_the_oracle():
    # with alpha = 0 no sum enters the flow, and the kernel performs the
    # oracle's arithmetic operation for operation, so the trajectories
    # agree to the last bit
    p = two_group_params(alpha=0.0)
    init = ContinuousState(t=0.0, s=np.array([30.0, 42.0]), a=np.array([20.0, 8.0]), dd=np.zeros(2))
    cfg = IntegrationConfig(step=0.01, horizon=2.0, sample_every=0.5)
    want, _ = oracle_integrate(p, init, cfg)
    np.testing.assert_array_equal(flat(integrate(p, init, cfg)), want)


def test_endemic_point_matches_the_oracle_march():
    # faster turnover than table2, so both marches converge in a few
    # thousand steps
    base = two_group_params()
    fast = ModelParams(m=2, n_total=100.0, alpha=1.0, b=0.1, d=0.1, rho=0.3, delta=0.3,
                       phi=0.2, eps=base.eps, gamma=base.gamma)
    for target in (1.4, 2.3):
        p = fast.with_alpha(calibrate_alpha(fast, target))
        eq = disease_free_equilibrium(p)
        seed = ContinuousState(t=0.0, s=0.9 * eq.s_star, a=0.1 * eq.s_star, dd=eq.d_star)
        got = endemic_equilibrium(p, seed)
        want = oracle_endemic(p, seed)
        assert got.kind == "endemic"
        assert_close(np.concatenate([got.s_star, got.a_star, got.d_star]), want, 1e-12)
