"""The generated mean-field kernel against the two kernels before it.

The first oracle is the array implementation the package used before the
scalar kernel: the flow on numpy vectors, a logistic coupling that
rebuilds ``ModelParams`` for every RK4 stage, and the same step, clamp
and sampling loop. ``integrate``, ``ode_rhs`` and the endemic march
(``conftest.march_equilibrium``) must agree with it to rounding.

The second oracle is the scalar list kernel that the generated one
replaced, kept verbatim (``_flow`` and ``_rk4_step``), with the loop
``integrate`` ran on it (``list_march``). It performs the same operations
in the same order, so the generated ``flow`` and ``march`` must match it
bit for bit, signed zeros, clamp counts and error messages included, and
so must every ``integrate`` and endemic-march result.
"""

import gc
import math
import weakref
from operator import mul
from typing import Callable

import numpy as np
import pytest
from conftest import effective_params_for_total, fast_params, march_equilibrium, two_group_params
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffusim import (
    ContinuousState,
    IntegrationConfig,
    LogisticConfig,
    ModelParams,
    calibrate_alpha,
    disease_free_equilibrium,
    integrate,
    ode_rhs,
)
from diffusim.errors import DomainError, NumericError
from diffusim.integrate import _CLAMP_BUDGET
from diffusim.model import _kernel, _population_error

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


@st.composite
def marches(draw):
    """A scenario, integration settings and coupling for ``integrate``, drawn
    wide enough that some runs clamp, overflow or meet a negative logistic
    stage population."""
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=m, max_size=m)))

    params = ModelParams(
        m=m,
        n_total=draw(st.floats(1.0, 500.0)),
        alpha=draw(st.floats(0.0, 60.0)),
        b=vec(0.0, 2.0), d=vec(0.0, 0.5), rho=vec(0.0, 1.0), delta=vec(0.0, 1.0),
        phi=vec(0.0, 1.0), eps=vec(0.0, 1.0), gamma=vec(0.0, 1.0),
    )
    # a state this large overflows a product within a step or two
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e155]))
    init = ContinuousState(t=0.0, s=scale * vec(0.0, 60.0), a=scale * vec(0.0, 20.0), dd=scale * vec(0.0, 20.0))
    logistic = None
    if draw(st.booleans()):
        logistic = LogisticConfig(enabled=True, growth_rate=draw(st.floats(0.0, 5.0)),
                                  capacity=draw(st.floats(1.0, 300.0)))
    step = draw(st.sampled_from([0.01, 0.05, 0.25, 0.5, 1.0, 2.0]))
    stride = draw(st.integers(1, 5))
    n_steps = draw(st.sampled_from([1, 3, 12, 40, 1200]))
    cfg = IntegrationConfig(step=step, sample_every=stride * step, horizon=max(n_steps, stride) * step)
    return params, init, cfg, logistic


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
        got = march_equilibrium(p, seed)
        want = oracle_endemic(p, seed)
        assert got.kind == "endemic"
        assert_close(np.concatenate([got.s_star, got.a_star, got.d_star]), want, 1e-12)


# -------------------------------------------------------- list-kernel oracle


def _flow(params: ModelParams, logistic=None) -> Callable[[list[float]], list[float]]:
    """The flow on the flat list y = s + a + dd, as a function of y alone.

    The rates become lists of Python floats once, here, and the returned
    function does scalar arithmetic only: for the few groups the model is
    used with this is several times cheaper than numpy calls on length-m
    arrays (with constant coupling the crossover is near m = 24). Each
    component is evaluated left to right as written in :func:`ode_rhs`,
    with the activation term as ((alpha / N) (gamma . a)) eps_i s_i. With ``logistic`` enabled (a
    :class:`~diffusim.logistic.LogisticConfig`), births r N / m per group,
    the death rate r N / K and the activation denominator N follow the
    live population N = sum(y), as in
    ``conftest.effective_params_for_total``; a negative or
    non-finite N raises DomainError. Nothing else is validated.
    """
    m, m2 = params.m, 2 * params.m
    gamma = params.gamma.tolist()
    alpha, n_ref = params.alpha, params.n_total

    # two bodies, not one that branches per call: the constant one adds
    # d to the other rates once, here, which makes it about a quarter faster
    if logistic is None or not logistic.enabled:
        scale = alpha / n_ref
        rows = list(zip(*(v.tolist() for v in (
            params.b, params.eps, params.d + params.rho, params.delta,
            params.d + params.phi, params.phi, params.rho, params.d + params.delta,
        ))))

        def f(y: list[float]) -> list[float]:
            w = scale * sum(map(mul, gamma, y[m:m2]))
            out = y[:]
            for i, (b, eps, d_rho, delta, d_phi, phi, rho, d_delta) in enumerate(rows):
                s, a, dd = y[i], y[i + m], y[i + m2]
                act = w * eps * s
                out[i] = b - act - d_rho * s + delta * dd
                out[i + m] = act - d_phi * a
                out[i + m2] = phi * a + rho * s - d_delta * dd
            return out

        return f

    growth, capacity = logistic.growth_rate, logistic.capacity
    rows = list(zip(*(v.tolist() for v in (params.eps, params.rho, params.delta, params.phi))))

    def f(y: list[float]) -> list[float]:
        n = sum(y)
        if not 0.0 <= n < math.inf:
            raise _population_error(n)
        b = growth * n / m
        d = growth * n / capacity
        # an empty population has no activation anyway; keep the denominator valid
        w = alpha / (n if n > 0 else n_ref) * sum(map(mul, gamma, y[m:m2]))
        out = y[:]
        for i, (eps, rho, delta, phi) in enumerate(rows):
            s, a, dd = y[i], y[i + m], y[i + m2]
            act = w * eps * s
            out[i] = b - act - (d + rho) * s + delta * dd
            out[i + m] = act - (d + phi) * a
            out[i + m2] = phi * a + rho * s - (d + delta) * dd
        return out

    return f


def _rk4_step(
    f: Callable[[list[float]], list[float]], y: list[float], h: float, k1: list[float] | None = None
) -> list[float]:
    """One classic fourth-order Runge-Kutta step of size h.

    ``k1``, when given, must be f(y); it saves the first evaluation.
    """
    if k1 is None:
        k1 = f(y)
    hh = 0.5 * h
    k2 = f([yi + hh * ki for yi, ki in zip(y, k1)])
    k3 = f([yi + hh * ki for yi, ki in zip(y, k2)])
    k4 = f([yi + h * ki for yi, ki in zip(y, k3)])
    h6 = h / 6.0
    return [yi + h6 * (p + 2.0 * q + 2.0 * r + u) for yi, p, q, r, u in zip(y, k1, k2, k3, k4)]


def list_march(f, y: list[float], h: float, n_steps: int, stride: int) -> tuple[list[list[float]], int]:
    """``integrate``'s loop on the list kernel, as it ran before the generated
    march: the start and every ``stride``-th state, and the clamp count."""
    rows, clamped = [y], 0
    # one try for the whole loop: a logistic stage's DomainError is a step-size failure
    try:
        for j in range(1, n_steps + 1):
            y = _rk4_step(f, y, h)
            # every component is checked before the clamp, so a nan is never
            # clamped to 0 (a finiteness check on sum(y) could overflow)
            if not all(map(math.isfinite, y)):
                raise NumericError(f"state became non-finite at t = {j * h:g}")
            if min(y) < 0.0:
                clamped += 1
                y = [0.0 if v < 0.0 else v for v in y]
            if j % stride == 0:
                rows.append(y)
    except DomainError as exc:
        raise NumericError(f"{exc} at t = {j * h:g} (step {h:g}); decrease the step size") from exc
    return rows, clamped


def list_integrate(params, init, cfg, logistic=None, n_steps=None):
    """``integrate``'s march on the list kernel: sampled rows and the clamp count."""
    stride = int(round(cfg.sample_every / cfg.step))
    if n_steps is None:
        n_steps = int(math.floor(cfg.horizon / cfg.step + 1e-9))
    y = [*init.s.tolist(), *init.a.tolist(), *init.dd.tolist()]
    rows, clamped = list_march(_flow(params, logistic), y, cfg.step, n_steps, stride)
    return np.array(rows), clamped


def list_endemic(params, seed_state, tol=1e-9, step=0.05, horizon=2e4):
    """``march_equilibrium`` on the list kernel: the point reached."""
    f = _flow(params)
    y = [*seed_state.s.tolist(), *seed_state.a.tolist(), *seed_state.dd.tolist()]
    for _ in range(int(math.floor(horizon / step + 1e-9))):
        k1 = f(y)
        if max(map(abs, k1)) < tol and all(map(math.isfinite, k1)):
            return np.array(y)
        y = [0.0 if v < 0.0 else v for v in _rk4_step(f, y, step, k1)]
    raise AssertionError("list march did not converge")


def hexed(value):
    """``value`` with every float replaced by its float.hex, through lists and tuples."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def hexes(call):
    """``hexed(call())``, or the class and message of its error."""
    try:
        return hexed(call())
    except (DomainError, NumericError) as exc:
        return f"{type(exc).__name__}: {exc}"


def generated_march(march, y: list[float], h: float, n_steps: int, stride: int) -> tuple[list[list[float]], int]:
    """``march`` from y, in ``list_march``'s terms: the rows it wrote and the clamp count."""
    out = np.empty((n_steps // stride + 1, len(y)))
    clamped = march(*y, h, n_steps, stride, out)
    return out.tolist(), clamped


def seeded(params: ModelParams, r0: float, fraction: float) -> tuple[ModelParams, ContinuousState]:
    p = params.with_alpha(calibrate_alpha(params, r0))
    eq = disease_free_equilibrium(p)
    return p, ContinuousState(t=0.0, s=(1 - fraction) * eq.s_star, a=fraction * eq.s_star, dd=eq.d_star)


# ---------------------------------------------------- generated-kernel tests


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenario=scenarios(), data=st.data())
def test_generated_flow_and_step_match_the_list_kernel_bit_for_bit(scenario, data):
    # one step of march against _rk4_step and the list loop's check and clamp
    params, _, logistic = scenario
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-10.0, 100.0))
    y = data.draw(st.lists(value, min_size=3 * params.m, max_size=3 * params.m))
    h = data.draw(st.floats(0.0, 2.0))
    f = _flow(params, logistic)
    flow, march = _kernel(params, logistic)
    assert hexes(lambda: flow(*y)) == hexes(lambda: f(y))
    assert hexes(lambda: generated_march(march, y, h, 1, 1)) == hexes(lambda: list_march(f, y, h, 1, 1))


def integrate_outcome(params, init, cfg, logistic):
    traj = integrate(params, init, cfg, logistic=logistic)
    return flat(traj).tolist(), traj.clamped_steps


def list_outcome(params, init, cfg, logistic):
    """``integrate`` on the list kernel, its clamp budget included."""
    rows, clamped = list_integrate(params, init, cfg, logistic)
    n_steps = int(math.floor(cfg.horizon / cfg.step + 1e-9))
    if n_steps > 0 and clamped > _CLAMP_BUDGET * n_steps:
        raise NumericError(f"negativity clamp hit on {clamped}/{n_steps} steps "
                           f"(> {_CLAMP_BUDGET:.1%}); decrease the step size")
    return rows.tolist(), clamped


def _table2_clamping_once():
    # table2 at R0 4.9 with a step of 1: one step in 2,000 needs the clamp, within budget
    p, init = seeded(two_group_params(), 4.9, 0.01)
    cfg = IntegrationConfig(step=1.0, horizon=2000.0, sample_every=5.0)
    return p, init, cfg, LogisticConfig(enabled=True, growth_rate=0.05, capacity=150.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(run=marches())
@example(run=_table2_clamping_once())
def test_integrate_equals_the_list_kernel_bit_for_bit(run):
    # rows, clamp count, or error class and message; then the march alone,
    # so that the rows of a run over the clamp budget are compared too
    params, init, cfg, logistic = run
    assert hexes(lambda: integrate_outcome(*run)) == hexes(lambda: list_outcome(*run))
    y = [*init.s.tolist(), *init.a.tolist(), *init.dd.tolist()]
    n_steps = int(math.floor(cfg.horizon / cfg.step + 1e-9))
    stride = int(round(cfg.sample_every / cfg.step))
    _, march = _kernel(params, logistic)
    f = _flow(params, logistic)
    assert (hexes(lambda: generated_march(march, y, cfg.step, n_steps, stride))
            == hexes(lambda: list_march(f, y, cfg.step, n_steps, stride)))


@pytest.mark.parametrize("r0", [0.9, 2.3])
@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("scenario", ["table2", "fast"])
def test_integrate_equals_the_list_kernel_march(scenario, coupled, r0):
    base = two_group_params() if scenario == "table2" else fast_params()
    p, init = seeded(base, r0, 0.05)
    logistic = LogisticConfig(enabled=True, growth_rate=0.5, capacity=150.0) if coupled else None
    cfg = IntegrationConfig(step=0.05, horizon=100.0, sample_every=0.5)
    want, clamped = list_integrate(p, init, cfg, logistic)
    traj = integrate(p, init, cfg, logistic=logistic)
    assert traj.clamped_steps == clamped
    np.testing.assert_array_equal(flat(traj), want)


@pytest.mark.parametrize("scenario, r0", [("table2", 2.3), ("fast", 1.4), ("fast", 4.9)])
def test_endemic_point_equals_the_list_kernel_march(scenario, r0):
    base = two_group_params() if scenario == "table2" else fast_params()
    p, seed = seeded(base, r0, 0.01 if scenario == "table2" else 0.1)
    got = march_equilibrium(p, seed)
    np.testing.assert_array_equal(np.concatenate([got.s_star, got.a_star, got.d_star]), list_endemic(p, seed))


def test_thousand_group_logistic_kernel_compiles_and_matches_the_list_kernel():
    # 3,300 terms in the population sum: a chain of + this long would
    # exceed the compiler's recursion limit
    m = 1100
    rng = np.random.default_rng(11)
    p = ModelParams(m=m, n_total=5000.0, alpha=2.0, b=0.0, d=0.0, rho=rng.uniform(0.0, 0.3, m),
                    delta=rng.uniform(0.0, 0.3, m), phi=rng.uniform(0.0, 0.3, m),
                    eps=rng.uniform(0.0, 1.0, m), gamma=rng.uniform(0.0, 1.0, m))
    init = ContinuousState(t=0.0, s=rng.uniform(0.0, 4.0, m), a=rng.uniform(0.0, 1.0, m),
                           dd=rng.uniform(0.0, 1.0, m))
    logistic = LogisticConfig(enabled=True, growth_rate=0.5, capacity=6000.0)
    cfg = IntegrationConfig(step=0.05, horizon=0.2, sample_every=0.05)
    traj = integrate(p, init, cfg, logistic=logistic)
    want, _ = list_integrate(p, init, cfg, logistic)
    np.testing.assert_array_equal(flat(traj), want)


@pytest.mark.parametrize("coupled", [False, True])
def test_kernel_functions_die_with_their_last_reference(coupled):
    # with the collector off, only reference counting frees them: a
    # cycle through their globals would keep every call's rates alive
    logistic = LogisticConfig(enabled=True) if coupled else None
    gc.collect()
    gc.disable()
    try:
        flow, march = _kernel(two_group_params(), logistic)
        refs = weakref.ref(flow), weakref.ref(march)
        del flow, march
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()
