"""Shared builders and oracles for the test suite."""

import math
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from diffusim import (
    FULL,
    PAPER_LITERAL,
    ContinuousState,
    DiscreteState,
    LogisticConfig,
    ModelParams,
    TrajectoryTable,
    max_stable_dt,
)
from diffusim.dtmc import _exact_kernel, _simplex_index
from diffusim.errors import DomainError, NumericError
from diffusim.model import _check_seed_state, _kernel, _population_error, _tagged


class ConvergenceError(NumericError):
    """An oracle's iteration hit its cap; carries the last iterate for inspection."""

    def __init__(self, message: str, last_state=None):
        super().__init__(message)
        self.last_state = last_state


def two_group_params(alpha: float = 1.0) -> ModelParams:
    """The bundled two-group scenario's rates (same values as table2.cfg)."""
    return ModelParams(
        m=2,
        n_total=100.0,
        alpha=alpha,
        b=0.01,
        d=0.01,
        rho=0.2,
        delta=0.03,
        phi=0.03,
        eps=np.array([0.4, 0.6]),
        gamma=np.array([0.4, 0.7]),
    )


def fast_params() -> ModelParams:
    """Faster turnover than table2, so endemic marches converge in a few thousand steps."""
    base = two_group_params()
    return ModelParams(m=2, n_total=100.0, alpha=1.0, b=0.1, d=0.1, rho=0.3, delta=0.3,
                       phi=0.2, eps=base.eps, gamma=base.gamma)


def single_group_params(alpha: float = 2.0) -> ModelParams:
    """A small single-group chain used for exact-propagation checks."""
    return ModelParams(
        m=1,
        n_total=20.0,
        alpha=alpha,
        b=0.0,
        d=0.02,
        rho=0.2,
        delta=0.03,
        phi=0.03,
        eps=0.5,
        gamma=0.5,
    )


def random_params(rng: np.random.Generator, m: int) -> ModelParams:
    """A random valid parameter draw with strictly positive rates."""
    return ModelParams(
        m=m,
        n_total=float(rng.uniform(50.0, 500.0)),
        alpha=float(rng.uniform(0.5, 5.0)),
        b=rng.uniform(0.005, 0.05, m),
        d=rng.uniform(0.005, 0.05, m),
        rho=rng.uniform(0.05, 0.3, m),
        delta=rng.uniform(0.01, 0.1, m),
        phi=rng.uniform(0.01, 0.1, m),
        eps=rng.uniform(0.1, 1.0, m),
        gamma=rng.uniform(0.1, 1.0, m),
    )


def finite_stable_dt(params: ModelParams, n: float, logistic: LogisticConfig | None = None) -> float:
    """``max_stable_dt``, with the unbounded step of an all-zero-rate chain read as 1.0."""
    dt = max_stable_dt(params, n, logistic=logistic)
    return 1.0 if dt == math.inf else dt


@st.composite
def chain_models(draw, modes=(PAPER_LITERAL, FULL)):
    """(params, mode, logistic, init) of a small chain; zero rates and weights included."""
    m = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(modes))
    rate = st.one_of(st.just(0.0), st.floats(0.005, 0.4))
    weight = st.one_of(st.just(0.0), st.floats(0.1, 1.0))
    counts = st.lists(st.integers(0, 6), min_size=m, max_size=m)
    s, a, dd = draw(counts), draw(counts), draw(counts)
    total = sum(s) + sum(a) + sum(dd)
    if mode == PAPER_LITERAL and total == 0:
        s[0] = total = 1
    params = ModelParams(
        m=m,
        n_total=float(total) if mode == PAPER_LITERAL else draw(st.floats(1.0, 40.0)),
        alpha=draw(st.floats(0.0, 4.0)),
        b=[draw(rate) for _ in range(m)], d=[draw(rate) for _ in range(m)],
        rho=[draw(rate) for _ in range(m)], delta=[draw(rate) for _ in range(m)],
        phi=[draw(rate) for _ in range(m)],
        eps=[draw(weight) for _ in range(m)], gamma=[draw(weight) for _ in range(m)],
    )
    logistic = None
    if mode == FULL and draw(st.booleans()):
        logistic = LogisticConfig(enabled=True, growth_rate=draw(st.floats(0.0, 0.5)),
                                  capacity=draw(st.floats(2.0, 40.0)))
    return params, mode, logistic, DiscreteState(s=s, a=a, dd=dd)


def exact_extinction_cdf(params: ModelParams, init: DiscreteState, dt: float, n_steps: int) -> np.ndarray:
    """P(T <= k) for k = 0 .. n_steps, T the first epoch with no actives: the
    oracle for the first passages of the m = 1 paper_literal chain.

    Steps the one-epoch kernel of ``_exact_kernel`` with ``np.bincount``,
    as ``exact_propagation`` does. Every activation carries the factor
    gamma a, so the states with a = 0 are absorbing and P(T <= k) is the
    mass on them after k steps.
    """
    n = init.total()
    states, row, col, val = _exact_kernel(params, n, dt)
    p = np.zeros(states.shape[0])
    p[_simplex_index(n, int(init.s[0]), int(init.a[0]))] = 1.0
    extinct = states[:, 1] == 0
    cdf = np.empty(n_steps + 1)
    for step in range(n_steps + 1):
        if step > 0:
            p = np.bincount(row, weights=val * p[col], minlength=p.size)
        cdf[step] = p[extinct].sum()
    return cdf


def march_equilibrium(
    params: ModelParams,
    seed_state: ContinuousState,
    *,
    tol: float = 1e-9,
    horizon: float = 2e4,
    step: float = 0.05,
):
    """The point an RK4 march from ``seed_state`` comes to rest at: the
    oracle for the closed-form ``endemic_equilibrium``.

    Integrates the flow until the max-norm of the derivative drops below
    ``tol``, running at most floor(horizon / step) steps. The returned
    point is tagged as by ``endemic_equilibrium``.

    Raises:
        DomainError: if the seed has no active mass at all.
        NumericError: at the first step whose state is not finite.
        ConvergenceError: if stationarity is not reached within
            ``horizon`` time units; carries the last state reached.
    """
    _check_seed_state(params, seed_state)
    m = params.m
    flow, march = _kernel(params)
    y = [*seed_state.s.tolist(), *seed_state.a.tolist(), *seed_state.dd.tolist()]
    out = np.empty((2, 3 * m))
    n_steps = int(math.floor(horizon / step + 1e-9))
    for j in range(1, n_steps + 1):
        k1 = flow(*y)
        # max() can pass over a nan, so a converged residual must also be finite
        if max(map(abs, k1)) < tol and all(map(math.isfinite, k1)):
            break
        # one step of integrate's march: its finiteness check comes before
        # the clamp, which would turn -inf into 0
        try:
            march(*y, step, 1, 1, out)
        except NumericError:
            raise NumericError(f"state became non-finite at t = {j * step:g}") from None
        y = out[1].tolist()
    else:
        last = ContinuousState(t=n_steps * step, s=y[:m], a=y[m : 2 * m], dd=y[2 * m :])
        residual = float(np.max(np.abs(flow(*y))))
        raise ConvergenceError(
            f"no stationary point within horizon {horizon} (residual "
            f"{residual:.3e} > tol {tol:.1e})",
            last_state=last,
        )
    y = np.array(y)
    return _tagged(y[:m], y[m : 2 * m], y[2 * m :])


def spectral_radius(k: np.ndarray, *, tol: float = 1e-12, max_iter: int = 10000) -> float:
    """Largest eigenvalue modulus of an entrywise-nonnegative matrix: the
    oracle for the closed-form R0.

    Power iteration from the all-ones vector, so the result is
    deterministic. Convergence is declared when successive Rayleigh
    quotients agree to ``tol`` relative.

    Raises:
        DomainError: if k is not square, finite and entrywise nonnegative.
        ConvergenceError: if the quotients have not settled after
            ``max_iter`` iterations; the message carries the last two.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {k.shape}")
    if not np.all(np.isfinite(k)):
        raise DomainError("matrix entries must be finite")
    if np.any(k < 0):
        raise DomainError("matrix entries must be nonnegative")
    n = k.shape[0]
    x = np.ones(n)
    x /= np.linalg.norm(x)
    lam = None
    lam_prev = None
    for _ in range(max_iter):
        y = k @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            # a nonnegative matrix annihilating a nonnegative iterate of the
            # all-ones vector is nilpotent, so the spectral radius is 0
            return 0.0
        x = y / norm
        lam = float(x @ (k @ x))
        if lam_prev is not None:
            diff = abs(lam - lam_prev)
            if diff <= tol * max(abs(lam), abs(lam_prev)) or diff == 0.0:
                return lam
        lam_prev = lam
    raise ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations; "
        f"last Rayleigh quotients {lam_prev!r}, {lam!r}",
        last_state=(lam_prev, lam),
    )


# The logistic law as ModelParams at a given population: the oracle for the
# generated kernel's inline logistic flow.


def logistic_rates(cfg: LogisticConfig, n: float) -> tuple[float, float]:
    """Total birth inflow and per-capita death rate at population n."""
    n = float(n)
    if not np.isfinite(n) or n < 0:
        raise _population_error(n)
    return cfg.growth_rate * n, cfg.growth_rate * n / cfg.capacity


def effective_params_for_total(params: ModelParams, cfg: LogisticConfig, total: float) -> ModelParams:
    """Params with b, d and the activation denominator tied to ``total``."""
    if not cfg.enabled:
        return params
    birth_total, death = logistic_rates(cfg, total)
    b = np.full(params.m, birth_total / params.m)
    d = np.full(params.m, death)
    # an empty population has no activation anyway; keep the denominator valid
    n_total = total if total > 0 else params.n_total
    return replace(params, b=b, d=d, n_total=n_total)


def apply_logistic(params: ModelParams, cfg: LogisticConfig, state) -> ModelParams:
    """Effective parameters at ``state`` under the logistic coupling.

    ``state`` only contributes its instantaneous population
    N(t) = sum(s) + sum(a) + sum(dd). With the coupling disabled the
    params are returned unchanged.
    """
    total = float(np.sum(state.s) + np.sum(state.a) + np.sum(state.dd))
    return effective_params_for_total(params, cfg, total)


def extinction_time_deterministic(traj: TrajectoryTable, threshold: float) -> float | None:
    """Earliest sampled time after which total activity stays below ``threshold``.

    Returns None when the final sample is still at or above the threshold
    (activity never dies out within the trajectory). A trajectory that
    never reaches the threshold returns its first sample time.
    """
    if not np.isfinite(threshold) or threshold <= 0:
        raise DomainError(f"threshold must be positive and finite, got {threshold!r}")
    total = traj.total_active()
    above = np.flatnonzero(total >= threshold)
    if above.size == 0:
        return float(traj.times[0])
    last_above = int(above[-1])
    if last_above == total.shape[0] - 1:
        return None
    return float(traj.times[last_above + 1])
