"""Model parameters, state containers, the activation force, and equilibria.

The population is split into m groups per state: susceptible S_i, active
A_i and deactivated D_i. Per-capita flows are

    activation    S_i -> A_i   driven by the active groups (see
                               :func:`force_of_activation`),
    withdrawal    S_i -> D_i   at rate rho_i,
    deactivation  A_i -> D_i   at rate phi_i,
    return        D_i -> S_i   at rate delta_i,

plus a constant birth inflow b_i into S_i and a natural death rate d_i
applied to every compartment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, NumericError

__all__ = [
    "ModelParams",
    "ContinuousState",
    "EquilibriumPoint",
    "force_of_activation",
    "ode_rhs",
    "disease_free_equilibrium",
    "endemic_equilibrium",
]


def _rate_array(name: str, value, m: int) -> np.ndarray:
    """Coerce a scalar or length-m sequence to a read-only float array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(m, float(arr))
    else:
        arr = np.array(arr, dtype=float)
    if arr.shape != (m,):
        raise DomainError(f"{name}: expected scalar or length-{m} vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: entries must be finite")
    if np.any(arr < 0):
        raise DomainError(f"{name}: entries must be nonnegative")
    arr.setflags(write=False)
    return arr


def _state_array(name: str, value, m: int | None = None) -> np.ndarray:
    arr = np.array(np.asarray(value, dtype=float), dtype=float)
    if arr.ndim == 0 and m is not None:
        arr = np.full(m, float(arr))
    if arr.ndim != 1:
        raise DomainError(f"{name}: expected a 1-d vector, got shape {arr.shape}")
    if m is not None and arr.shape != (m,):
        raise DomainError(f"{name}: expected length {m}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name}: entries must be finite")
    if np.any(arr < 0):
        raise DomainError(f"{name}: entries must be nonnegative")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All scenario rates and sizes; the single source of truth for a run.

    Scalars broadcast to length-m arrays. Every rate must be finite and
    nonnegative; ``n_total`` (the reference population in the activation
    force) must be positive.

    Args:
        m: number of groups per state.
        n_total: reference population size N.
        alpha: global contact-intensity scalar.
        b: per-group birth inflow into S.
        d: per-group natural death rate.
        rho: per-group withdrawal rate S -> D.
        delta: per-group return rate D -> S.
        phi: per-group deactivation rate A -> D.
        eps: per-group susceptibility weight.
        gamma: per-group infectiousness weight.
    """

    m: int
    n_total: float
    alpha: float
    b: np.ndarray
    d: np.ndarray
    rho: np.ndarray
    delta: np.ndarray
    phi: np.ndarray
    eps: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise DomainError(f"m must be a positive integer, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        n = float(self.n_total)
        if not np.isfinite(n) or n <= 0:
            raise DomainError(f"n_total must be positive and finite, got {self.n_total!r}")
        object.__setattr__(self, "n_total", n)
        a = float(self.alpha)
        if not np.isfinite(a) or a < 0:
            raise DomainError(f"alpha must be nonnegative and finite, got {self.alpha!r}")
        object.__setattr__(self, "alpha", a)
        for name in ("b", "d", "rho", "delta", "phi", "eps", "gamma"):
            object.__setattr__(self, name, _rate_array(name, getattr(self, name), self.m))

    def with_alpha(self, alpha: float) -> "ModelParams":
        return replace(self, alpha=alpha)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelParams):
            return NotImplemented
        return (
            self.m == other.m
            and self.n_total == other.n_total
            and self.alpha == other.alpha
            and all(
                np.array_equal(getattr(self, k), getattr(other, k))
                for k in ("b", "d", "rho", "delta", "phi", "eps", "gamma")
            )
        )


@dataclass(frozen=True, eq=False)
class ContinuousState:
    """Real-valued compartment vector at time t: s, a and dd per group."""

    t: float
    s: np.ndarray
    a: np.ndarray
    dd: np.ndarray

    def __post_init__(self):
        s = _state_array("s", self.s)
        a = _state_array("a", self.a, s.shape[0])
        dd = _state_array("dd", self.dd, s.shape[0])
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "dd", dd)

    @property
    def m(self) -> int:
        return self.s.shape[0]

    def total(self) -> float:
        """Total population across all groups and states."""
        return float(self.s.sum() + self.a.sum() + self.dd.sum())


@dataclass(frozen=True, eq=False)
class EquilibriumPoint:
    """A stationary point of the flow, tagged disease_free or endemic."""

    s_star: np.ndarray
    a_star: np.ndarray
    d_star: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("disease_free", "endemic"):
            raise DomainError(f"kind must be 'disease_free' or 'endemic', got {self.kind!r}")


def force_of_activation(params: ModelParams, a: np.ndarray) -> np.ndarray:
    """Pairwise activation pressure matrix for active counts ``a``.

    Entry (i, j) is the rate at which one group-i susceptible is activated
    by the group-j actives:

        lam[i, j] = alpha * eps_i * gamma_j * a_j / n_total

    Args:
        params: model parameters.
        a: length-m vector of active counts (or densities).

    Returns:
        The m-by-m matrix lam, entrywise nonnegative.
    """
    a = _state_array("a", a, params.m)
    return params.alpha * np.outer(params.eps, params.gamma * a) / params.n_total


def ode_rhs(params: ModelParams, state: ContinuousState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivative of (s, a, dd) under the mean-field flow.

    Per group i, with lam from :func:`force_of_activation`:

        s' = b_i - sum_j lam_ij s_i - (d_i + rho_i) s_i + delta_i dd_i
        a' = sum_j lam_ij s_i - (d_i + phi_i) a_i
        dd' = phi_i a_i + rho_i s_i - (d_i + delta_i) dd_i

    Summed over states, each group obeys the balance
    s' + a' + dd' = b_i - d_i (s + a + dd).

    Returns:
        Tuple (ds, da, ddd) of length-m arrays.
    """
    if state.m != params.m:
        raise DomainError(f"state has {state.m} groups, params expect {params.m}")
    dy = np.array(_flow(params)([*state.s.tolist(), *state.a.tolist(), *state.dd.tolist()]))
    m = params.m
    return dy[:m], dy[m : 2 * m], dy[2 * m :]


def _population_error(n: float) -> DomainError:
    return DomainError(f"population must be nonnegative and finite, got {n!r}")


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
    :func:`~diffusim.logistic.effective_params_for_total`; a negative or
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


def disease_free_equilibrium(params: ModelParams) -> EquilibriumPoint:
    """Closed-form stationary point with no actives.

    With a_i = 0 the per-group balance solves to

        s*_i = b_i (d_i + delta_i) / (d_i (d_i + delta_i + rho_i))
        d*_i = b_i rho_i          / (d_i (d_i + delta_i + rho_i))

    Requires every d_i > 0 (otherwise no finite stationary point exists).
    """
    if np.any(params.d <= 0):
        raise DomainError("disease-free equilibrium requires every death rate d_i > 0")
    denom = params.d * (params.d + params.delta + params.rho)
    s_star = params.b * (params.d + params.delta) / denom
    d_star = params.b * params.rho / denom
    return EquilibriumPoint(s_star=s_star, a_star=np.zeros(params.m), d_star=d_star, kind="disease_free")


def endemic_equilibrium(
    params: ModelParams,
    seed_state: ContinuousState,
    *,
    tol: float = 1e-9,
    horizon: float = 2e4,
    step: float = 0.05,
    extinction_threshold: float = 1e-3,
) -> EquilibriumPoint:
    """Long-run attractor reached from ``seed_state``.

    Integrates the flow until the max-norm of the derivative drops below
    ``tol``. The returned point is tagged endemic when its total active
    mass exceeds ``extinction_threshold``, disease_free otherwise.

    Raises:
        DomainError: if the seed has no active mass at all.
        NumericError: at the first step whose state is not finite.
        ConvergenceError: if stationarity is not reached within
            ``horizon`` time units; carries the last state reached.
    """
    if seed_state.m != params.m:
        raise DomainError(f"seed state has {seed_state.m} groups, params expect {params.m}")
    if float(seed_state.a.sum()) <= 0:
        raise DomainError("endemic search needs a seed with some active mass")
    m = params.m
    f = _flow(params)
    y = [*seed_state.s.tolist(), *seed_state.a.tolist(), *seed_state.dd.tolist()]
    n_steps = int(math.floor(horizon / step + 1e-9))
    for j in range(1, n_steps + 1):
        k1 = f(y)
        # max() can pass over a nan, so a converged residual must also be finite
        if max(map(abs, k1)) < tol and all(map(math.isfinite, k1)):
            break
        y = _rk4_step(f, y, step, k1)
        # checked before the clamp, as in integrate: the clamp would turn -inf into 0
        if not all(map(math.isfinite, y)):
            raise NumericError(f"state became non-finite at t = {j * step:g}")
        y = [0.0 if v < 0.0 else v for v in y]
    else:
        last = ContinuousState(t=n_steps * step, s=y[:m], a=y[m : 2 * m], dd=y[2 * m :])
        residual = float(np.max(np.abs(f(y))))
        raise ConvergenceError(
            f"no stationary point within horizon {horizon} (residual "
            f"{residual:.3e} > tol {tol:.1e})",
            last_state=last,
        )
    y = np.array(y)
    s, a, dd = y[:m], y[m : 2 * m], y[2 * m :]
    kind = "endemic" if float(a.sum()) > extinction_threshold else "disease_free"
    return EquilibriumPoint(s_star=s, a_star=a, d_star=dd, kind=kind)
