"""Model parameters, state containers, the mean-field flow, and equilibria.

The population is split into m groups per state: susceptible S_i, active
A_i and deactivated D_i. Per-capita flows are

    activation    S_i -> A_i   at rate sum_j lam_ij, driven by the active
                               groups: lam_ij = alpha eps_i gamma_j a_j / n_total,
    withdrawal    S_i -> D_i   at rate rho_i,
    deactivation  A_i -> D_i   at rate phi_i,
    return        D_i -> S_i   at rate delta_i,

plus a constant birth inflow b_i into S_i and a natural death rate d_i
applied to every compartment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from types import CodeType
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError

__all__ = [
    "ModelParams",
    "ContinuousState",
    "EquilibriumPoint",
    "ode_rhs",
    "disease_free_equilibrium",
    "endemic_equilibrium",
]


# the per-group rate vectors of ModelParams, in field order
_RATES = ("b", "d", "rho", "delta", "phi", "eps", "gamma")


def _fields_equal(x, y) -> bool:
    """Dataclass equality that compares array fields by value."""
    if not isinstance(y, type(x)):
        return NotImplemented
    return all(np.array_equal(getattr(x, f.name), getattr(y, f.name)) for f in fields(x))


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
        for name in _RATES:
            object.__setattr__(self, name, _rate_array(name, getattr(self, name), self.m))

    def with_alpha(self, alpha: float) -> "ModelParams":
        return replace(self, alpha=alpha)

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class ContinuousState:
    """Real-valued compartment vector at time t: s, a and dd per group."""

    t: float
    s: np.ndarray
    a: np.ndarray
    dd: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "s", _state_array("s", self.s))
        for name in ("a", "dd"):
            object.__setattr__(self, name, _state_array(name, getattr(self, name), self.m))
        object.__setattr__(self, "t", float(self.t))

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

    __eq__ = _fields_equal


def ode_rhs(params: ModelParams, state: ContinuousState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivative of (s, a, dd) under the mean-field flow.

    Per group i, with the activation pressure
    lam_ij = alpha eps_i gamma_j a_j / n_total:

        s' = b_i - sum_j lam_ij s_i - (d_i + rho_i) s_i + delta_i dd_i
        a' = sum_j lam_ij s_i - (d_i + phi_i) a_i
        dd' = phi_i a_i + rho_i s_i - (d_i + delta_i) dd_i

    Summed over states, each group obeys the balance
    s' + a' + dd' = b_i - d_i (s + a + dd).

    Each call binds the kernel afresh, about 6 us on table2 against under
    1 us for the flow itself, so a stepping loop should call ``integrate``.

    Returns:
        Tuple (ds, da, ddd) of length-m arrays.

    Raises:
        NumericError: naming the first non-finite component, in the order
            s, a, dd and group by group within each.
    """
    if state.m != params.m:
        raise DomainError(f"state has {state.m} groups, params expect {params.m}")
    flow, _ = _kernel(params)
    dy = np.array(flow(*state.s.tolist(), *state.a.tolist(), *state.dd.tolist()))
    m = params.m
    if not np.isfinite(dy).all():
        k = int(np.argmin(np.isfinite(dy)))
        raise NumericError(f"derivative of {('s', 'a', 'dd')[k // m]}_{k % m + 1} is not finite: {float(dy[k])!r}")
    return dy[:m], dy[m : 2 * m], dy[2 * m :]


def _population_error(n: float) -> DomainError:
    return DomainError(f"population must be nonnegative and finite, got {n!r}")


@functools.lru_cache
def _kernel_code(m: int, logistic: bool) -> CodeType:
    """The compiled flow and RK4 march for m groups, as one module.

    Running it defines two functions of the flat state s + a + dd:

    - ``flow(y0, ..., y_{3m-1})``, straight-line scalar arithmetic that
      returns the derivative as a list;
    - ``march(y0, ..., y_{3m-1}, h, n_steps, stride, out)``, which runs
      :func:`~diffusim.integrate.integrate`'s whole loop: ``n_steps``
      classic RK4 steps of size h, each followed by the finiteness check
      and the negativity clamp, with the start in ``out[0]`` and every
      ``stride``-th state in the next row. It returns the number of
      clamped steps.

    One helper writes the flow's arithmetic, once for ``flow`` and once
    per RK4 stage inlined into ``march``, whose stages leave their
    derivatives in locals (``p``, ``q``, ``r``, ``u``) and their arguments
    in ``x``. ``march`` takes every rate as a keyword default, so its loop
    reads them as locals; ``flow`` reads them as globals. The source holds
    only identifiers and integer indices, so no input text reaches
    ``exec``; every rate is a name (``eps_0``, ``d_rho_1``, ...) that the
    module unpacks from the per-rate lists of floats :func:`_kernel` binds
    per call.

    Each component is evaluated left to right as written in
    :func:`ode_rhs`, the activation term as ((alpha / N) (gamma . a))
    eps_i s_i. Every sum is ``sum()`` over a flat tuple display, not a
    chain of ``+``: it rounds as ``sum()`` does on every CPython, and
    nests no deeper as m grows.
    """
    ys = [f"y{k}" for k in range(3 * m)]
    xs = [f"x{k}" for k in range(3 * m)]

    def birth(i: int) -> str:
        return "b" if logistic else f"b_{i}"

    def loss(rate: str, i: int) -> str:
        # d plus a rate: the live d under logistic coupling, else folded in by _kernel
        return f"(d + {rate}_{i})" if logistic else f"d_{rate}_{i}"

    def field(v: list[str]) -> tuple[list[str], list[str]]:
        """The lines that set the flow's locals at state v, and its 3m components."""
        s, a, dd = v[:m], v[m : 2 * m], v[2 * m :]
        weighted = ", ".join(f"gamma_{i} * {a[i]}" for i in range(m))
        if logistic:
            head = [
                f"n = sum(({', '.join(v)},))",
                "if not 0.0 <= n < inf:",
                "    raise population_error(n)",
                "b = growth * n / m",
                "d = growth * n / capacity",
                # an empty population has no activation anyway; keep the denominator valid
                f"w = alpha / (n if n > 0 else n_ref) * sum(({weighted},))",
            ]
        else:
            head = [f"w = scale * sum(({weighted},))"]
        head += [f"act{i} = w * eps_{i} * {s[i]}" for i in range(m)]
        out = (
            [f"{birth(i)} - act{i} - {loss('rho', i)} * {s[i]} + delta_{i} * {dd[i]}" for i in range(m)]
            + [f"act{i} - {loss('phi', i)} * {a[i]}" for i in range(m)]
            + [f"phi_{i} * {a[i]} + rho_{i} * {s[i]} - {loss('delta', i)} * {dd[i]}" for i in range(m)]
        )
        return head, out

    def stage(v: list[str], k: str) -> list[str]:
        head, out = field(v)
        return head + [f"{k}{j} = {e}" for j, e in enumerate(out)]

    def shift(h: str, k: str) -> list[str]:
        return [f"{x} = {y} + {h} * {k}{j}" for j, (x, y) in enumerate(zip(xs, ys))]

    rates = ["gamma", "eps", "rho", "delta", "phi"]
    if logistic:
        consts = ["alpha", "n_ref", "m", "growth", "capacity"]
    else:
        rates += ["b", "d_rho", "d_phi", "d_delta"]
        consts = ["scale"]
    # march binds these as keyword defaults, so its loop reads them as locals
    bound = [f"{k}_{i}" for k in rates for i in range(m)] + consts + ["inf", "sum"]
    head, out = field(ys)
    state = f"({', '.join(ys)},)"
    body = [
        *stage(ys, "p"),
        *shift("hh", "p"),
        *stage(xs, "q"),
        *shift("hh", "q"),
        *stage(xs, "r"),
        *shift("h", "r"),
        *stage(xs, "u"),
        *(f"{y} = {y} + h6 * (p{j} + 2.0 * q{j} + 2.0 * r{j} + u{j})" for j, y in enumerate(ys)),
        # one comparison per component on the common path; a nan fails it too
        f"if not ({' and '.join(f'0.0 <= {y} < inf' for y in ys)}):",
        # every component is checked before the clamp, so a nan is never clamped to 0
        f"    if not ({' and '.join(f'-inf < {y} < inf' for y in ys)}):",
        '        raise NumericError(f"state became non-finite at t = {j * h:g}")',
        "    clamped += 1",
        *(line for y in ys for line in (f"    if {y} < 0.0:", f"        {y} = 0.0")),
        "if j % stride == 0:",
        "    row += 1",
        f"    out[row] = {state}",
    ]
    lines = [
        # each rate arrives as a list of m floats and is unpacked into m globals
        *(f"{', '.join(f'{k}_{i}' for i in range(m))}, = {k}" for k in rates),
        f"def flow({', '.join(ys)}):",
        *(f"    {line}" for line in head),
        f"    return [{', '.join(out)}]",
        f"def march({', '.join(ys)}, h, n_steps, stride, out, *, {', '.join(f'{k}={k}' for k in bound)}):",
        "    hh = 0.5 * h",
        "    h6 = h / 6.0",
        "    clamped = row = 0",
        f"    out[0] = {state}",
        # one try for the whole loop: a logistic stage's DomainError is a step-size failure
        "    try:",
        "        for j in range(1, n_steps + 1):",
        *(f"            {line}" for line in body),
        "    except DomainError as exc:",
        '        raise NumericError(f"{exc} at t = {j * h:g} (step {h:g}); decrease the step size") from exc',
        "    return clamped",
    ]
    coupling = "logistic" if logistic else "constant"
    return compile("\n".join(lines), f"<diffusim mean-field kernel, m={m}, {coupling}>", "exec")


def _kernel(params: ModelParams, logistic=None) -> tuple[Callable, Callable]:
    """``(flow, march)`` of :func:`_kernel_code`, with the rates bound as floats.

    For the few groups the model is used with, scalar code is several
    times cheaper than numpy calls on length-m arrays. With ``logistic``
    enabled (a :class:`~diffusim.logistic.LogisticConfig`), births
    r N / m per group, the death rate r N / K and the activation
    denominator N follow the live population N = sum(y), as
    :mod:`diffusim.logistic` states; a negative or non-finite N raises
    DomainError from ``flow`` and, with the time and step named,
    NumericError from ``march``. Nothing else is validated.
    """
    coupled = logistic is not None and logistic.enabled
    rates = {"gamma": params.gamma, "eps": params.eps, "rho": params.rho,
             "delta": params.delta, "phi": params.phi}
    ns = {"inf": math.inf, "DomainError": DomainError, "NumericError": NumericError}
    if coupled:
        ns.update(alpha=params.alpha, n_ref=params.n_total, m=params.m, growth=logistic.growth_rate,
                  capacity=logistic.capacity, population_error=_population_error)
    else:
        # the constant flow adds d to the other rates once, here, not per stage
        rates.update(b=params.b, d_rho=params.d + params.rho, d_phi=params.d + params.phi,
                     d_delta=params.d + params.delta)
        ns["scale"] = params.alpha / params.n_total
    ns.update((k, arr.tolist()) for k, arr in rates.items())
    exec(_kernel_code(params.m, coupled), ns)
    # popped, so that the namespace, which is their globals, holds no reference to them
    return ns.pop("flow"), ns.pop("march")


def _free_point(params: ModelParams, totals) -> tuple[np.ndarray, ...]:
    """(kept, c_num, c_den, s*, d*) of :func:`disease_free_equilibrium`, s* and d* unchecked.

    ``kept`` marks the conserved groups (d_i = b_i = 0). Group i rests at
    the total c_num_i / c_den_i: b_i / d_i, or N_i / 1 for a conserved
    group, whose total N_i is the i-th entry of ``totals``. Every rest
    law reads this pair with the real d_i, so a conserved group is its
    d_i = 0 case.
    """
    kept = params.d == 0
    c_num, c_den = params.b, params.d
    if kept.any():
        grows = np.flatnonzero(kept & (params.b > 0))
        if grows.size:
            raise DomainError(f"group {grows[0] + 1} has d_i = 0 < b_i: it grows without bound, "
                              "so there is no rest point")
        if totals is None:
            raise DomainError(f"group {np.flatnonzero(kept)[0] + 1} has d_i = b_i = 0, so it keeps its "
                              "total N_i: pass the group totals as totals")
        n = np.asarray(totals, dtype=float)
        if n.shape not in ((), kept.shape):
            raise DomainError(f"totals: expected scalar or length-{params.m} vector, got shape {n.shape}")
        c_num = _state_array("totals", np.where(kept, n, params.b), params.m)
        c_den = np.where(kept, 1.0, params.d)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = c_den * (params.d + params.delta + params.rho)
        return kept, c_num, c_den, c_num * (params.d + params.delta) / x, c_num * params.rho / x


def _r0_terms(params: ModelParams, s_star: np.ndarray) -> tuple[np.ndarray, float]:
    """R0's per-group terms and their sum, unchecked and without numpy's warnings.

    Group i adds alpha eps_i gamma_i s*_i / (n_total (d_i + phi_i)) at
    the disease-free point s* (van den Driessche & Watmough 2002, Math.
    Biosci. 180:29); a conserved group is its d_i = 0 case, with s*_i
    read from its total N_i.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = params.alpha * params.eps * params.gamma * s_star / (params.n_total * (params.d + params.phi))
        return terms, float(np.sum(terms))


def disease_free_equilibrium(params: ModelParams, *, totals=None) -> EquilibriumPoint:
    """Closed-form stationary point with no actives.

    With a_i = 0 group i rests at

        s*_i = c_i (d_i + delta_i) / (d_i + delta_i + rho_i)
        d*_i = c_i rho_i          / (d_i + delta_i + rho_i)

    where its total c_i is b_i / d_i, or, for a conserved group
    (d_i = b_i = 0), the i-th entry N_i of ``totals`` (read only for
    such groups).

    Raises:
        DomainError: naming the first group that has d_i = 0 < b_i, that
            is conserved while ``totals`` is None, or that is conserved
            with delta_i + rho_i = 0, whose split is not unique.
        NumericError: naming the group, when s*_i or d*_i is not finite,
            as when the denominator underflows to 0.
    """
    kept, _, _, s_star, d_star = _free_point(params, totals)
    idle = np.flatnonzero(kept & (params.delta + params.rho == 0))
    if idle.size:
        raise DomainError(f"group {idle[0] + 1} keeps its total but has delta_i + rho_i = 0, "
                          "so its disease-free point is not unique")
    if not (np.isfinite(s_star) & np.isfinite(d_star)).all():
        i = np.argmin(np.isfinite(s_star) & np.isfinite(d_star))
        raise NumericError(f"disease-free equilibrium of group {i + 1} is not finite: "
                           f"s* = {s_star[i]}, d* = {d_star[i]}")
    return EquilibriumPoint(s_star=s_star, a_star=np.zeros(params.m), d_star=d_star, kind="disease_free")


def _check_seed_state(params: ModelParams, seed_state: ContinuousState) -> None:
    if seed_state.m != params.m:
        raise DomainError(f"seed state has {seed_state.m} groups, params expect {params.m}")
    if float(seed_state.a.sum()) <= 0:
        raise DomainError("endemic search needs a seed with some active mass")


# the active mass above which a rest point is tagged endemic
_EXTINCTION_THRESHOLD = 1e-3


def _tagged(s: np.ndarray, a: np.ndarray, dd: np.ndarray) -> EquilibriumPoint:
    kind = "endemic" if float(a.sum()) > _EXTINCTION_THRESHOLD else "disease_free"
    return EquilibriumPoint(s_star=s, a_star=a, d_star=dd, kind=kind)


def endemic_equilibrium(params: ModelParams, seed_state: ContinuousState) -> EquilibriumPoint:
    """Long-run attractor reached from ``seed_state``, found without integrating.

    The force of activation has rank one: with W = gamma . a held fixed,
    group i is activated at the rate lam_i = alpha eps_i W / n_total,
    and its stationary state follows from W alone. With its total c_i
    read as c_num_i / c_den_i, b_i / d_i, or N_i / 1 for a conserved
    group (d_i = b_i = 0), which keeps its seed total N_i, group i rests at

        s_i  = c_num_i (d_i + delta_i) / x_i
        a_i  = lam_i s_i / (d_i + phi_i)
        dd_i = c_num_i (rho_i + phi_i lam_i / (d_i + phi_i)) / x_i
        x_i  = c_den_i (lam_i (d_i + delta_i + phi_i) / (d_i + phi_i) + d_i + delta_i + rho_i)

    x_i is a sum of positive terms; the form read off the flow,
    s_i = b_i / (lam_i + d_i + rho_i - delta_i (phi_i lam_i / (d_i + phi_i) + rho_i) / (d_i + delta_i)),
    cancels to a relative error near eps / d_i when d_i is small. dd_i
    stays finite at d_i = delta_i = 0, where the flow's own
    (phi_i a_i + rho_i s_i) / (d_i + delta_i) is 0 / 0.

    The rest point solves the scalar equation W = sum_i gamma_i a_i(W).
    The ratio sum_i gamma_i a_i(W) / W falls from R0 at W -> 0, so a
    positive root exists, and is unique, exactly when R0 > 1 (van den
    Driessche & Watmough 2002, Math. Biosci. 180:29), which is decided
    with the bits of ``r0_rank_one(params, totals=N)``. At R0 <= 1 the
    result is ``disease_free_equilibrium(params, totals=N)``. Above it, W
    is bisected on (0, sum_i gamma_i c_i] until the midpoint equals an
    endpoint. The seed enters only through the totals N_i.

    The returned point is tagged endemic when its total active mass
    exceeds 1e-3, disease_free otherwise.

    Raises:
        DomainError: if the seed has no active mass at all, or a group
            total s_i + a_i + dd_i that overflows; if a group has
            d_i = 0 < b_i, since it grows without bound; or if a conserved
            group has phi_i (delta_i + rho_i) = 0, since its rest point at
            W = 0 is not unique. The message names the first such group,
            counting from 1.
        NumericError: if the bracket sum_i gamma_i c_i or the ratio at
            W -> 0 overflows, or if the rest point is not finite; the
            latter names the first such group, counting from 1.
    """
    _check_seed_state(params, seed_state)
    with np.errstate(over="ignore"):  # an overflowing total is refused below, without numpy's warning first
        totals = seed_state.s + seed_state.a + seed_state.dd
    over = np.flatnonzero(totals == np.inf)
    if over.size:
        raise DomainError(f"seed group {over[0] + 1}: its total s + a + dd overflows to inf")
    kept, c_num, c_den, s_star, _ = _free_point(params, totals)
    stuck = np.flatnonzero(kept & (params.phi * (params.delta + params.rho) == 0))
    if stuck.size:
        raise DomainError(f"group {stuck[0] + 1} keeps its total but has phi_i (delta_i + rho_i) = 0, "
                          "so its rest point is not unique")
    if _r0_terms(params, s_star)[1] <= 1.0:
        return disease_free_equilibrium(params, totals=totals)
    # an overflowing bracket or ratio is refused below, without numpy's warnings first
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = _activation_ratio(params, c_num, c_den)
        hi = float(np.sum(params.gamma * c_num / c_den))
    # the ratio falls in W, so its W -> 0 limit bounds every value the bisection
    # reads; every rest_i > 0, so an infinite or nan limit can only be an overflow
    top = ratio(0.0)
    if not (math.isfinite(hi) and math.isfinite(top)):
        raise NumericError(f"rest-point bracket sum_i gamma_i c_i = {hi} or R0 = {top} is not finite")
    lo = 0.0
    while True:
        w = 0.5 * (lo + hi)
        if w == lo or w == hi:
            break
        if ratio(w) > 1.0:
            lo = w
        else:
            hi = w
    d, rho, delta, phi = params.d, params.rho, params.delta, params.phi
    # a point that is not finite is refused below, without numpy's warnings first
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = params.alpha * params.eps * w / params.n_total
        x = c_den * (lam * (d + delta + phi) / (d + phi) + d + delta + rho)
        s = c_num * (d + delta) / x
        a = lam * s / (d + phi)
        dd = c_num * (rho + phi * lam / (d + phi)) / x
    bad = np.flatnonzero(~(np.isfinite(s) & np.isfinite(a) & np.isfinite(dd)))
    if bad.size:
        i = bad[0]
        raise NumericError(f"rest point of group {i + 1} is not finite: s = {s[i]}, a = {a[i]}, dd = {dd[i]} "
                           f"(activation rate alpha eps_i W / n_total = {lam[i]})")
    return _tagged(s, a, dd)


def _activation_ratio(params: ModelParams, c_num: np.ndarray, c_den: np.ndarray) -> Callable[[float], float]:
    """W -> sum_i gamma_i a_i(W) / W, given each group's rest total c_num_i / c_den_i.

    a_i(W) is group i's stationary activity when W = gamma . a is held
    fixed (see :func:`endemic_equilibrium`). Each term has the form
    num_i / (grow_i W + rest_i), so the ratio falls in W, from R0 at
    W = 0 in exact arithmetic; :func:`_r0_terms` gives R0's bits.
    """
    d, rho, delta, phi = params.d, params.rho, params.delta, params.phi
    c = params.alpha * params.eps / params.n_total
    num = params.gamma * c * c_num * (d + delta) / (c_den * (d + phi))
    grow = c * (d + delta + phi) / (d + phi)
    rest = d + delta + rho
    terms = list(zip(num.tolist(), grow.tolist(), rest.tolist()))
    return lambda w: sum(n / (g * w + r) for n, g, r in terms)
