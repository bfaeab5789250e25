"""Scenario files: a line-oriented ``key = value`` format.

Blank lines are skipped and ``#`` starts a comment (whole-line or
inline). Values are scalars, comma-separated vectors, ``true``/``false``
or bare strings depending on the key. Group-wise vector keys require
exactly one value per group (their defaults apply to every group).
Unknown and duplicate keys are rejected with their line number.

Keys, in canonical order (also the order :func:`render_config` writes):

    m                       groups (int, required)
    n_total                 reference population size (required)
    alpha                   global activation scale (default 1.0)
    b, d, rho, delta, phi   per-group rates (defaults 0.01, 0.01, 0.2,
                            0.03, 0.03)
    eps, gamma              susceptibility / infectiousness (default 1.0)
    s0, a0, d0              initial counts per group (required)
    step                    ODE integrator step (default 0.01)
    horizon                 simulated time span (default 200.0)
    sample_every            output sampling interval (default 1.0)
    dt                      chain epoch length (default: derived)
    n_replicas              ensemble size (default 100)
    mode                    "full" or "paper_literal" (default full)
    seed                    master RNG seed (default 42)
    target_r0               calibrate alpha to this value (optional)
    out                     output path (optional)
    logistic.enabled        couple b/d to logistic growth (default false)
    logistic.growth_rate    logistic growth rate (default 1.0)
    logistic.capacity       carrying capacity (default: n_total)
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dtmc import FULL, PAPER_LITERAL, DiscreteState
from .errors import ConfigError, DomainError
from .integrate import IntegrationConfig, _multiple_of
from .logistic import LogisticConfig
from .model import _RATES, ContinuousState, ModelParams, _fields_equal, _state_array

__all__ = ["ScenarioConfig", "parse_config", "load_config", "render_config", "bundled_config"]

# the initial-state and sampling keys, in file order
_INIT = ("s0", "a0", "d0")
_SAMPLING = ("step", "horizon", "sample_every")

# key -> (kind, default, required); dict order is the canonical file order
_REGISTRY: dict[str, tuple[str, object, bool]] = {
    "m": ("int", None, True),
    "n_total": ("float", None, True),
    "alpha": ("float", 1.0, False),
    "b": ("vector", 0.01, False),
    "d": ("vector", 0.01, False),
    "rho": ("vector", 0.2, False),
    "delta": ("vector", 0.03, False),
    "phi": ("vector", 0.03, False),
    "eps": ("vector", 1.0, False),
    "gamma": ("vector", 1.0, False),
    "s0": ("vector", None, True),
    "a0": ("vector", None, True),
    "d0": ("vector", None, True),
    "step": ("float", 0.01, False),
    "horizon": ("float", 200.0, False),
    "sample_every": ("float", 1.0, False),
    "dt": ("float", None, False),
    "n_replicas": ("int", 100, False),
    "mode": ("str", FULL, False),
    "seed": ("int", 42, False),
    "target_r0": ("float", None, False),
    "out": ("str", None, False),
    "logistic.enabled": ("bool", False, False),
    "logistic.growth_rate": ("float", 1.0, False),
    "logistic.capacity": ("float", None, False),
}


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """One fully resolved scenario: model, initial state, run settings."""

    params: ModelParams
    s0: np.ndarray
    a0: np.ndarray
    d0: np.ndarray
    integration: IntegrationConfig
    dt: float | None
    n_replicas: int
    mode: str
    seed: int
    target_r0: float | None
    out: str | None
    logistic: LogisticConfig

    def continuous_init(self) -> ContinuousState:
        return ContinuousState(t=0.0, s=self.s0, a=self.a0, dd=self.d0)

    def discrete_init(self) -> DiscreteState:
        # raises if any initial count is fractional
        return DiscreteState(s=self.s0, a=self.a0, dd=self.d0)

    __eq__ = _fields_equal


def _parse_value(key: str, kind: str, text: str, lineno: int):
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            value = float(text)
            if not np.isfinite(value):
                raise ValueError("not finite")
            return value
        if kind == "vector":
            parts = [float(tok.strip()) for tok in text.split(",")]
            if not all(np.isfinite(parts)):
                raise ValueError("not finite")
            return np.array(parts)
        if kind == "bool":
            if text in ("true", "false"):
                return text == "true"
            raise ValueError("expected true or false")
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {text!r} ({exc})") from None
    return text  # kind == "str"


def parse_config(text: str) -> ScenarioConfig:
    """Parse scenario text; see the module docstring for the format."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {body!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _REGISTRY:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if value == "":
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = _parse_value(key, _REGISTRY[key][0], value, lineno)

    missing = [k for k, (_, _, req) in _REGISTRY.items() if req and k not in raw]
    if missing:
        raise ConfigError("missing required key(s): " + ", ".join(missing))

    def get(key: str):
        return raw.get(key, _REGISTRY[key][1])

    m = get("m")
    if not isinstance(m, int) or m < 1:
        raise ConfigError(f"m must be a positive integer, got {m!r}")

    def vec(key: str) -> np.ndarray:
        value = get(key)
        if not isinstance(value, np.ndarray):
            return np.full(m, float(value))
        if value.shape[0] != m:
            raise ConfigError(
                f"{key}: expected {m} comma-separated value(s) for m = {m}, "
                f"got {value.shape[0]}"
            )
        return value

    try:
        params = ModelParams(m=m, n_total=get("n_total"), alpha=get("alpha"), **{k: vec(k) for k in _RATES})
        s0, a0, d0 = (_state_array(k, vec(k), m) for k in _INIT)
        integration = IntegrationConfig(**{k: get(k) for k in _SAMPLING})
    except DomainError as exc:
        raise ConfigError(str(exc)) from None

    mode = get("mode")
    if mode not in (FULL, PAPER_LITERAL):
        raise ConfigError(f"mode must be '{FULL}' or '{PAPER_LITERAL}', got {mode!r}")
    total0 = float(s0.sum() + a0.sum() + d0.sum())
    if mode == PAPER_LITERAL and abs(total0 - params.n_total) > 1e-9:
        raise ConfigError(
            f"paper_literal mode keeps the population constant: s0 + a0 + d0 sums to "
            f"{total0:g} but n_total is {params.n_total:g}"
        )
    if total0 > params.n_total + 1e-9:
        raise ConfigError(
            f"initial population {total0:g} exceeds n_total {params.n_total:g}"
        )

    dt = get("dt")
    if dt is not None:
        if dt <= 0:
            raise ConfigError(f"dt must be positive, got {dt!r}")
        try:
            _multiple_of(integration.sample_every, dt, "sample_every/dt")
        except DomainError as exc:
            raise ConfigError(str(exc)) from None

    n_replicas = get("n_replicas")
    if not isinstance(n_replicas, int) or n_replicas < 1:
        raise ConfigError(f"n_replicas must be a positive integer, got {n_replicas!r}")
    seed = get("seed")
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    target_r0 = get("target_r0")
    if target_r0 is not None and target_r0 <= 0:
        raise ConfigError(f"target_r0 must be positive, got {target_r0!r}")

    capacity = get("logistic.capacity")
    try:
        logistic = LogisticConfig(
            enabled=get("logistic.enabled"),
            growth_rate=get("logistic.growth_rate"),
            capacity=params.n_total if capacity is None else capacity,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from None
    if logistic.enabled and mode == PAPER_LITERAL:
        raise ConfigError("logistic coupling needs full mode; paper_literal holds N constant")

    return ScenarioConfig(
        params=params,
        s0=s0,
        a0=a0,
        d0=d0,
        integration=integration,
        dt=dt,
        n_replicas=n_replicas,
        mode=mode,
        seed=seed,
        target_r0=target_r0,
        out=get("out"),
        logistic=logistic,
    )


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_vec(arr: np.ndarray) -> str:
    return ", ".join(_fmt(v) for v in arr)


def render_config(config: ScenarioConfig) -> str:
    """Canonical scenario text; parse_config(render_config(c)) == c."""
    p = config.params
    lines = [
        f"m = {p.m}",
        f"n_total = {_fmt(p.n_total)}",
        f"alpha = {_fmt(p.alpha)}",
        *(f"{k} = {_fmt_vec(getattr(p, k))}" for k in _RATES),
        *(f"{k} = {_fmt_vec(getattr(config, k))}" for k in _INIT),
        *(f"{k} = {_fmt(getattr(config.integration, k))}" for k in _SAMPLING),
    ]
    if config.dt is not None:
        lines.append(f"dt = {_fmt(config.dt)}")
    lines += [
        f"n_replicas = {config.n_replicas}",
        f"mode = {config.mode}",
        f"seed = {config.seed}",
    ]
    if config.target_r0 is not None:
        lines.append(f"target_r0 = {_fmt(config.target_r0)}")
    if config.out is not None:
        lines.append(f"out = {config.out}")
    lines += [
        f"logistic.enabled = {'true' if config.logistic.enabled else 'false'}",
        f"logistic.growth_rate = {_fmt(config.logistic.growth_rate)}",
        f"logistic.capacity = {_fmt(config.logistic.capacity)}",
    ]
    return "\n".join(lines) + "\n"


def bundled_config(name: str = "table2") -> str:
    """Text of a config shipped with the package (currently: table2)."""
    res = importlib.resources.files("diffusim.data").joinpath(f"{name}.cfg")
    try:
        return res.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"no bundled config named {name!r}") from None


def load_config(path: str | Path) -> ScenarioConfig:
    """Parse the scenario file at ``path``.

    A bare name with no file behind it is looked up among the bundled
    configs, so ``load_config("table2")`` works anywhere.
    """
    path = Path(path)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
    elif path.name == str(path) and not path.suffix:
        text = bundled_config(str(path))
    else:
        raise ConfigError(f"config file not found: {path}")
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
