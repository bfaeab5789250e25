"""Logistic population coupling.

When enabled, the constant birth/death rates are replaced by
density-dependent ones derived from a logistic law with growth rate r
and carrying capacity K:

    total birth inflow   b(N) = r * N      (split equally across groups)
    per-capita death     d(N) = r * N / K

so the total population follows dN/dt = r N (1 - N / K) when no other
flows change it. In this mode the activation force divides by the
instantaneous population N(t) instead of the fixed reference n_total.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .model import ModelParams, _population_error

__all__ = ["LogisticConfig", "logistic_rates", "effective_params_for_total", "apply_logistic"]


@dataclass(frozen=True)
class LogisticConfig:
    """Density-dependent birth/death settings (disabled by default)."""

    enabled: bool = False
    growth_rate: float = 1.0
    capacity: float = 100.0

    def __post_init__(self):
        if not np.isfinite(self.growth_rate) or self.growth_rate < 0:
            raise DomainError(f"logistic growth_rate must be nonnegative, got {self.growth_rate!r}")
        if not np.isfinite(self.capacity) or self.capacity <= 0:
            raise DomainError(f"logistic capacity must be positive, got {self.capacity!r}")


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
