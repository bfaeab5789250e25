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

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["LogisticConfig"]


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
