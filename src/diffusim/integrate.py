"""Fixed-step deterministic integration of the mean-field flow.

Classic fourth-order Runge-Kutta with a fixed step. After each full step
any compartment driven below zero is clamped back to zero and the event
is counted; a run needing the clamp on more than 0.1% of its steps is
rejected as numerically unsound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .logistic import LogisticConfig
from .model import ContinuousState, ModelParams, _kernel
from .trajectory import TrajectoryTable

__all__ = ["IntegrationConfig", "integrate"]

# fraction of steps allowed to hit the negativity clamp before the run
# is rejected
_CLAMP_BUDGET = 1e-3
# a sampled run holds its whole table in memory, in several copies at once: a chain trajectory 2 (its
# int64 sums and their float copy), an ensemble 4 (int64 sums and squares, float means and spreads),
# an ODE run its float table, and each the CSV text besides. Past 2^26 cells, 512 MiB a copy, a
# request would exhaust a workstation's memory, so it is refused before anything is allocated
_MAX_CELLS = 2**26


def _check_cells(rows: int, width: int, what: str) -> None:
    """DomainError if a table of ``rows`` ``what`` x ``width`` values passes ``_MAX_CELLS``."""
    if rows * width > _MAX_CELLS:
        raise DomainError(f"{rows} {what} x {width} values pass the {_MAX_CELLS}-cell budget of a table held in memory")


def _multiple_of(big: float, small: float, names: str) -> int:
    ratio = big / small
    if not np.isfinite(ratio):
        raise DomainError(f"{names} = {ratio!r} is not finite")
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-9 * max(1.0, abs(ratio)):
        raise DomainError(f"{names}: {big!r} is not an integer multiple of {small!r}")
    return k


@dataclass(frozen=True)
class IntegrationConfig:
    """Step size, horizon and sampling cadence."""

    step: float = 0.01
    horizon: float = 200.0
    sample_every: float = 1.0

    def __post_init__(self):
        for name in ("step", "horizon", "sample_every"):
            v = float(getattr(self, name))
            if not np.isfinite(v) or v <= 0:
                raise DomainError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)
        if not (self.step <= self.sample_every <= self.horizon):
            raise DomainError(
                f"need step <= sample_every <= horizon, got "
                f"{self.step!r}, {self.sample_every!r}, {self.horizon!r}"
            )
        _multiple_of(self.sample_every, self.step, "sample_every/step")


def integrate(
    params: ModelParams,
    init: ContinuousState,
    cfg: IntegrationConfig,
    logistic: LogisticConfig | None = None,
) -> TrajectoryTable:
    """Integrate the flow from ``init`` and sample every ``sample_every``.

    Args:
        params: model parameters.
        init: starting state (its ``t`` is taken as 0).
        cfg: step/horizon/sampling settings.
        logistic: optional density-dependent birth/death coupling.

    Returns:
        TrajectoryTable sampled at 0, sample_every, 2*sample_every, ...

    Raises:
        DomainError: if the samples pass the cell budget of a table held
            in memory.
        NumericError: on a non-finite state (reports the time of blowup),
            when more than 0.1% of steps needed the negativity clamp, or,
            under logistic coupling, when the population of an RK4 stage
            is negative or non-finite (reports the population, the time
            and the step).
    """
    if init.m != params.m:
        raise DomainError(f"init has {init.m} groups, params expect {params.m}")
    h = cfg.step
    stride = _multiple_of(cfg.sample_every, cfg.step, "sample_every/step")
    n_steps = int(np.floor(cfg.horizon / h + 1e-9))
    n_samples = n_steps // stride + 1
    _check_cells(n_samples, 3 * params.m, "samples")

    _, march = _kernel(params, logistic)
    out = np.empty((n_samples, 3 * params.m))
    clamped = march(*init.s.tolist(), *init.a.tolist(), *init.dd.tolist(), h, n_steps, stride, out)
    if n_steps > 0 and clamped > _CLAMP_BUDGET * n_steps:
        raise NumericError(
            f"negativity clamp hit on {clamped}/{n_steps} steps "
            f"(> {_CLAMP_BUDGET:.1%}); decrease the step size"
        )
    s, a, dd = np.split(out, 3, axis=1)
    return TrajectoryTable(times=np.arange(n_samples) * (stride * h), s=s, a=a, dd=dd, clamped_steps=clamped)
