"""Sampled trajectories and their CSV form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["TrajectoryTable", "format_value"]

# csv_rows joins the blocks of this many rows at a time
_CSV_ROWS = 256


def format_value(x: float) -> str:
    """Decimal rendering with 9 significant digits, used for all CSV cells."""
    return f"{float(x):.9g}"


@dataclass(eq=False)
class TrajectoryTable:
    """Time-indexed per-group compartment table, optionally with spread.

    ``s``, ``a`` and ``dd`` are (T, m) arrays aligned with ``times``.
    The ``sd_*`` arrays are per-compartment sample standard deviations and
    are present only for Monte Carlo aggregates. ``clamped_steps`` counts
    integrator steps that needed the negativity clamp.
    """

    times: np.ndarray
    s: np.ndarray
    a: np.ndarray
    dd: np.ndarray
    sd_s: np.ndarray | None = None
    sd_a: np.ndarray | None = None
    sd_dd: np.ndarray | None = None
    clamped_steps: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1:
            raise DomainError("times must be a 1-d vector")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times must be strictly increasing")
        shape = None
        for name in ("s", "a", "dd"):
            arr = np.asarray(getattr(self, name), dtype=float)
            setattr(self, name, arr)
            if arr.ndim != 2 or arr.shape[0] != self.times.shape[0]:
                raise DomainError(f"{name}: expected shape (T, m) with T = len(times)")
            shape = shape or arr.shape
            if arr.shape != shape:
                raise DomainError("s, a and dd must share one shape")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise DomainError(f"{name}: entries must be finite and nonnegative")
        spreads = [self.sd_s, self.sd_a, self.sd_dd]
        if any(x is not None for x in spreads):
            if any(x is None for x in spreads):
                raise DomainError("either all three spread arrays or none")
            for name in ("sd_s", "sd_a", "sd_dd"):
                arr = np.asarray(getattr(self, name), dtype=float)
                setattr(self, name, arr)
                if arr.shape != shape:
                    raise DomainError(f"{name}: shape must match the mean arrays")

    @property
    def m(self) -> int:
        return self.s.shape[1]

    @property
    def has_spread(self) -> bool:
        return self.sd_s is not None

    def total_active(self) -> np.ndarray:
        """Sum of active counts across groups, one value per sample."""
        return self.a.sum(axis=1)

    def csv_header(self) -> str:
        kinds = ("", "sd_") if self.has_spread else ("",)
        return ",".join(["time"] + [f"{k}{tag}_{i}" for k in kinds for tag in "SAD" for i in range(1, self.m + 1)])

    def csv_rows(self):
        blocks = [self.times[:, None], self.s, self.a, self.dd]
        if self.has_spread:
            blocks += [self.sd_s, self.sd_a, self.sd_dd]
        # rows are formatted from Python floats, their blocks joined _CSV_ROWS rows at a time, so the copy
        # stays small beside the text of every row, which the CLI holds until it writes
        for lo in range(0, self.times.shape[0], _CSV_ROWS):
            for row in np.hstack([block[lo : lo + _CSV_ROWS] for block in blocks]):
                yield ",".join(map(format_value, row.tolist()))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.csv_header() + "\n")
            for row in self.csv_rows():
                fh.write(row + "\n")
