"""Exception types shared across the toolkit."""


class DiffusionError(Exception):
    """Base class for every toolkit error."""


class DomainError(DiffusionError, ValueError):
    """Invalid value or inconsistent dimensions in a model input."""


class ConfigError(DiffusionError, ValueError):
    """Malformed or inconsistent scenario configuration."""


class NumericError(DiffusionError, ArithmeticError):
    """Numerical failure: blowup, instability, or a failed computation."""


class StepSizeError(NumericError):
    """Summed event probability exceeded 1; the time step is too large."""

