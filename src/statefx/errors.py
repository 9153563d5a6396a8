"""Exception types shared across the package.

Every error raised on purpose by statefx derives from StatefxError, so
callers can catch the whole family.  Most types double as ValueError so
generic numpy-style call sites keep working.
"""

from numbers import Integral


class StatefxError(Exception):
    """Base class for all statefx errors."""


class DimensionError(StatefxError, ValueError):
    """Shape or length mismatch between operands."""


class NumericError(StatefxError, ArithmeticError):
    """Non-finite value where a finite one is required, or a diverged run."""


class InputError(StatefxError, ValueError):
    """Invalid argument value (out-of-range parameter, too-short signal...)."""


class FormatError(StatefxError, ValueError):
    """Malformed, truncated, or unsupported file content."""


class StabilityError(StatefxError, ValueError):
    """Recurrent parameterization with multipliers not strictly inside the unit circle."""


class MetricUndefinedError(StatefxError, ZeroDivisionError):
    """Metric with a zero-energy target; the normalization is undefined."""


class CompatibilityError(StatefxError, ValueError):
    """Checkpoint and dataset disagree (conditioning size, sample rate...)."""


def check_int(value, name: str, low: int = 0, high: float = float("inf")) -> None:
    """InputError unless ``value`` is an integer, not a bool, in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not low <= value <= high:
        span = f">= {low}" if high == float("inf") else f"in [{low}, {high}]"
        raise InputError(f"{name} must be an integer {span}, got {value!r}")
