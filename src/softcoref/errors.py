"""Exception types shared across the package, and the range and integer
rules of its settings."""

import math
from numbers import Integral


class SoftcorefError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SoftcorefError):
    """A setting out of range, seeds included, or a bad flag value."""


class InputError(SoftcorefError):
    """Structurally invalid runtime input, e.g. mismatched mention sets,
    a non-stochastic link distribution, or a document that does not fit
    the model."""


class FormatError(SoftcorefError):
    """Malformed corpus, key, or model file."""

    def __init__(self, message, *, path=None, line=None):
        self.path = path
        self.line = line
        prefix = str(path) if path is not None else ""
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class TrainingError(SoftcorefError):
    """Training aborted, e.g. a non-finite loss or gradient."""


def _check_range(name: str, value, *, positive: bool = True) -> None:
    """ConfigError unless ``value`` is finite and > 0, or finite and >= 0
    when not ``positive``.  Every range check of a setting is this one; an
    integer (a seed, say) is finite by its type, so its message leaves the
    word out."""
    if not ((value > 0 if positive else value >= 0) and value < math.inf):
        finite = "" if isinstance(value, Integral) else " and finite"
        rule = "positive" if positive else "nonnegative"
        raise ConfigError(f"{name} must be {rule}{finite}, got {value}")


def _check_integer(name: str, value) -> None:
    """ConfigError unless ``value`` is a Python or numpy integer, not a
    bool.  Every integer setting is checked by this rule before its range
    is."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value}")
