"""Exception types shared across the package, and the three rules that
every setting goes through: range, integer and length."""

import math
from numbers import Integral, Real


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
    """ConfigError unless ``value`` is a real number, not a bool, that is
    finite and > 0, or finite and >= 0 when not ``positive``.  Every range
    check of a real setting is this one."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    if not ((value > 0 if positive else value >= 0) and value < math.inf):
        rule = "positive" if positive else "nonnegative"
        raise ConfigError(f"{name} must be {rule} and finite, got {value}")


def _check_integer(name: str, value, minimum: int) -> None:
    """ConfigError unless ``value`` is a Python or numpy integer, not a
    bool, and at least ``minimum`` (0 or 1).  Every integer setting is
    checked by this rule."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        rule = "nonnegative" if minimum == 0 else f"at least {minimum}"
        raise ConfigError(f"{name} must be {rule}, got {value}")


def _check_length(name: str, value, length: int) -> None:
    """ConfigError unless ``value`` is a list, tuple or 1-D array of
    ``length`` entries, such as a (low, high) range or a cost triple; the
    rule of each entry is the caller's."""
    sequence = isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1
    if not sequence or len(value) != length:
        raise ConfigError(f"{name} must hold {length} values, got {value!r}")
