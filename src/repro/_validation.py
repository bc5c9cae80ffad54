"""Internal argument-validation helpers.

These helpers centralize the eager checks performed by public
constructors so error messages stay consistent across the library.
They are internal (underscore-prefixed module) and not part of the
public API.
"""

from __future__ import annotations

import math

from .errors import ConfigurationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with *message* unless *condition*."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: float, name: str) -> None:
    """Validate that *value* is strictly positive."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")


def require_non_negative(value: float, name: str) -> None:
    """Validate that *value* is zero or positive."""
    if value < 0:
        raise ConfigurationError(f"{name} must be non-negative, got {value!r}")


def is_finite_number(value: object) -> bool:
    """Whether a decoded JSON value is an int or float with a finite
    float value (``true``, ``"5"``, ``NaN`` and ints past the float
    range are not)."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def require_int(value: object, name: str) -> int:
    """Validate that *value* is an integral number and return it as int.

    Booleans are rejected: ``True``/``False`` are ints in Python but are
    almost always a bug when passed where a count is expected.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {type(value).__name__}")
    return value


def require_in_range(value: float, low: float, high: float, name: str) -> None:
    """Validate ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value!r}"
        )


def require_fraction(value: float, name: str) -> None:
    """Validate that *value* is a fraction in ``[0, 1]``."""
    require_in_range(value, 0.0, 1.0, name)
