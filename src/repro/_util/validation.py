"""Small argument-validation helpers used by public constructors.

All helpers raise ``ValueError`` with a message naming the offending
parameter, so user errors surface at the API boundary instead of deep
inside a partitioning loop.
"""

from __future__ import annotations

import math
from typing import Optional


def as_finite_float(name: str, value: object) -> float:
    """Coerce *value* to a finite float; reject the usual JSON impostors.

    Booleans are rejected explicitly (``bool`` is an ``int`` subclass, so
    ``float(True)`` would silently succeed), as are NaN/inf and anything
    that is not a real number or numeric string.  Used by the service's
    request validation and the CLI task-file loader, where payloads arrive
    as untrusted JSON.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return out


def as_int(name: str, value: object, *, low: Optional[int] = None,
           high: Optional[int] = None) -> int:
    """Coerce *value* to an int (no silent float truncation), range-check it.

    Accepts ints and integral floats (``4.0``); rejects booleans, ``4.5``
    and non-numeric values with a message naming the parameter.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, int):
        out = value
    elif isinstance(value, float) and value.is_integer():
        out = int(value)
    else:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and out < low:
        raise ValueError(f"{name} must be >= {low}, got {out}")
    if high is not None and out > high:
        raise ValueError(f"{name} must be <= {high}, got {out}")
    return out


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for fluent use."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_positive_finite(name: str, value: float) -> float:
    """Require ``0 < value < inf`` (NaN fails); return it for fluent use."""
    check_positive(name, value)
    if not value < math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_nonnegative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for fluent use."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for fluent use."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: Optional[float] = None,
    high: Optional[float] = None,
) -> float:
    """Require ``low <= value <= high`` (either end optional)."""
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value!r}")
    return value
