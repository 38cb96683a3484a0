"""Small internal helpers shared across :mod:`repro`.

Nothing in this module is part of the public API.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from typing import TypeGuard


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds.

    Used for configuration validation so that every public constructor fails
    fast with an actionable message instead of producing NaNs downstream.
    """
    if not condition:
        raise ValueError(message)


def is_real(value: object) -> TypeGuard[float]:
    """True if *value* is a real number: any :class:`numbers.Real` but ``bool``.

    The one rule for what a number is.  NumPy scalars (``np.int64``,
    ``np.float64``) qualify, so values read off arrays and grids pass;
    ``True`` does not, since it silently behaving as 1 hides configuration
    mistakes (``np.bool_`` is not ``Real``).  Exact ``int`` and ``float``
    take a fast path.
    """
    kind = type(value)
    if kind is float or kind is int:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_positive(value: float, name: str) -> None:
    """Validate that *value* is a finite, strictly positive number."""
    if not (is_real(value) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def require_nonnegative(value: float, name: str) -> None:
    """Validate that *value* is a finite, non-negative number."""
    if not (is_real(value) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")


def require_int(value: int, name: str, *, minimum: int | None = None) -> None:
    """Validate that *value* is an integer (optionally ``>= minimum``).

    Accepts any :class:`numbers.Integral` — in particular NumPy integer
    scalars such as ``np.int64`` produced by grid/array indexing — while
    still rejecting ``bool`` (and ``np.bool_``, which is not ``Integral``),
    since ``True`` silently behaving as 1 hides configuration mistakes.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def reject_unknown_keys(
    data: dict, allowed: "Iterable[str]", what: str, *, required: "Iterable[str]" = ()
) -> None:
    """Fail fast on typo'd or missing mapping keys instead of a bare KeyError.

    Shared by every ``from_dict`` deserialiser so the error surface stays
    uniform: *data* must be a mapping whose keys are a subset of *allowed*
    and a superset of *required* — a hand-edited config with a missing
    field then reports the section name, not a cryptic ``KeyError: 'x'``.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a mapping, got {type(data).__name__}")
    allowed = tuple(allowed)
    # Deserialisers call this on every nested section of every spec, so the
    # happy path stays allocation-free; sets/sorting only build error text.
    if any(key not in allowed for key in data):
        unknown = sorted(set(data) - set(allowed))
        raise ValueError(f"unknown {what} key(s) {unknown}; allowed: {sorted(allowed)}")
    if any(key not in data for key in required):
        missing = sorted(set(required) - set(data))
        raise ValueError(f"{what} missing required key(s) {missing}")


def integer_log(value: int, base: int) -> int:
    """Return ``k`` such that ``base**k == value`` or raise ValueError."""
    k = 0
    v = value
    while v > 1 and v % base == 0:
        v //= base
        k += 1
    if v != 1:
        raise ValueError(f"{value} is not an integer power of {base}")
    return k


def format_float(value: float, digits: int = 4) -> str:
    """Compact fixed/scientific formatting used by the ASCII reporters."""
    if value != value:  # NaN
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if 1e-3 <= magnitude < 1e6:
        return f"{value:.{digits}g}"
    return f"{value:.{digits - 1}e}"
