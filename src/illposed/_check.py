"""Argument checks shared by every diagnostic.

Each check raises ValueError naming the argument when it is out of
range; the numeric checks convert their value and return it.
"""

from __future__ import annotations

import math
from typing import Iterable

from .expr import Expression, free_variables


def _float(name: str, value: float, rule: str) -> float:
    try:
        return float(value)
    except OverflowError:  # an int past the double range
        raise ValueError(f"{name} must be {rule}, got an integer too large for a float") from None


def finite(name: str, value: float) -> float:
    value = _float(name, value, "finite")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def positive(name: str, value: float) -> float:
    value = _float(name, value, "positive and finite")
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def above(name: str, value: float, bound_name: str, bound: float) -> float:
    rule = f"finite and greater than {bound_name}={bound!r}"
    value = _float(name, value, rule)
    if not (math.isfinite(value) and value > bound):
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return value


def integer(name: str, value: int, minimum: int) -> int:
    # bool is an int subclass, but True is never a meaningful count
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return value


def decreasing(name: str, values: Iterable[float]) -> tuple[float, ...]:
    values = tuple(positive(f"every value in {name}", v) for v in values)
    if not values:
        raise ValueError(f"{name} needs at least one value")
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must decrease strictly")
    return values


def variables(name: str, allowed: tuple[str, ...], *expressions: Expression) -> None:
    extra = sorted(set().union(*map(free_variables, expressions)) - set(allowed))
    if extra:
        raise ValueError(f"{name} uses variables other than {' and '.join(allowed)}: {', '.join(extra)}")
