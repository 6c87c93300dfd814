"""The averaging recurrence x_{n+2} = (x_{n+1} + x_n) / 2.

Each term is the mean of the previous two, so the sequence zigzags
inside an interval that halves at every step.  The characteristic roots
are 1 and -1/2, giving the closed form

    x_n = (a + 2b)/3 + (2/3)(a - b)(-1/2)^n

and the limit (a + 2b)/3: the landing point splits the initial gap in
the ratio 2:1, it is not the midpoint of a and b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import _check
from ._fmt import format_float

__all__ = [
    "RecurrenceInstance",
    "iterate_recurrence",
    "closed_form",
    "detect_limit",
    "sequence_csv",
]


@dataclass(frozen=True)
class RecurrenceInstance:
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", _check.finite("a", self.a))
        object.__setattr__(self, "b", _check.finite("b", self.b))


def iterate_recurrence(instance: RecurrenceInstance, n: int) -> list[float]:
    """The terms x_0, ..., x_n inclusive."""
    n = _check.integer("index n", n, 0)
    if n == 0:
        return [instance.a]
    prev, cur = instance.a, instance.b
    values = [prev, cur]
    isfinite = math.isfinite
    for _ in range(n - 1):
        total = prev + cur
        # seeds past half the double range can overflow the sum; halving
        # first rounds only once too, so either form is the rounded mean
        prev, cur = cur, (total / 2.0 if isfinite(total) else prev / 2.0 + cur / 2.0)
        values.append(cur)
    return values


def closed_form(instance: RecurrenceInstance, n: int) -> float:
    """x_n straight from the characteristic roots 1 and -1/2."""
    n = _check.integer("index n", n, 0)
    a, b = instance.a, instance.b
    value = (a + 2.0 * b) / 3.0 + (2.0 / 3.0) * (a - b) * (-0.5) ** n
    if not math.isfinite(value):
        # a + 2b or a - b overflowed; scaling by a power of two is exact,
        # and a quarter of each seed keeps every sub-expression in range
        return 4.0 * closed_form(RecurrenceInstance(a / 4.0, b / 4.0), n)
    return value


def detect_limit(sequence: Sequence[float], tol: float) -> tuple[float, int] | None:
    """Numerical limit of a sequence tail, if one has settled.

    Finds the earliest index from which every later consecutive
    difference stays below tol; a run of at least five sub-tol
    differences is required before the tail counts as settled.  Returns
    (last value, settle index) or None.
    """
    tol = _check.positive("tol", tol)
    values = [float(v) for v in sequence]
    settle = len(values) - 1
    while settle > 0 and abs(values[settle] - values[settle - 1]) < tol:
        settle -= 1
    if len(values) - 1 - settle < 5:
        return None
    return values[-1], settle


def sequence_csv(instance: RecurrenceInstance, n: int, tol: float, round_to: int | None = None) -> str:
    """n,x_n rows, then trailing comments that report the limit settled within tol."""
    values = iterate_recurrence(instance, n)
    lines = ["n,x_n"]
    for i, v in enumerate(values):
        lines.append(f"{i},{format_float(v, round_to)}")
    settled = detect_limit(values, tol)
    if settled is None:
        lines.append("# limit=unsettled")
    else:
        lines.append(f"# limit={format_float(settled[0], round_to)}")
        lines.append(f"# settled_at={settled[1]}")
    return "\n".join(lines) + "\n"
