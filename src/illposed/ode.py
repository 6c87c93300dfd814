"""Fixed-step explicit integration of scalar first-order IVPs.

The grid is never accumulated: the abscissa of step k is always
x0 + k*h, recomputed from the integers, so a trajectory's x column is
reproducible to the last bit regardless of how far it runs; a grid whose
last abscissa overflows is refused before the first step.  Solutions
that leave the finite doubles terminate cleanly instead of propagating
infinities, and a start already at or past the bound stops at x0
without a step; the trajectory records why it stopped.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from . import _check
from ._fmt import cells, csv_text
from .expr import EvalError, Expression, OverflowDomainError, compile_scalar, evaluate

__all__ = [
    "OVERFLOW_GUARD",
    "IVP",
    "TrajectoryPoint",
    "Trajectory",
    "VariabilityRow",
    "euler_step",
    "rk4_step",
    "integrate_euler",
    "integrate_rk4",
    "variability_table",
    "trajectory_csv",
    "variability_csv",
]

# |y| at or past this magnitude counts as numerical escape; well clear
# of the 1.8e308 double ceiling, so the guard fires before arithmetic
# can overflow.  A blow-up threshold above it escapes at the guard.
OVERFLOW_GUARD = 1e300

# How a termination reason starts when the rhs left its domain (a pole,
# a log or root of a negative value), as opposed to growing past the doubles
_RHS_UNDEFINED = "rhs undefined"


class TrajectoryPoint(NamedTuple):
    k: int
    x: float
    y: float


@dataclass(frozen=True)
class IVP:
    """y' = f(x, y), y(x0) = y0, with f given as an expression tree."""

    rhs: Expression
    x0: float
    y0: float

    def __post_init__(self):
        object.__setattr__(self, "x0", _check.finite("x0", self.x0))
        object.__setattr__(self, "y0", _check.finite("y0", self.y0))
        _check.variables("right-hand side", ("x", "y"), self.rhs)


@dataclass(frozen=True)
class Trajectory:
    """Grid abscissas xs[k] and values ys[k], k = 0, 1, ..., as double columns."""

    h: float
    xs: array
    ys: array
    termination_reason: str | None = None

    @property
    def terminated_early(self) -> bool:
        return self.termination_reason is not None

    @property
    def rhs_undefined(self) -> bool:
        return self.termination_reason is not None and self.termination_reason.startswith(_RHS_UNDEFINED)

    @property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        return tuple(map(TrajectoryPoint, range(len(self.xs)), self.xs, self.ys))

    @property
    def final(self) -> TrajectoryPoint:
        return TrajectoryPoint(len(self.xs) - 1, self.xs[-1], self.ys[-1])


class VariabilityRow(NamedTuple):
    h: float
    y_at_target: float | None
    escaped: bool


def _euler_advance(f: Callable[[float, float], float], x: float, y: float, h: float) -> float:
    return y + f(x, y) * h


def _rk4_advance(f: Callable[[float, float], float], x: float, y: float, h: float) -> float:
    k1 = f(x, y)
    k2 = f(x + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(x + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(x + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def euler_step(rhs: Expression, x: float, y: float, h: float) -> float:
    """One forward-Euler step y + f(x, y)*h.

    Uses the same arithmetic, in the same order, as integrate_euler, so
    stepping manually reproduces a trajectory bit for bit.
    """
    return _euler_advance(lambda x, y: evaluate(rhs, {"x": x, "y": y}), x, y, h)


def rk4_step(rhs: Expression, x: float, y: float, h: float) -> float:
    """One classical fourth-order Runge-Kutta step."""
    return _rk4_advance(lambda x, y: evaluate(rhs, {"x": x, "y": y}), x, y, h)


def _integrate(ivp: IVP, h: float, n_steps: int, advance, bound: float) -> Trajectory:
    # the one escape test: a run stops at the first point whose |y| reaches
    # bound, x0 included, or whose rhs overflows; an rhs outside its domain
    # stops it too, with a reason that says so
    h = _check.positive("step size", h)
    n_steps = _check.integer("number of steps", n_steps, 1)
    x0 = ivp.x0
    # x0 + k*h never decreases in k, so a finite last abscissa bounds the grid
    _check.finite(f"last grid abscissa x0 + {n_steps}*h", x0 + _check.finite("number of steps", n_steps) * h)
    xs, ys = array("d", [x0]), array("d", [ivp.y0])
    if not abs(ivp.y0) < bound:
        return Trajectory(h, xs, ys, f"overflow guard: |y| reached {bound:g} at x={x0!r}")
    f = compile_scalar(ivp.rhs, ("x", "y"))
    x, y, reason = x0, ivp.y0, None
    for k in range(1, n_steps + 1):
        try:
            y = advance(f, x, y, h)
        except OverflowDomainError as err:
            reason = f"rhs evaluation failed at x={x!r}: {err}"
            break
        except EvalError as err:
            reason = f"{_RHS_UNDEFINED} at x={x!r}: {err}"
            break
        x = x0 + k * h
        if not abs(y) < bound:  # NaN fails this too
            if math.isfinite(y):
                xs.append(x)
                ys.append(y)
            reason = f"overflow guard: |y| reached {bound:g} at x={x!r}"
            break
        xs.append(x)
        ys.append(y)
    return Trajectory(h, xs, ys, reason)


def integrate_euler(ivp: IVP, h: float, n_steps: int) -> Trajectory:
    """Forward Euler over the grid x0, x0+h, ..., x0+n_steps*h."""
    return _integrate(ivp, h, n_steps, _euler_advance, OVERFLOW_GUARD)


def integrate_rk4(ivp: IVP, h: float, n_steps: int) -> Trajectory:
    """Classical RK4 over the same grid convention as integrate_euler."""
    return _integrate(ivp, h, n_steps, _rk4_advance, OVERFLOW_GUARD)


def variability_table(ivp: IVP, x_target: float, step_sizes: Sequence[float]) -> list[VariabilityRow]:
    """Euler value at x_target for each step size, in the order given.

    Each h must divide the interval [x0, x_target] up to rounding.  Rows
    whose run stops early, at or before the target, get y_at_target None
    and escaped True.
    """
    x_target = _check.above("target abscissa", x_target, "x0", ivp.x0)
    if not step_sizes:
        raise ValueError("at least one step size is required")
    span = x_target - ivp.x0
    rows: list[VariabilityRow] = []
    for h_raw in step_sizes:
        h = _check.positive("step size", h_raw)
        n = round(_check.finite(f"number of steps for step size {h!r}", span / h))
        if n < 1 or abs(ivp.x0 + n * h - x_target) > 1e-9 * max(1.0, abs(span)):
            raise ValueError(f"step size {h!r} does not divide the interval [{ivp.x0!r}, {x_target!r}]")
        trajectory = integrate_euler(ivp, h, n)
        escaped = trajectory.terminated_early
        rows.append(VariabilityRow(h, None if escaped else trajectory.ys[-1], escaped))
    return rows


def trajectory_csv(trajectory: Trajectory, round_to: int | None = None) -> str:
    xs = trajectory.xs
    return csv_text((), "n,x_n,y_n", map(str, range(len(xs))), cells(xs, round_to), cells(trajectory.ys, round_to))


def variability_csv(rows: Sequence[VariabilityRow], round_to: int | None = None) -> str:
    h, y = cells([row.h for row in rows], round_to), cells([row.y_at_target for row in rows], round_to)
    return csv_text((), "h,y_at_target,escaped", h, y, ["true" if row.escaped else "false" for row in rows])
