"""Three-point Newton's-cooling fits and their feasibility diagnosis.

Three equally spaced readings T0, T1, T2 at times 0, t1, 2*t1 pin down
the exponential model T(t) = T_M + (T0 - T_M)*exp(k*t) exactly:

    T_M = (T1^2 - T0*T2) / (2*T1 - T0 - T2)
    k   = ln((T1 - T_M) / (T0 - T_M)) / t1

The catch is that nothing forces the fitted pair to make physical
sense.  The sign of d = 2*T1 - T0 - T2 decides everything: d < 0 (data
convex) gives k < 0 and an ambient below T2, d > 0 (data concave) gives
k > 0 and an ambient above T0, and d = 0 admits no exponential at all.
A concave-data "fit" reproduces the readings perfectly while predicting
heating, and a convex one can place the ambient below absolute zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import _check
from ._fmt import format_float

__all__ = [
    "ABSOLUTE_ZERO_C",
    "FeasibilityVerdict",
    "DiagnosticError",
    "CoolingObservations",
    "CoolingFit",
    "fit_three_point",
    "classify",
    "predict",
    "tm_of_midpoint",
    "bisect_root",
    "feasible_midpoint_range",
    "fit_json",
    "sweep_csv",
]

ABSOLUTE_ZERO_C = -273.15


class FeasibilityVerdict(str, Enum):
    FEASIBLE = "Feasible"
    SIGN_CONTRADICTION = "SignContradiction"
    COLINEAR_DEGENERATE = "ColinearDegenerate"
    BELOW_ABSOLUTE_ZERO = "BelowAbsoluteZero"
    NON_MONOTONE_DATA = "NonMonotoneData"


class DiagnosticError(RuntimeError):
    """A diagnostic could not produce an answer (as opposed to bad usage)."""


@dataclass(frozen=True)
class CoolingObservations:
    """Readings T0, T1, T2 taken at times 0, t1 and 2*t1."""

    t1: float
    T0: float
    T1: float
    T2: float

    def __post_init__(self):
        object.__setattr__(self, "t1", _check.positive("t1", self.t1))
        for name in ("T0", "T1", "T2"):
            object.__setattr__(self, name, _check.finite(name, getattr(self, name)))

    @property
    def monotone_cooling(self) -> bool:
        return self.T0 > self.T1 > self.T2


@dataclass(frozen=True)
class CoolingFit:
    T_M: float | None
    k: float | None
    verdict: FeasibilityVerdict


def classify(
    T_M: float,
    k: float,
    obs: CoolingObservations,
    floor: float = ABSOLUTE_ZERO_C,
) -> FeasibilityVerdict:
    """Physical feasibility of a fitted (T_M, k) pair.

    The floor check outranks the sign check: an ambient below absolute
    zero is the stronger impossibility, whatever the sign of k.
    """
    if not obs.monotone_cooling:
        return FeasibilityVerdict.NON_MONOTONE_DATA
    if T_M < floor:
        return FeasibilityVerdict.BELOW_ABSOLUTE_ZERO
    if k >= 0.0:
        return FeasibilityVerdict.SIGN_CONTRADICTION
    return FeasibilityVerdict.FEASIBLE


def fit_three_point(obs: CoolingObservations, floor: float = ABSOLUTE_ZERO_C) -> CoolingFit:
    """Exact three-point fit, or a degenerate verdict when none exists.

    Raises DiagnosticError when rounding leaves no finite fit: readings
    so close that cancellation puts T_M at or past T0 or T1, so large
    that T1^2 overflows, or a t1 so small that k overflows.
    """
    floor = _check.finite("floor", floor)
    if not obs.monotone_cooling:
        return CoolingFit(None, None, FeasibilityVerdict.NON_MONOTONE_DATA)
    d = 2.0 * obs.T1 - obs.T0 - obs.T2
    if d == 0.0:
        return CoolingFit(None, None, FeasibilityVerdict.COLINEAR_DEGENERATE)
    T_M = (obs.T1 * obs.T1 - obs.T0 * obs.T2) / d
    # a rounded T_M can land on T0 itself, which would divide by zero below
    if not math.isfinite(T_M) or T_M == obs.T0:
        raise _degenerate(obs, f"ambient T_M={T_M!r} leaves no decay ratio")
    ratio = (obs.T1 - T_M) / (obs.T0 - T_M)
    # both differences share the sign of -d, so the ratio is positive
    # unless cancellation has eaten every significant digit
    if not ratio > 0.0:
        raise _degenerate(obs, f"decay ratio {ratio!r} is not positive")
    k = math.log(ratio) / obs.t1
    if not math.isfinite(k):
        raise _degenerate(obs, f"rate k={k!r} is not finite")
    return CoolingFit(T_M, k, classify(T_M, k, obs, floor))


def _degenerate(obs: CoolingObservations, what: str) -> DiagnosticError:
    return DiagnosticError(
        f"{what}; readings {obs.T0!r}, {obs.T1!r}, {obs.T2!r} at t1={obs.t1!r} are numerically degenerate"
    )


def predict(T_M: float, k: float, T_start: float, t: float) -> float:
    """Model temperature T_M + (T_start - T_M)*exp(k*t)."""
    return T_M + (T_start - T_M) * math.exp(k * t)


def tm_of_midpoint(c: float, T0: float, T2: float) -> float | None:
    """Ambient implied by endpoint readings T0, T2 and midpoint reading c.

    Returns None at the pole c = (T0 + T2)/2, where the three points are
    colinear in time and no exponential passes through them.
    """
    denominator = 2.0 * c - T0 - T2
    if denominator == 0.0:
        return None
    return (c * c - T0 * T2) / denominator


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-6,
) -> tuple[float, int]:
    """Plain bisection on a sign change; returns (root, iterations).

    Iteration count is part of the contract: callers assert on it to
    keep the interval arithmetic honest.
    """
    lo = _check.finite("lo", lo)
    hi = _check.above("hi", hi, "lo", lo)
    tol = _check.positive("tol", tol)
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo, 0
    if f_hi == 0.0:
        return hi, 0
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise DiagnosticError(f"no sign change on [{lo!r}, {hi!r}]")
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval no longer splits in doubles
        f_mid = f(mid)
        iterations += 1
        if f_mid == 0.0:
            return mid, iterations
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations


def feasible_midpoint_range(
    T0: float,
    T2: float,
    floor: float = ABSOLUTE_ZERO_C,
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Midpoint readings compatible with an ambient at or above `floor`.

    For fixed endpoint readings T0 > T2, the implied ambient equals T2
    at c = T2 and falls monotonically to -infinity as c rises to the
    chord midpoint (T0 + T2)/2.  The feasible readings form (T2, c_high]
    where c_high solves tm_of_midpoint(c) = floor; this returns
    (T2, c_high) with the left end excluded.
    """
    T2 = _check.finite("T2", T2)
    T0 = _check.above("T0", T0, "T2", T2)
    floor = _check.finite("floor", floor)
    if T2 - floor <= 0.0:
        raise DiagnosticError(
            f"floor {floor!r} is not below the final reading T2={T2!r}; no midpoint reading is feasible"
        )
    mid = 0.5 * (T0 + T2)

    def gap(c: float) -> float:
        tm = tm_of_midpoint(c, T0, T2)
        # the pole sits on the infeasible side; at c = mid the rounded
        # 2*c - T0 - T2 can come out a hair positive instead of 0
        if tm is None or c >= mid:
            return -math.inf
        return tm - floor

    root, _ = bisect_root(gap, T2, mid, tol)
    return (T2, root)


def fit_json(fit: CoolingFit, obs: CoolingObservations) -> str:
    if fit.T_M is None or fit.k is None:
        residuals = None
    else:
        times = (0.0, obs.t1, 2.0 * obs.t1)
        observed = (obs.T0, obs.T1, obs.T2)
        residuals = [o - predict(fit.T_M, fit.k, obs.T0, t) for o, t in zip(observed, times)]
    payload = {
        "T_M": fit.T_M,
        "k": fit.k,
        "verdict": fit.verdict.value,
        "residuals": residuals,
    }
    return json.dumps(payload, indent=2) + "\n"


def sweep_csv(
    T0: float,
    T2: float,
    n: int,
    floor: float = ABSOLUTE_ZERO_C,
    t1: float = 0.5,
    round_to: int | None = None,
) -> str:
    """Fit across n midpoint readings strictly between T2 and the chord
    midpoint, one CSV row per reading; the tail rows walk into the
    infeasible band."""
    n = _check.integer("n", n, 1)
    T2 = _check.finite("T2", T2)
    T0 = _check.above("T0", T0, "T2", T2)
    mid = 0.5 * (T0 + T2)
    step = (mid - T2) / (n + 1)
    lines = ["c,T_M,k,verdict"]
    for i in range(1, n + 1):
        c = T2 + i * step
        fit = fit_three_point(CoolingObservations(t1, T0, c, T2), floor)
        assert fit.T_M is not None and fit.k is not None
        lines.append(
            f"{format_float(c, round_to)},{format_float(fit.T_M, round_to)},"
            f"{format_float(fit.k, round_to)},{fit.verdict.value}"
        )
    return "\n".join(lines) + "\n"
