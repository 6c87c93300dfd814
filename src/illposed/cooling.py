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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import _check
from ._fmt import DiagnosticError, cells, csv_text, json_text

__all__ = [
    "ABSOLUTE_ZERO_C",
    "FeasibilityVerdict",
    "DiagnosticError",
    "CoolingObservations",
    "CoolingFit",
    "fit_three_point",
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


def fit_three_point(obs: CoolingObservations, floor: float = ABSOLUTE_ZERO_C) -> CoolingFit:
    """Exact three-point fit, or a degenerate verdict when none exists.

    Doubles are integers over a power-of-two denominator, so the verdict
    is decided exactly and T_M is rounded once.  Raises DiagnosticError
    when T_M or k lies beyond the double range.
    """
    floor = _check.finite("floor", floor)
    if not obs.monotone_cooling:
        return CoolingFit(None, None, FeasibilityVerdict.NON_MONOTONE_DATA)
    U, V, N, D = _exact_fit(obs)
    if U == V:
        return CoolingFit(None, None, FeasibilityVerdict.COLINEAR_DEGENERATE)
    try:
        T_M = N / D  # int / int rounds correctly
    except OverflowError:
        T_M = math.inf if N > 0 else -math.inf
    if U < 2 * V and V < 2 * U:
        x = (V - U) / U
        if abs(x) < 2.0**-1022:  # x is subnormal and has lost bits; log1p(x) rounds to x
            p, q = obs.t1.as_integer_ratio()
            k = (V - U) * q / (U * p)
        else:
            k = math.log1p(x) / obs.t1  # no cancellation next to ratio 1
    elif abs(V.bit_length() - U.bit_length()) < 1000:
        k = math.log(V / U) / obs.t1
    else:  # V/U lies beyond the double range
        k = (math.log(V) - math.log(U)) / obs.t1
    if math.isinf(T_M) or math.isinf(k):
        what = f"T_M={T_M!r}, k={k!r} of {obs.T0!r}, {obs.T1!r}, {obs.T2!r} at t1={obs.t1!r}"
        raise DiagnosticError(f"the exact fit {what} lies beyond the double range")
    p, q = floor.as_integer_ratio()
    if N * q < p * D:
        verdict = FeasibilityVerdict.BELOW_ABSOLUTE_ZERO
    elif V > U:
        verdict = FeasibilityVerdict.SIGN_CONTRADICTION
    else:
        verdict = FeasibilityVerdict.FEASIBLE
    return CoolingFit(T_M, k, verdict)


def _exact_fit(obs: CoolingObservations) -> tuple[int, int, int, int]:
    """Decay ratio V/U and ambient N/D (D > 0) of the readings as integers."""
    (M0, M1, M2), L = _integers(obs.T0, obs.T1, obs.T2)
    U, V = M0 - M1, M1 - M2
    N, D = M1 * (U - V) - U * V, (U - V) * L
    return (U, V, N, D) if D > 0 else (U, V, -N, -D)


def _integers(*values: float) -> tuple[list[int], int]:
    """Doubles as integers over one common denominator L, a power of two."""
    ratios = [value.as_integer_ratio() for value in values]
    L = max(d for _, d in ratios)
    return [n * (L // d) for n, d in ratios], L


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
) -> tuple[float, float]:
    """Midpoint readings compatible with an ambient at or above `floor`.

    For fixed endpoint readings T0 > T2, the implied ambient equals T2
    at c = T2 and falls monotonically to -infinity as c rises to the
    chord midpoint (T0 + T2)/2.  The feasible readings form (T2, c_high]
    where tm_of_midpoint(c_high) = floor, i.e. (c_high - floor)^2 =
    (T0 - floor)(T2 - floor).  Returns (T2, c_high), left end excluded,
    with c_high rounded once from the exact root.
    """
    T2 = _check.finite("T2", T2)
    T0 = _check.above("T0", T0, "T2", T2)
    floor = _check.finite("floor", floor)
    if T2 <= floor:
        raise DiagnosticError(
            f"floor {floor!r} is not below the final reading T2={T2!r}; no midpoint reading is feasible"
        )
    (M0, M2, F), L = _integers(T0, T2, floor)
    P = (M0 - F) * (M2 - F)  # (c_high - floor)^2, times L^2
    # F + sqrt(P) is 0 or at least 1/(3*sqrt(P)): this shift keeps 60 bits of it
    shift = 64 + P.bit_length()
    return (T2, ((F << shift) + math.isqrt(P << 2 * shift)) / (L << shift))


def fit_json(fit: CoolingFit, obs: CoolingObservations) -> str:
    """The fit as JSON.  Residuals T_n - (T_M + (T0 - T_M)*r^n) are exact for the
    exact ratio r, so they show how T_M rounds; DiagnosticError past the double range."""
    residuals = None
    if fit.T_M is not None:
        U, V, N, D = _exact_fit(obs)
        a, b = fit.T_M.as_integer_ratio()
        error = N * b - a * D  # (exact T_M - T_M) * D * b, with D * b > 0
        try:
            residuals = [error * (U**n - V**n) / (D * b * U**n) for n in range(3)]
        except OverflowError:
            raise DiagnosticError(f"a fit residual of {obs.T0!r}, {obs.T1!r}, {obs.T2!r} lies beyond the double range") from None
    return json_text({"T_M": fit.T_M, "k": fit.k, "verdict": fit.verdict.value, "residuals": residuals})


def sweep_csv(T0: float, T2: float, n: int, floor: float = ABSOLUTE_ZERO_C, t1: float = 0.5) -> str:
    """Fit across n midpoint readings strictly between T2 and the chord
    midpoint, one CSV row per reading; the tail rows walk into the
    infeasible band.  A reading with no fit gets empty T_M and k cells."""
    n = _check.integer("n", n, 1)
    T2 = _check.finite("T2", T2)
    T0 = _check.above("T0", T0, "T2", T2)
    total = T0 + T2
    # readings past half the double range overflow the sum; halving first rounds only once too
    mid = 0.5 * total if math.isfinite(total) else 0.5 * T0 + 0.5 * T2
    step = (mid - T2) / (n + 1)
    readings = [T2 + i * step for i in range(1, n + 1)]
    fits = [fit_three_point(CoolingObservations(t1, T0, c, T2), floor) for c in readings]
    T_M, k = cells([fit.T_M for fit in fits]), cells([fit.k for fit in fits])
    return csv_text((), "c,T_M,k,verdict", cells(readings), T_M, k, [fit.verdict.value for fit in fits])
