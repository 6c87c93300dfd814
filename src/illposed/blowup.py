"""Finite-time blow-up detection for y' = f(x, y) on a bounded interval.

A fixed-step method cannot see a pole: every grid point lands beside the
singular abscissa, the last tangent line simply steps across it, and the
computed values stay finite.  What does betray a pole is instability
under refinement: the abscissa where |y| first exceeds a huge threshold
keeps marching down as h halves, with the crossings forming a Cauchy
sequence.  A genuinely bounded solution is indifferent to h.

The detector runs that refinement with forward Euler as the primary
evidence and repeats it with RK4 as a cross-check; the two integrators
must agree on the qualitative verdict or the result is downgraded to
Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import _check
from ._fmt import json_text
from .ode import OVERFLOW_GUARD, IVP, Trajectory, _euler_advance, _integrate, _rk4_advance

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_H0",
    "DEFAULT_LEVELS",
    "BlowupVerdict",
    "EvidenceRow",
    "BlowupReport",
    "threshold_crossing",
    "estimate_blowup",
    "report_json",
]

DEFAULT_THRESHOLD = 1e8
DEFAULT_H0 = 0.01
DEFAULT_LEVELS = 8


class BlowupVerdict(str, Enum):
    BLOWUP_DETECTED = "BlowupDetected"
    BOUNDED_ON_INTERVAL = "BoundedOnInterval"
    INCONCLUSIVE = "Inconclusive"


class EvidenceRow(NamedTuple):
    h: float
    crossing_x: float | None
    y_at_target: float | None


@dataclass(frozen=True)
class BlowupReport:
    verdict: BlowupVerdict
    x_estimate: float | None
    bracket: tuple[float, float] | None
    tolerance: float | None
    x_end: float | None
    max_abs_y: float | None
    reason: str | None
    evidence: tuple[EvidenceRow, ...]


def _grid_steps(x0: float, x_max: float, h: float) -> int:
    # largest n with x0 + n*h <= x_max, up to a hair of slop
    h = _check.positive("step size", h)
    n = int(math.floor(_check.finite(f"number of steps for step size {h!r}", (x_max - x0) / h + 1e-9)))
    if n < 1:
        raise ValueError(f"step size {h!r} does not fit in the interval [{x0!r}, {x_max!r}]")
    return n


def _run_levels(
    ivp: IVP, x_max: float, threshold: float, h0: float, levels: int, advance
) -> tuple[tuple[EvidenceRow, ...], Trajectory, str | None]:
    """One evidence row per level at h0/2^level, the finest level's trajectory, and the first rhs-undefined reason.

    Each level runs until its first crossing; one stopped by an rhs outside its domain neither crosses nor ends.
    """
    rows = []
    undefined = None
    for level in range(levels):
        h = math.ldexp(h0, -level)
        trajectory = _integrate(ivp, h, _grid_steps(ivp.x0, x_max, h), advance, min(threshold, OVERFLOW_GUARD))
        if trajectory.rhs_undefined:
            rows.append(EvidenceRow(h, None, None))
            undefined = undefined or trajectory.termination_reason
        elif trajectory.terminated_early:
            rows.append(EvidenceRow(h, trajectory.xs[-1], None))
        else:
            rows.append(EvidenceRow(h, None, trajectory.ys[-1]))
    return tuple(rows), trajectory, undefined


def threshold_crossing(ivp: IVP, h: float, x_max: float, threshold: float) -> float | None:
    """Smallest grid abscissa where the Euler trajectory has |y| >= threshold.

    Returns None when the trajectory stays below the threshold all the
    way to x_max.  A run that terminates early (overflow guard, rhs
    overflow) counts as crossing at its terminating step, and one whose
    |y0| already reaches the threshold crosses at x0.  A run whose rhs
    leaves its domain first raises ValueError naming where.
    """
    x_max = _check.above("x_max", x_max, "x0", ivp.x0)
    threshold = _check.positive("threshold", threshold)
    h = _check.positive("step size", h)
    (row,), _, undefined = _run_levels(ivp, x_max, threshold, h, 1, _euler_advance)
    if undefined:
        raise ValueError(undefined)
    return row.crossing_x


def _classify(rows: tuple[EvidenceRow, ...]) -> tuple[str, str | None, tuple[float, float] | None]:
    """Returns (kind, reason, bracket) with kind in detected/bounded/inconclusive."""
    crossings = [r.crossing_x for r in rows]
    steps = [r.h for r in rows]
    crossed = [c is not None for c in crossings]
    if not any(crossed):
        return "bounded", None, None
    if not all(crossed):
        hit = sum(crossed)
        return (
            "inconclusive",
            f"threshold crossed at {hit} of {len(rows)} refinement levels; evidence is mixed",
            None,
        )
    # all levels crossed: demand a Cauchy-decreasing crossing sequence.
    # Crossings are quantised to their grids, so each comparison gets one
    # fine-cell of slack (plus a little float noise allowance).
    slacks = [fine + 1e-12 * max(1.0, abs(c)) for fine, c in zip(steps[1:], crossings)]
    if any(later > c + slack for c, later, slack in zip(crossings, crossings[1:], slacks)):
        return (
            "inconclusive",
            "crossing abscissas do not decrease under refinement",
            None,
        )
    gaps = [max(c - later, 0.0) for c, later in zip(crossings, crossings[1:])]
    if any(later > gap + slack for gap, later, slack in zip(gaps, gaps[1:], slacks)):
        return (
            "inconclusive",
            "crossing gaps fail to shrink under refinement",
            None,
        )
    last = crossings[-1]
    # The crossing error can shrink slower than the gap does (the lag
    # behind the true pole loses less than half per halving), so a
    # single-gap bracket can undershoot; doubling the radius covers any
    # per-level contraction down to 1/3, and the finest cell floors it.
    radius = 2.0 * max(gaps[-1], steps[-1])
    return "detected", None, (last - radius, last)


def estimate_blowup(
    ivp: IVP,
    x_max: float,
    threshold: float = DEFAULT_THRESHOLD,
    h0: float = DEFAULT_H0,
    levels: int = DEFAULT_LEVELS,
) -> BlowupReport:
    """Refinement study of threshold crossings on [x0, x_max].

    Runs _run_levels at h0, h0/2, ..., h0/2^(levels-1) with forward
    Euler, then, unless an Euler rhs left its domain, with RK4.
    BlowupDetected requires every Euler level to cross with crossings
    Cauchy-decreasing and RK4 to agree qualitatively; BoundedOnInterval
    requires no level of either integrator to cross.  Everything else is
    Inconclusive, including any level whose rhs leaves its domain: a pole
    or a log of a negative value is not an escape of the solution.
    """
    x_max = _check.above("x_max", x_max, "x0", ivp.x0)
    threshold = _check.positive("threshold", threshold)
    h0 = _check.positive("h0", h0)
    levels = _check.integer("levels", levels, 3)

    evidence, finest, undefined = _run_levels(ivp, x_max, threshold, h0, levels, _euler_advance)
    if undefined is None:
        rk4_evidence, _, undefined = _run_levels(ivp, x_max, threshold, h0, levels, _rk4_advance)

    def report(verdict, x_estimate=None, bracket=None, tolerance=None, x_end=None, max_abs_y=None, reason=None):
        return BlowupReport(verdict, x_estimate, bracket, tolerance, x_end, max_abs_y, reason, evidence)

    if undefined:
        return report(BlowupVerdict.INCONCLUSIVE, reason=undefined)
    euler_kind, euler_reason, bracket = _classify(evidence)
    rk4_kind = _classify(rk4_evidence)[0]

    if euler_kind == "detected" and rk4_kind == "detected":
        last = evidence[-1].crossing_x
        assert bracket is not None and last is not None
        return report(BlowupVerdict.BLOWUP_DETECTED, last, bracket, tolerance=bracket[1] - bracket[0])
    if euler_kind == "bounded" and rk4_kind == "bounded":
        return report(BlowupVerdict.BOUNDED_ON_INTERVAL, x_end=finest.xs[-1], max_abs_y=max(map(abs, finest.ys)))
    reason = euler_reason  # both inconclusive, unless they disagree
    if euler_kind != rk4_kind:
        reason = f"integrators disagree: Euler refinement looks {euler_kind}, RK4 looks {rk4_kind}"
    return report(BlowupVerdict.INCONCLUSIVE, reason=reason)


def report_json(report: BlowupReport) -> str:
    payload = {
        "verdict": report.verdict.value,
        "x_estimate": report.x_estimate,
        "bracket": None if report.bracket is None else list(report.bracket),
        "tolerance": report.tolerance,
        "x_end": report.x_end,
        "max_abs_y": report.max_abs_y,
        "reason": report.reason,
        "evidence": [
            {"h": row.h, "crossing_x": row.crossing_x, "y_at_target": row.y_at_target}
            for row in report.evidence
        ],
    }
    return json_text(payload)
