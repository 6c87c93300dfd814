"""Two-variable limits at the origin, probed along parametrised paths.

A limit lim_{(x,y)->(0,0)} f(x, y) exists only if every way of
approaching the origin agrees.  The tools here make the standard
counterexamples mechanical: sample f along paths (x(t), y(t)) -> (0,0)
for a shrinking t schedule and compare the per-path limits; two paths
that settle on different values witness non-existence, while agreement
is reported as consistent but explicitly non-conclusive.

Two dense scans complement the path probes: a polar sweep bounding
max_{angle} |f| on shrinking circles, and a sign-change cell scan that
locates the zero set of an implicit curve F(x, y) = 0 away from the
origin (useful when an equation hides an isolated solution point).
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from . import _check
from ._fmt import cells as column, csv_text, json_text
from .expr import (
    Binary,
    Call,
    EvalError,
    Expression,
    Literal,
    Unary,
    Variable,
    compile_array,
    evaluate,
    parse,
)

__all__ = [
    "DEFAULT_SCHEDULE",
    "DEFAULT_RADII",
    "CAUCHY_TOL",
    "DIVERGENCE_CAP",
    "AGREEMENT_TOL",
    "ANGULAR_CAP",
    "PathStatus",
    "LimitVerdict",
    "Trajectory2D",
    "LimitSample",
    "TrajectoryLimit",
    "LimitReport",
    "AngularScan",
    "trajectory_from_text",
    "line_trajectory",
    "level_curve_trajectory",
    "default_trajectories",
    "limit_along",
    "compare_trajectories",
    "angular_bound_scan",
    "implicit_zero_scan",
    "limit_report_json",
    "samples_csv",
    "polar_csv",
    "implicit_csv",
]

# The t schedule every path is sampled on: decades down to 1e-8, then
# one sub-1e-8 point.  The tail stops short of 1e-9 on purpose: on level
# curves of x*y/(x+y) the sum x + y is of order t^2/a while the
# coordinates are of order t, so evaluating f at t costs roughly
# |a|^2 * eps/t in absolute error (eps = 2^-52), which passes the 1e-6
# Cauchy tolerance at 5e-9 but not at 1e-9.
DEFAULT_SCHEDULE: tuple[float, ...] = tuple(10.0**-k for k in range(1, 9)) + (5e-9,)
DEFAULT_RADII: tuple[float, ...] = tuple(10.0**-k for k in range(1, 7))
CAUCHY_TOL = 1e-6
DIVERGENCE_CAP = 1e12
AGREEMENT_TOL = 1e-4
ANGULAR_CAP = 1e6

# Points per scan chunk (polar angles) or row block (implicit lattice).
# 16,384 doubles make 128 KB temporaries.  Measured against 65,536 on a
# 2-vCPU host: the implicit scan runs as fast, and threaded polar shares
# no longer leave freed 512 KB chunks in a second malloc arena, which
# raised the dense-scan benchmark's peak RSS by 9-16%.
_SCAN_CHUNK = 16_384
# The polar scan spreads its chunks over the CPUs this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class PathStatus(str, Enum):
    CONVERGED = "Converged"
    DIVERGED = "Diverged"
    INCONCLUSIVE = "Inconclusive"


class LimitVerdict(str, Enum):
    DOES_NOT_EXIST = "DoesNotExist"
    CONSISTENT_VALUE = "ConsistentValue"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Trajectory2D:
    """A path t -> (x(t), y(t)) that approaches the origin as t -> 0+."""

    x_of_t: Expression
    y_of_t: Expression
    label: str

    def __post_init__(self):
        _check.variables("path", ("t",), self.x_of_t, self.y_of_t)
        try:
            tail = self._norm(1e-6)
        except EvalError as err:
            raise ValueError(f"path {self.label!r} is not evaluable near t=0: {err}") from None
        references = []
        for probe in (1e-1, 1e-3):
            try:
                references.append(self._norm(probe))
            except EvalError:
                # a pole away from the origin (level curves with small a
                # have one at t = a) does not disqualify the path
                continue
        # shrinking alone is not enough; a path like x = t+1 shrinks
        # toward norm 1 without ever nearing the origin
        if tail >= 1e-2 or any(tail >= reference for reference in references):
            raise ValueError(f"path {self.label!r} does not approach the origin as t shrinks")

    def _norm(self, t: float) -> float:
        x = evaluate(self.x_of_t, {"t": t})
        y = evaluate(self.y_of_t, {"t": t})
        return math.hypot(x, y)


class LimitSample(NamedTuple):
    t: float
    x: float | None
    y: float | None
    f: float | None


@dataclass(frozen=True)
class TrajectoryLimit:
    label: str
    status: PathStatus
    value: float | None
    samples: tuple[LimitSample, ...]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class LimitReport:
    verdict: LimitVerdict
    value: float | None
    witnesses: tuple[tuple[str, float], tuple[str, float]] | None
    note: str
    paths: tuple[TrajectoryLimit, ...]


class AngularScan(NamedTuple):
    rows: tuple[tuple[float, float], ...]  # (r, max |f| on the circle)
    bounded: bool
    n_angles: int
    cap: float


def _number(value: float) -> Expression:
    # negative literals have no parse form, so wrap them in negation
    if value < 0 or math.copysign(1.0, value) < 0:
        return Unary(Literal(-value))
    return Literal(float(value))


def _label_number(value: float) -> str:
    """The short %g text of value when it reads back as value, else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def trajectory_from_text(x_text: str, y_text: str, label: str | None = None) -> Trajectory2D:
    return Trajectory2D(parse(x_text), parse(y_text), label or f"x={x_text}, y={y_text}")


def line_trajectory(slope: float) -> Trajectory2D:
    """The straight path x = t, y = slope*t."""
    slope = _check.finite("slope", slope)
    if slope == 1.0:
        label = "y=x"
    elif slope == -1.0:
        label = "y=-x"
    else:
        label = f"y={_label_number(slope)}x"
    return Trajectory2D(Variable("t"), Binary("*", _number(slope), Variable("t")), label)


def level_curve_trajectory(a: float) -> Trajectory2D:
    """The curve on which x*y/(x + y) is identically a: x = t, y = a*t/(t - a).

    Solving x*y = a*(x + y) for y gives y = a*x/(x - a); substituting
    back shows f equals a at every point of the curve, yet the curve
    passes through the origin for every nonzero a.
    """
    a = _check.finite("level value", a)
    if a == 0.0:
        raise ValueError("level value must be nonzero")
    t = Variable("t")
    y = Binary("/", Binary("*", _number(a), t), Binary("-", t, _number(a)))
    return Trajectory2D(t, y, f"level curve a={_label_number(a)}")


def default_trajectories() -> list[Trajectory2D]:
    """Axes, both diagonals, a parabola and a square-root path."""
    t = Variable("t")
    return [
        line_trajectory(1.0),
        line_trajectory(-1.0),
        Trajectory2D(t, Binary("^", t, Literal(2.0)), "y=x^2"),
        Trajectory2D(t, Call("sqrt", t), "y=sqrt(t)"),
        Trajectory2D(t, Literal(0.0), "y=0"),
        Trajectory2D(Literal(0.0), t, "x=0"),
    ]


def limit_along(f: Expression, trajectory: Trajectory2D) -> TrajectoryLimit:
    """Sample f along the path at each t of DEFAULT_SCHEDULE and judge the tail.

    Converged needs the last two successive differences below 1e-6;
    |f| past 1e12 at the finest t is Diverged; anything else (including
    paths that dodge the domain of f) is Inconclusive.  Samples where f
    or the path is undefined are skipped and noted, not fatal.
    """
    _check.variables("f", ("x", "y"), f)
    samples: list[LimitSample] = []
    notes: list[str] = []
    values: list[float] = []
    for t in DEFAULT_SCHEDULE:
        try:
            x = evaluate(trajectory.x_of_t, {"t": t})
            y = evaluate(trajectory.y_of_t, {"t": t})
        except EvalError as err:
            samples.append(LimitSample(t, None, None, None))
            notes.append(f"t={t:g}: path undefined ({err})")
            continue
        try:
            value = evaluate(f, {"x": x, "y": y})
        except EvalError as err:
            samples.append(LimitSample(t, x, y, None))
            notes.append(f"t={t:g}: f undefined ({err})")
            continue
        samples.append(LimitSample(t, x, y, value))
        values.append(value)

    if len(values) < 3:
        notes.append("fewer than 3 valid samples; no tail to judge")
        status, value = PathStatus.INCONCLUSIVE, None
    elif abs(values[-1]) > DIVERGENCE_CAP:
        notes.append(f"|f| reached {abs(values[-1]):.3g} at the finest t")
        status, value = PathStatus.DIVERGED, None
    else:
        diffs = [abs(b - a) for a, b in zip(values, values[1:])]
        if diffs[-1] < CAUCHY_TOL and diffs[-2] < CAUCHY_TOL:
            status, value = PathStatus.CONVERGED, values[-1]
        else:
            notes.append("samples are not Cauchy at the finest scales")
            status, value = PathStatus.INCONCLUSIVE, None
    return TrajectoryLimit(trajectory.label, status, value, tuple(samples), tuple(notes))


def compare_trajectories(f: Expression, trajectories: Sequence[Trajectory2D]) -> LimitReport:
    """Race the paths against each other.

    Two converged paths whose limits differ by more than 1e-4 witness
    DoesNotExist.  If every path converges and all limits agree, the
    verdict is ConsistentValue, which deliberately stops short of
    claiming the limit exists.  Everything else is Inconclusive.
    """
    if len(trajectories) < 2:
        raise ValueError("need at least two paths to compare")
    labels = [tr.label for tr in trajectories]
    if len(set(labels)) != len(labels):
        raise ValueError("path labels must be unique")
    results = tuple(limit_along(f, tr) for tr in trajectories)
    converged = [(r.label, r.value) for r in results if r.status is PathStatus.CONVERGED]

    if len(converged) >= 2:
        low = min(converged, key=lambda item: item[1])
        high = max(converged, key=lambda item: item[1])
        if high[1] - low[1] > AGREEMENT_TOL:
            return LimitReport(
                verdict=LimitVerdict.DOES_NOT_EXIST,
                value=None,
                witnesses=(low, high),
                note=(
                    f"paths {low[0]!r} and {high[0]!r} settle on limits "
                    f"{low[1]:.6g} and {high[1]:.6g}"
                ),
                paths=results,
            )
    if len(converged) == len(results):
        value = sum(v for _, v in converged) / len(converged)
        return LimitReport(
            verdict=LimitVerdict.CONSISTENT_VALUE,
            value=value,
            witnesses=None,
            note=(
                f"all {len(results)} paths agree within {AGREEMENT_TOL:g}; "
                "path agreement does not prove the limit exists"
            ),
            paths=results,
        )
    return LimitReport(
        verdict=LimitVerdict.INCONCLUSIVE,
        value=None,
        witnesses=None,
        note=f"{len(converged)} of {len(results)} paths converged; the rest are not informative",
        paths=results,
    )


def angular_bound_scan(
    f: Expression,
    radii: Sequence[float] = DEFAULT_RADII,
    n_angles: int = 720,
    cap: float = ANGULAR_CAP,
) -> AngularScan:
    """Max of |f| over dense circles of shrinking radius.

    The grid of angles is offset by half a cell so the coordinate axes
    are never sampled exactly.  The scan is bounded when every circle
    has finite max and M(r)/r stays below the cap; a non-finite value
    anywhere (domain escape) counts as unbounded evidence.  Resolution
    matters: a pole hiding between grid angles needs n_angles on the
    order of the cap before the ratio test can see it.

    Chunks of angles are spread in contiguous shares over the CPUs the
    process may run on; a scan of one chunk runs in the calling thread.
    """
    _check.variables("f", ("x", "y"), f)
    rs = _check.decreasing("radii", radii)
    n_angles = _check.integer("n_angles", n_angles, 360)
    cap = _check.positive("cap", cap)
    import numpy as np

    fn = compile_array(f, ("x", "y"))
    cell = 2.0 * math.pi / n_angles

    def scan(starts: range, stop: threading.Event) -> list[float]:
        worst = [0.0] * len(rs)
        for start in starts:
            if stop.is_set():
                break
            # one cos/sin per angle chunk, shared by every radius
            angles = (np.arange(start, min(start + _SCAN_CHUNK, n_angles), dtype=float) + 0.5) * cell
            cos, sin = np.cos(angles), np.sin(angles)
            for k, r in enumerate(rs):
                if worst[k] < math.inf:
                    chunk_worst = float(np.max(np.abs(fn(r * cos, r * sin))))
                    # max(0.0, nan) is 0.0, so a nan chunk must be turned into inf here
                    worst[k] = max(worst[k], chunk_worst) if math.isfinite(chunk_worst) else math.inf
        return worst

    # contiguous shares of the chunk starts; max is exact in any order,
    # so the rows do not depend on how many shares there are
    starts = range(0, n_angles, _SCAN_CHUNK)
    n = min(_WORKERS, len(starts))
    shares = [starts[len(starts) * i // n : len(starts) * (i + 1) // n] for i in range(n)]
    worst = [max(column) for column in zip(*_run_shares(scan, shares))]
    rows = tuple(zip(rs, worst))
    bounded = all(m / r < cap for r, m in rows)
    return AngularScan(rows, bounded, n_angles, cap)


def _run_shares(work, shares: list[range]) -> list:
    """work(share, stop) for each share: the first in this thread, every other in a thread of its own.

    So one share starts no thread.  Any exception, in any share or while
    this thread waits for the others, sets `stop`, which each share
    checks before its next chunk; once every thread has ended, the first
    exception is raised again.
    """
    stop = threading.Event()
    results: list = [None] * len(shares)
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            results[i] = work(shares[i], stop)
        except BaseException as err:
            errors.append(err)
            stop.set()

    started: list[threading.Thread] = []
    try:
        for i in range(1, len(shares)):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
        run(0)
        for thread in started:
            thread.join()
    except BaseException:
        # an interrupt while joining, or a thread that could not start
        stop.set()
        for thread in started:
            thread.join()
        raise
    if errors:
        raise errors[0]
    return results


def implicit_zero_scan(F: Expression, R: float, grid_n: int = 400) -> list[tuple[float, float]]:
    """Cells of a square lattice on [-R, R]^2 where F(x, y) = 0 shows up.

    A cell is flagged when its four corners are finite and either
    straddle a sign change or include a corner with |F| < 1e-14.  Cells
    containing the origin are excluded (the origin solves the classroom
    equations trivially; the question is what else does), as are cells
    whose centre falls outside the disk of radius R.  Returned cell
    centres are sorted by x then y.

    The disk test squares the coordinates, so R must keep R*R a normal
    double and 2*R*R finite: about 1.5e-154 <= R <= 9.5e153.
    """
    _check.variables("F", ("x", "y"), F)
    R = _check.positive("R", R)
    if not (R * R >= sys.float_info.min and math.isfinite(2.0 * R * R)):
        raise ValueError(f"R must lie between about 1.5e-154 and 9.5e153, got {R!r}")
    grid_n = _check.integer("grid_n", grid_n, 100)
    import numpy as np

    xs = np.linspace(-R, R, grid_n)
    centres = 0.5 * (xs[:-1] + xs[1:])
    spans_zero = (xs[:-1] <= 0.0) & (xs[1:] >= 0.0)
    fn = compile_array(F, ("x", "y"))
    cells: list[tuple[float, float]] = []
    # row blocks of about _SCAN_CHUNK points, overlapping by one row;
    # F sees an (n, 1) column against a (1, N) row, so x-only terms cost O(n)
    block = max(1, _SCAN_CHUNK // grid_n)
    for i0 in range(0, grid_n - 1, block):
        i1 = min(i0 + block, grid_n - 1)
        values = fn(xs[i0 : i1 + 1].reshape(-1, 1), xs.reshape(1, -1))
        a, b, c, d = values[:-1, :-1], values[1:, :-1], values[:-1, 1:], values[1:, 1:]
        # min and max propagate nan and inf, so two isfinite tests cover all four corners
        lowest = np.minimum(np.minimum(a, b), np.minimum(c, d))
        highest = np.maximum(np.maximum(a, b), np.maximum(c, d))
        near_zero = np.abs(a) < 1e-14
        for corner in (b, c, d):
            near_zero |= np.abs(corner) < 1e-14
        flagged = np.isfinite(lowest) & np.isfinite(highest) & (((lowest < 0.0) & (highest > 0.0)) | near_zero)
        flagged &= ~(spans_zero[i0:i1, None] & spans_zero[None, :])
        flagged &= (centres[i0:i1, None] ** 2 + centres[None, :] ** 2) <= R * R
        i, j = np.nonzero(flagged)
        cells.extend(zip(centres[i0 + i].tolist(), centres[j].tolist()))
    return cells


# --- renderers --------------------------------------------------------------


def limit_report_json(report: LimitReport) -> str:
    payload = {
        "verdict": report.verdict.value,
        "value": report.value,
        "witnesses": None
        if report.witnesses is None
        else [{"label": label, "limit": value} for label, value in report.witnesses],
        "note": report.note,
        "paths": [
            {
                "label": p.label,
                "status": p.status.value,
                "value": p.value,
                "notes": list(p.notes),
            }
            for p in report.paths
        ],
    }
    return json_text(payload)


def samples_csv(report: LimitReport, round_to: int | None = None) -> str:
    """Raw samples, one commented block per path, each with a t,x,y,f table."""
    return "".join(
        csv_text(
            (f"trajectory: {p.label}", f"status: {p.status.value}"),
            "t,x,y,f",
            *(column(values, round_to) for values in zip(*p.samples)),
        )
        for p in report.paths
    )


def polar_csv(scan: AngularScan, round_to: int | None = None) -> str:
    return csv_text(
        (f"bounded={'true' if scan.bounded else 'false'}", f"n_angles={scan.n_angles}"),
        "r,max_abs_f",
        *(column(values, round_to) for values in zip(*scan.rows)),
    )


def implicit_csv(cells: Sequence[tuple[float, float]], round_to: int | None = None) -> str:
    return csv_text((), "cell_x,cell_y", *(column(values, round_to) for values in zip(*cells)))
