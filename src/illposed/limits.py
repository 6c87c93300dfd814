"""Two-variable limits at the origin, probed along parametrised paths.

A limit lim_{(x,y)->(0,0)} f(x, y) exists only if every way of
approaching the origin agrees.  The tools here make the standard
counterexamples mechanical: sample f along paths (x(t), y(t)) -> (0,0)
for a shrinking t schedule and compare the per-path limits; two paths
that settle on different values witness non-existence, while agreement
is reported as consistent but explicitly non-conclusive.

Two dense scans complement the path probes: a polar sweep bounding
max_{angle} |f| on shrinking circles, and a cell scan that flags the
cells of an implicit curve F(x, y) = 0 away from the origin where F
changes sign or a corner has |F| < 1e-14.  A zero that F only touches,
such as the isolated zero of a sum of squares, changes no sign and is
missed (ROADMAP item 14).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import chain
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
    _array_bounds,
    _walk,
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

# The most angles the polar scan evaluates f on in one call, and the most
# a box holds: a batch of boxes gathers its live boxes into one array of
# at most 16,384 doubles, which make 128 KB temporaries.
_SCAN_CHUNK = 16_384
# Cell rows per implicit-scan row block, the unit F is evaluated on.  A
# fully live block holds 49 x grid_n lattice points: 1.5 MB per float
# temporary at grid 4000.  On a 2-vCPU Xeon host (2 MiB L2 per core) the
# five dense-scan benchmark fields took 12.0-12.1 ms in all (in-process
# medians of 40, two runs) with blocks of 49,152 points (24 rows at grid
# 2000), 10.6-10.9 ms with 48 rows, 10.7-11.0 ms with 64, 11.3-11.6 ms
# with 32, 13.1-13.5 ms with 96 and 11.7-12.1 ms with 98,304 points.
# Live tiles are a small share of the lattice (a tenth on the grid-2000
# sqrt field), so short blocks spend their time on the fixed cost of
# each numpy call.
_BLOCK_ROWS = 48
# The most tiles one implicit-scan bound pass holds.
_ROW_BLOCK = 49_152
# Cell columns per implicit-scan tile.  A tile is _BLOCK_ROWS cell rows
# by _TILE cell columns, and one interval bound decides whether F is
# evaluated on it.
_TILE = 16
# Boxes whose |f| bounds the polar scan works out at a time, so a pass's
# bound arrays hold len(radii) x 1024 entries whatever the angle count.
_BOUND_BLOCK = 1024
# The fewest angles in a polar scan box, the unit the interval bound skips.
# A box is a _BOUND_BLOCK-th of the circle, of at least _MIN_BOX and at
# most _SCAN_CHUNK angles: 256 angles up to 262,144 angles, 977 at 1M,
# 9,766 at 10M (the 10M-angle saddle evaluates 2 of its 1,024 boxes) and
# 16,384 from 16,776,193 angles on.  With the README cubic at the default
# radii on a 2-vCPU host (in-process medians of 300, 100 and 60), floors
# of 1, 256 and 1,024 took 1.28, 0.68 and 0.65 ms at 720 angles, 2.87,
# 2.26 and 2.72 ms at 30,000 and 2.87, 2.45 and 2.65 ms at 100,000.
_MIN_BOX = 256
# x = r*cos(t) and y = r*sin(t), the products the polar scan evaluates f on
_POLAR_X = Binary("*", Variable("r"), Call("cos", Variable("t")))
_POLAR_Y = Binary("*", Variable("r"), Call("sin", Variable("t")))


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
        # the tail is probed at the finest t that limit_along samples: the
        # path must reach within 1e-2 of the origin there, whatever its
        # slope.  A bound scaled by the path's own norms cannot tell
        # y = c*t from y = c*t + 0.5 once c*t dwarfs the offset
        try:
            tail = self._norm(DEFAULT_SCHEDULE[-1])
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


_T = Variable("t")
_DEFAULT_PATHS = (
    line_trajectory(1.0),
    line_trajectory(-1.0),
    Trajectory2D(_T, Binary("^", _T, Literal(2.0)), "y=x^2"),
    Trajectory2D(_T, Call("sqrt", _T), "y=sqrt(t)"),
    Trajectory2D(_T, Literal(0.0), "y=0"),
    Trajectory2D(Literal(0.0), _T, "x=0"),
)


def default_trajectories() -> list[Trajectory2D]:
    """Axes, both diagonals, a parabola and a square-root path.

    The paths are frozen, so they are built and origin-checked once, at
    import; each call returns a fresh list of the same path objects.
    """
    return list(_DEFAULT_PATHS)


def limit_along(f: Expression, trajectory: Trajectory2D) -> TrajectoryLimit:
    """Sample f along the path at each t of DEFAULT_SCHEDULE; _judge reads the samples.

    Samples where f or the path is undefined are skipped and noted, not
    fatal.  The judge's note, if it gives one, is the last.  f is walked
    once over the path's points (_sample); an undefined point is redone alone.
    """
    return _sample(f, (trajectory,))[0]


def _values(expr: Expression, columns: dict[str, Sequence[float]], n: int) -> list:
    """expr at n points by one _walk; if it raises, evaluate's value or EvalError at each point."""
    try:
        return _walk(expr, columns, n)
    except EvalError:
        out: list = []
        for i in range(n):
            try:
                out.append(evaluate(expr, {name: column[i] for name, column in columns.items()}))
            except EvalError as err:
                out.append(err)
        return out


def _sample(f: Expression, trajectories: Sequence[Trajectory2D]) -> tuple[TrajectoryLimit, ...]:
    """Each path's TrajectoryLimit: x(t) and y(t) walked over DEFAULT_SCHEDULE, f over all paths' points."""
    _check.variables("f", ("x", "y"), f)
    ts, n = {"t": DEFAULT_SCHEDULE}, len(DEFAULT_SCHEDULE)
    # a point is (x, y), or the path's error there: x's where x is undefined, as evaluating x first gives
    paths = [
        [x if isinstance(x, EvalError) else y if isinstance(y, EvalError) else (x, y) for x, y in zip(xs, ys)]
        for xs, ys in ((_values(tr.x_of_t, ts, n), _values(tr.y_of_t, ts, n)) for tr in trajectories)
    ]
    points = [p for path in paths for p in path if type(p) is tuple]
    fs = iter(_values(f, {"x": [x for x, _ in points], "y": [y for _, y in points]}, len(points)))
    results = []
    for trajectory, path in zip(trajectories, paths):
        samples, notes = [], []
        for t, point in zip(DEFAULT_SCHEDULE, path):
            if type(point) is not tuple:
                samples.append(LimitSample(t, None, None, None))
                notes.append(f"t={t:g}: path undefined ({point})")
            elif isinstance(value := next(fs), EvalError):
                samples.append(LimitSample(t, *point, None))
                notes.append(f"t={t:g}: f undefined ({value})")
            else:
                samples.append(LimitSample(t, *point, value))
        status, value, note = _judge(samples)
        if note is not None:
            notes.append(note)
        results.append(TrajectoryLimit(trajectory.label, status, value, tuple(samples), tuple(notes)))
    return tuple(results)


def _judge(samples: Sequence[LimitSample]) -> tuple[PathStatus, float | None, str | None]:
    """The verdict on a path's samples: (status, value, note), the note None only for Converged.

    The first rule that matches decides, on the samples where f is defined:
    - fewer than 3: Inconclusive;
    - |f| past DIVERGENCE_CAP at the finest: Diverged;
    - one of the last two steps |f_(i+1) - f_i| not below CAUCHY_TOL: Inconclusive;
    - a step above CAUCHY_TOL larger than the step before it: Inconclusive.
      A convergent tail contracts; a rounding cancellation breaks that.
      (-3 + -3*y^3 + 3)/y^3 on x = t, y = -2t has the limit -3, but from
      t = 1e-6 on -3 absorbs -3*y^3 and +3 cancels the sum, so f falls
      from about -3 to -0.0 in one step and the last steps are 0.  The
      rule also refuses a few convergent paths whose steps at t = 0.1 and
      0.01 still grow;
    - drift: Inconclusive.  The values at t = 1e-4 ... 1e-8, one decade
      apart on DEFAULT_SCHEDULE, drift when all are defined and their
      steps are nonzero, of one sign, the smallest at least half the
      largest.  |x|^1e-7 drifts by about -2.3e-7 per decade, passing the
      Cauchy test while f creeps toward its limit 0; a convergent tail
      shrinks its steps by a factor per decade.
    Otherwise the path is Converged on the finest f.
    """
    values = [sample.f for sample in samples if sample.f is not None]
    if len(values) < 3:
        return PathStatus.INCONCLUSIVE, None, "fewer than 3 valid samples; no tail to judge"
    if abs(values[-1]) > DIVERGENCE_CAP:
        return PathStatus.DIVERGED, None, f"|f| reached {abs(values[-1]):.3g} at the finest t"
    steps = [abs(b - a) for a, b in zip(values, values[1:])]
    if not (steps[-1] < CAUCHY_TOL and steps[-2] < CAUCHY_TOL):
        return PathStatus.INCONCLUSIVE, None, "samples are not Cauchy at the finest scales"
    for before, step in zip(steps, steps[1:]):
        if step > CAUCHY_TOL and step > before:
            note = f"f jumps by {step:.3g}, more than the step before it; the tail did not contract"
            return PathStatus.INCONCLUSIVE, None, note
    decades = [sample.f for sample in samples if 1e-8 <= sample.t <= 1e-4]
    if None not in decades:
        moves = [b - a for a, b in zip(decades, decades[1:])]
        low, high = min(moves), max(moves)
        smallest, largest = (low, high) if low > 0 else (-high, -low)
        if (low > 0 or high < 0) and smallest >= 0.5 * largest:
            note = f"f drifts by about {sum(moves) / len(moves):.3g} per decade of t from 1e-4 to 1e-8"
            return PathStatus.INCONCLUSIVE, None, note
    return PathStatus.CONVERGED, values[-1], None


def compare_trajectories(f: Expression, trajectories: Sequence[Trajectory2D]) -> LimitReport:
    """Race the paths against each other.

    Two converged paths whose limits differ by more than 1e-4 witness
    DoesNotExist.  If every path converges and all limits agree, the
    verdict is ConsistentValue, which deliberately stops short of
    claiming the limit exists.  Everything else is Inconclusive.  Each
    path reads as in limit_along, but f is walked once per call over the
    points of every path (_sample); an undefined point is redone alone.
    """
    if len(trajectories) < 2:
        raise ValueError("need at least two paths to compare")
    labels = [tr.label for tr in trajectories]
    if len(set(labels)) != len(labels):
        raise ValueError("path labels must be unique")
    results = _sample(f, trajectories)
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

    The scan bounds |f| over boxes of angles by interval arithmetic on
    the numpy lane (expr._array_bounds), at most _BOUND_BLOCK boxes per
    pass.  A pass visits its boxes by descending bound, in batches of at
    most _SCAN_CHUNK angles, and evaluates a batch at each radius where
    the bound of one of its boxes is at least the running maximum.  A
    box is live when its bound is at least the running maximum at one of
    those radii; the live boxes are gathered into one array, cos and sin
    are computed on it once, and f is evaluated on it at each of those
    radii.  A box that is not live cannot hold the maximum, and each
    angle is computed as a scan of the whole circle computes it, so the
    rows are byte for byte those of a scan that evaluates f at every
    angle.
    """
    _check.variables("f", ("x", "y"), f)
    rs = _check.decreasing("radii", radii)
    n_angles = _check.integer("n_angles", n_angles, 360)
    cap = _check.positive("cap", cap)
    import numpy as np

    fn = compile_array(f, ("x", "y"))
    cell = 2.0 * math.pi / n_angles
    # a _BOUND_BLOCK-th of the circle, of at least _MIN_BOX and at most _SCAN_CHUNK angles
    box = min(_SCAN_CHUNK, max(_MIN_BOX, -(-n_angles // _BOUND_BLOCK)))
    per_batch = _SCAN_CHUNK // box
    n_boxes = -(-n_angles // box)
    offsets = np.arange(box, dtype=float)
    r_column = np.array(rs).reshape(-1, 1)

    worst = [0.0] * len(rs)
    for b0 in range(0, n_boxes, _BOUND_BLOCK):
        first = np.arange(b0, min(b0 + _BOUND_BLOCK, n_boxes), dtype=float) * box
        last = np.minimum(first + box, n_angles) - 1.0
        # the box's first and last angles, computed as the gather computes them
        polar = {"r": (r_column, r_column), "t": ((first + 0.5) * cell, (last + 0.5) * cell)}
        lo, hi = _array_bounds(f, {"x": _array_bounds(_POLAR_X, polar), "y": _array_bounds(_POLAR_Y, polar)})
        # an upper bound on |f| for each radius and box; a void box is nan
        # at every angle, so its max is inf: never skipped
        bound = np.maximum(np.abs(lo), np.abs(hi))
        bound = np.where(np.isnan(bound), math.inf, bound)
        # the boxes by descending bound
        order = np.argsort(-bound.max(axis=0), kind="stable")
        bound, first = bound[:, order], first[order]
        starts = range(0, len(order), per_batch)
        # each batch's bound at each radius, the max of its boxes' bounds
        for s, batch_bound in zip(starts, np.maximum.reduceat(bound, starts, axis=1).T.tolist()):
            need = [k for k, m in enumerate(worst) if m < math.inf and batch_bound[k] >= m]
            if not need:
                continue
            # a box is live when its bound is at least the running max at some needed radius
            live = (bound[need, s : s + per_batch] >= np.array([worst[k] for k in need]).reshape(-1, 1)).any(axis=0)
            # the live boxes, gathered into one array; the last box may run past the circle
            index = (first[s : s + per_batch][live].reshape(-1, 1) + offsets).ravel()
            angles = (index[index < n_angles] + 0.5) * cell
            # one cos/sin per batch, shared by every radius that needs it
            cos, sin = np.cos(angles), np.sin(angles)
            for k in need:
                # kept alive until the next batch's values exist: freed at the heap
                # top, glibc trims the temporaries and the next batch faults them in again
                values = fn(rs[k] * cos, rs[k] * sin)
                batch_worst = float(np.max(np.abs(values)))
                # max(0.0, nan) is 0.0, so a nan batch must be turned into inf here
                worst[k] = max(worst[k], batch_worst) if math.isfinite(batch_worst) else math.inf
    rows = tuple(zip(rs, worst))
    bounded = all(m / r < cap for r, m in rows)
    return AngularScan(rows, bounded, n_angles, cap)


def implicit_zero_scan(F: Expression, R: float, grid_n: int = 400) -> list[tuple[float, float]]:
    """Cells of a square lattice on [-R, R]^2 where F(x, y) = 0 shows up.

    A cell is flagged when its four corners are finite and either
    straddle a sign change or include a corner with |F| < 1e-14.  For
    finite corners that is the same as: some corner > -1e-14 and some
    corner < 1e-14 (a corner meeting both is near zero; otherwise one
    is >= 1e-14 and another <= -1e-14), and nan fails both.  So each
    row block makes just those two boolean masks, combined over the
    four corners of each cell.  The candidate cells alone are then
    checked for four finite corners and go through the two exclusions:
    cells containing the origin (the origin solves the
    classroom equations trivially; the question is what else does), and
    cells whose centre falls outside the disk of radius R.  Returned
    cell centres are sorted by x then y.

    F is evaluated only on live tiles.  A tile is one row block of
    _BLOCK_ROWS cell rows by _TILE cell columns, bounded by interval
    arithmetic on the numpy lane (expr._array_bounds); it is dead when
    the bound proves every corner >= 1e-14, every corner <= -1e-14, or
    F nan throughout.  No cell of a dead tile can be flagged, so the
    cells are those of a scan that evaluates F everywhere.  F sees one
    block's live point columns per call, at most (_BLOCK_ROWS + 1) x
    grid_n points.

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
    squares = centres**2
    spans_zero = (xs[:-1] <= 0.0) & (xs[1:] >= 0.0)
    fn = compile_array(F, ("x", "y"))
    # the flagged cells' lattice indices, block by block in row order and row-major within
    flagged_i, flagged_j = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]

    def any_corner(points):
        rows = points[:-1] | points[1:]
        return rows[:, :-1] | rows[:, 1:]

    # row blocks of _BLOCK_ROWS cell rows, overlapping by one lattice row;
    # F sees an (n, 1) column against a (1, M) row, so x-only terms cost O(n)
    row_starts = np.arange(0, grid_n - 1, _BLOCK_ROWS)
    # the lattice columns of each tile's first and last corner points
    tile_starts = np.arange(0, grid_n - 1, _TILE)
    y_box = (xs[tile_starts].reshape(1, -1), xs[np.minimum(tile_starts + _TILE, grid_n - 1)].reshape(1, -1))
    # one bound per pass over row blocks holding at most _ROW_BLOCK tiles
    per_pass = max(1, _ROW_BLOCK // len(tile_starts))
    for first in range(0, len(row_starts), per_pass):
        starts = row_starts[first : first + per_pass]
        x_box = (xs[starts].reshape(-1, 1), xs[np.minimum(starts + _BLOCK_ROWS, grid_n - 1)].reshape(-1, 1))
        box = _array_bounds(F, {"x": x_box, "y": y_box})
        # dead: every corner >= 1e-14, every corner <= -1e-14, or none finite (void; nan fails both)
        live = (box[0] < 1e-14) & (box[1] > -1e-14)
        # the lattice columns of the live tiles' cells and their right neighbours
        live_cells = np.repeat(live, _TILE, axis=1)[:, : grid_n - 1]
        points = np.zeros((len(starts), grid_n), dtype=bool)
        points[:, :-1] = live_cells
        points[:, 1:] |= live_cells
        for i0, columns in zip(starts.tolist(), points):
            cols = np.flatnonzero(columns)
            if not len(cols):
                continue
            i1 = min(i0 + _BLOCK_ROWS, grid_n - 1)
            values = fn(xs[i0 : i1 + 1].reshape(-1, 1), xs[cols].reshape(1, -1))
            # on finite corners: a sign change or a corner with |F| < 1e-14
            candidate = any_corner(values > -1e-14) & any_corner(values < 1e-14)
            # few cells are candidates, so the finiteness, origin and disk tests run on those alone.
            # Two gathered columns that are not lattice neighbours never make a candidate: both
            # lie in a run of dead tiles, and neighbouring dead tiles share a column, so the run
            # is all >= 1e-14, all <= -1e-14 or all nan
            i, k = np.divmod(np.flatnonzero(candidate), len(cols) - 1)
            finite = np.isfinite(values[[i, i + 1, i, i + 1], [k, k, k + 1, k + 1]]).all(axis=0)
            flagged_i.append(i[finite] + i0)
            flagged_j.append(cols[k[finite]])
    i, j = np.concatenate(flagged_i), np.concatenate(flagged_j)
    keep = ~(spans_zero[i] & spans_zero[j]) & (squares[i] + squares[j] <= R * R)
    return list(zip(centres[i[keep]].tolist(), centres[j[keep]].tolist()))


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
    """The cell centres, each distinct value formatted once: a lattice's centres repeat across its cells.

    A value is keyed by its 64-bit pattern, so 0.0 and -0.0 stay apart
    and equal bits always give the same text.
    """
    import numpy as np

    bits = np.fromiter(chain.from_iterable(cells), float, 2 * len(cells)).view(np.uint64)
    # a 1-D array, so the inverse is 1-D on every numpy release
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(column(distinct.view(float).tolist(), round_to), dtype=object)
    return csv_text((), "cell_x,cell_y", *text[inverse.reshape(-1, 2)].T)
