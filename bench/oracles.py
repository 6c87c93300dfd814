"""Independent checks of illposed outputs.

Nothing here imports illposed.  Every expected value comes from exact
rational arithmetic (`fractions.Fraction`), a closed-form solution, a
plain-Python re-implementation of the Euler step, or a scalar `math`
re-evaluation of the expression, never from a stored copy of the
program's output.

A check raises `Wrong` when an answer disagrees with its oracle and
`NoAnswer` when the program gave no valid answer at all: non-standard
JSON such as `NaN`, or a non-finite number where a value belongs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Callable, Iterable

EPS = 2.0**-52
ABSOLUTE_ZERO_C = -273.15
# |y| at or past this counts as escape in the Euler tables (documented
# in illposed.ode); the plain Euler oracle ends its table there too.
ESCAPE = 1e300
# Relative accuracy demanded of cooling fits: far looser than double
# rounding, far tighter than any error that would change a diagnosis.
FIT_REL = 1e-9


class Wrong(Exception):
    """An output disagrees with its oracle."""


class NoAnswer(Exception):
    """The program returned no valid answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def close(value: float, exact: float, tol: float, what: str) -> None:
    expect(abs(value - exact) <= tol, f"{what}: got {value!r}, expected {exact!r} within {tol:.3g}")


# --- output formats ----------------------------------------------------------


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity as the standard does."""

    def reject(token: str):
        raise NoAnswer(f"non-standard JSON constant {token}")

    try:
        return json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as err:
        raise NoAnswer(f"invalid JSON: {err}") from None


def csv_table(text: str) -> tuple[list[str], list[list[str]], dict[str, str]]:
    """Header, rows and `# key=value` comments of a CSV body.

    Every row must have as many cells as the header.
    """
    comments: dict[str, str] = {}
    body: list[str] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            comments[key.strip()] = value.strip()
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    if not rows:
        raise NoAnswer("CSV output has no header")
    header, data = rows[0], rows[1:]
    for row in data:
        if len(row) != len(header):
            raise NoAnswer(f"CSV row {row!r} does not match header {header!r}")
    return header, data, comments


def number(cell) -> float:
    """A finite float from a CSV cell or JSON value."""
    try:
        value = float(cell)
    except (TypeError, ValueError):
        raise NoAnswer(f"not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise NoAnswer(f"non-finite number: {cell!r}")
    return value


# --- ODE -------------------------------------------------------------------


def euler_table(f: Callable[[float, float], float], x0: float, y0: float, h: float, n: int):
    """Plain forward Euler y <- y + f(x, y)*h on the grid x0 + k*h.

    Returns (points, escaped).  The table ends early, escaped, when f
    leaves the doubles or y does, or |y| reaches ESCAPE; a finite y
    past ESCAPE is still recorded.
    """
    points = [(x0, y0)]
    y = y0
    for k in range(n):
        try:
            y = y + f(x0 + k * h, y) * h
        except (OverflowError, ZeroDivisionError, ValueError):
            return points, True
        if not math.isfinite(y):
            return points, True
        points.append((x0 + (k + 1) * h, y))
        if abs(y) >= ESCAPE:
            return points, True
    return points, False


def check_euler_csv(text: str, f, x0: float, y0: float, h: float, n: int) -> int:
    """A trajectory CSV must equal the plain Euler table bit for bit."""
    header, rows, _ = csv_table(text)
    expect(header == ["n", "x_n", "y_n"], f"trajectory header {header!r}")
    points, _ = euler_table(f, x0, y0, h, n)
    expect(len(rows) == len(points), f"trajectory has {len(rows)} rows, Euler gives {len(points)}")
    for k, ((cell_k, cell_x, cell_y), (x, y)) in enumerate(zip(rows, points)):
        if int(cell_k) != k or number(cell_x) != x or number(cell_y) != y:
            raise Wrong(f"row {cell_k}: ({cell_x}, {cell_y}) != Euler step {k} ({x!r}, {y!r})")
    return len(rows)


def check_variability(text: str, f, x0: float, y0: float, target: float, steps: Iterable[float]) -> None:
    header, rows, _ = csv_table(text)
    expect(header == ["h", "y_at_target", "escaped"], f"variability header {header!r}")
    steps = list(steps)
    expect(len(rows) == len(steps), "one variability row per step size")
    for (cell_h, cell_y, cell_escaped), h in zip(rows, steps):
        expect(number(cell_h) == h, f"row for h={h!r} reads h={cell_h}")
        n = round((target - x0) / h)
        points, escaped = euler_table(f, x0, y0, h, n)
        if escaped:
            expect(cell_escaped == "true" and cell_y == "", f"h={h!r}: Euler escapes, row reads {cell_y!r}")
        else:
            expect(cell_escaped == "false", f"h={h!r}: Euler reaches the target, row says escaped")
            expect(number(cell_y) == points[-1][1], f"h={h!r}: y={cell_y}, Euler gives {points[-1][1]!r}")


def bounded_solution(x: float, y0: float) -> float:
    """Exact solution of y' = -y + sin x, y(0) = y0."""
    return (y0 + 0.5) * math.exp(-x) + 0.5 * (math.sin(x) - math.cos(x))


def bounded_euler_tol(h: float, y0: float) -> float:
    """Global Euler error bound for y' = -y + sin x.

    The problem is dissipative (df/dy = -1), so the error obeys
    e <- (1 - h) e + h^2 max|y''| / 2 and stays below h max|y''| / 2,
    with |y''| <= |y0 + 1/2| + sqrt(2)/2.  Twice that leaves room for
    rounding.
    """
    return h * (abs(y0 + 0.5) + math.sqrt(0.5))


def check_trajectory(text: str, exact, x0: float, h: float, n: int, tol: float) -> int:
    """A trajectory CSV on the grid x0 + k*h against an exact solution."""
    header, rows, _ = csv_table(text)
    expect(header == ["n", "x_n", "y_n"], f"trajectory header {header!r}")
    expect(len(rows) == n + 1, f"trajectory has {len(rows)} rows, expected {n + 1}")
    for k, (_, cell_x, cell_y) in enumerate(rows):
        x, y = float(cell_x), float(cell_y)
        if x != x0 + k * h or not abs(y - exact(x)) <= tol:  # NaN fails too
            expect(number(cell_x) == x0 + k * h, f"row {k}: x={cell_x} is not the grid point {x0 + k * h!r}")
            close(number(cell_y), exact(x), tol, f"y at x={x!r}")
    return len(rows)


def check_blowup_json(text: str, pole: float, crossing: float) -> None:
    """A blow-up report must bracket the known pole.

    For y' = g(y) with g positive, increasing and convex the solution is
    convex, so Euler runs below it and cannot reach the threshold before
    the exact solution does, at `crossing`.
    """
    report = strict_json(text)
    expect(report["verdict"] == "BlowupDetected", f"verdict {report['verdict']!r}, expected BlowupDetected")
    low, high = (number(v) for v in report["bracket"])
    expect(low < pole < high, f"bracket [{low!r}, {high!r}] misses the pole {pole!r}")
    for row in report["evidence"]:
        expect(number(row["crossing_x"]) >= crossing, f"Euler crossing {row['crossing_x']!r} precedes the exact {crossing!r}")


def check_bounded_json(text: str, y0: float, x_max: float, h0: float, levels: int) -> None:
    """A bounded report's evidence rows must match the closed form at O(h)."""
    report = strict_json(text)
    expect(report["verdict"] == "BoundedOnInterval", f"verdict {report['verdict']!r}, expected BoundedOnInterval")
    rows = report["evidence"]
    expect(len(rows) == levels, f"{len(rows)} evidence rows for {levels} levels")
    for level, row in enumerate(rows):
        h = h0 / 2.0**level
        expect(number(row["h"]) == h and row["crossing_x"] is None, f"evidence row {level}: {row!r}")
        n = math.floor(x_max / h + 1e-9)
        close(number(row["y_at_target"]), bounded_solution(n * h, y0), bounded_euler_tol(h, y0), f"y at x={n * h!r}")
    h = h0 / 2.0 ** (levels - 1)
    n = math.floor(x_max / h + 1e-9)
    expect(number(report["x_end"]) == n * h, f"x_end {report['x_end']!r}, finest grid ends at {n * h!r}")
    peak = max(abs(bounded_solution(k * h, y0)) for k in range(n + 1))
    close(number(report["max_abs_y"]), peak, bounded_euler_tol(h, y0), "max |y| on the finest grid")


# --- cooling ---------------------------------------------------------------


def _exact(*values: float) -> list[Fraction]:
    return [Fraction(v) for v in values]


def exact_fit(t1: float, T0: float, T1: float, T2: float, floor: float = ABSOLUTE_ZERO_C):
    """(T_M, k, verdict) of the three-point fit, exactly.

    T_M is a Fraction and k a float from the exact decay ratio; both
    are None where no fit exists.
    """
    f0, f1, f2 = _exact(T0, T1, T2)
    if not f0 > f1 > f2:
        return None, None, "NonMonotoneData"
    d = 2 * f1 - f0 - f2
    if d == 0:
        return None, None, "ColinearDegenerate"
    tm = (f1 * f1 - f0 * f2) / d
    ratio = (f1 - tm) / (f0 - tm)
    k = math.log(ratio.numerator) - math.log(ratio.denominator)
    if tm < Fraction(floor):
        verdict = "BelowAbsoluteZero"
    elif ratio >= 1:
        verdict = "SignContradiction"
    else:
        verdict = "Feasible"
    return tm, k / t1, verdict


def check_fit(T_M, k, verdict: str, t1: float, T0: float, T1: float, T2: float, floor: float = ABSOLUTE_ZERO_C) -> None:
    tm_exact, k_exact, verdict_exact = exact_fit(t1, T0, T1, T2, floor)
    expect(verdict == verdict_exact, f"({T0!r}, {T1!r}, {T2!r}): verdict {verdict!r}, exact {verdict_exact!r}")
    if tm_exact is None:
        expect(T_M is None and k is None, f"({T0!r}, {T1!r}, {T2!r}) has no fit, got T_M={T_M!r}")
        return
    scale = max(1.0, abs(float(tm_exact)), abs(T0))
    close(number(T_M), float(tm_exact), FIT_REL * scale, f"T_M of ({T0!r}, {T1!r}, {T2!r})")
    close(number(k), k_exact, FIT_REL * max(1.0, abs(k_exact)), f"k of ({T0!r}, {T1!r}, {T2!r})")


def check_fit_json(text: str, t1: float, T0: float, T1: float, T2: float, floor: float = ABSOLUTE_ZERO_C) -> None:
    payload = strict_json(text)
    check_fit(payload["T_M"], payload["k"], payload["verdict"], t1, T0, T1, T2, floor)
    if payload["residuals"] is not None:
        for r in payload["residuals"]:
            close(number(r), 0.0, FIT_REL * max(abs(T0), abs(number(payload["T_M"]))), "fit residual")


def midpoint_gap(c: Fraction, T0: Fraction, T2: Fraction, floor: Fraction) -> Fraction | None:
    """Exact T_M(c) - floor for midpoint reading c; None at the pole."""
    d = 2 * c - T0 - T2
    if d == 0:
        return None
    return (c * c - T0 * T2) / d - floor


def check_range(c_low: float, c_high: float, T0: float, T2: float, floor: float, tol: float = 1e-6) -> None:
    """c_high must sit within the bisection tolerance of the exact root.

    T_M(c) falls monotonically from T2 to -infinity on (T2, mid), so the
    exact root lies in [c_high - tol, c_high + tol] exactly when the gap
    is positive at the left end and negative (or past the pole) at the
    right end.
    """
    f0, f2, fl = _exact(T0, T2, floor)
    mid = (f0 + f2) / 2
    expect(number(c_low) == T2, f"c_low {c_low!r} is not T2={T2!r}")
    high = Fraction(number(c_high))
    expect(f2 < high < mid, f"c_high {c_high!r} outside (T2, midpoint)")
    left = midpoint_gap(high - Fraction(tol), f0, f2, fl)
    right_c = high + Fraction(tol)
    right = midpoint_gap(right_c, f0, f2, fl) if right_c < mid else None
    expect(left is not None and left > 0, f"T_M(c_high - tol) is already below the floor for ({T0!r}, {T2!r})")
    expect(right is None or right < 0, f"T_M(c_high + tol) is still above the floor for ({T0!r}, {T2!r})")


def check_sweep_csv(text: str, T0: float, T2: float, n: int, floor: float, t1: float) -> int:
    header, rows, _ = csv_table(text)
    expect(header == ["c", "T_M", "k", "verdict"], f"sweep header {header!r}")
    expect(len(rows) == n, f"sweep has {len(rows)} rows, expected {n}")
    previous = T2
    for cell_c, cell_tm, cell_k, verdict in rows:
        c = number(cell_c)
        expect(previous < c < 0.5 * (T0 + T2), f"sweep reading {c!r} out of order or range")
        previous = c
        check_fit(cell_tm, cell_k, verdict, t1, T0, c, T2, floor)
    return len(rows)


# --- recurrence --------------------------------------------------------------


def exact_term(a: float, b: float, n: int) -> Fraction:
    """x_n of x_{n+2} = (x_{n+1} + x_n)/2 from the characteristic roots 1 and -1/2."""
    fa, fb = Fraction(a), Fraction(b)
    return (fa + 2 * fb) / 3 + Fraction(2, 3) * (fa - fb) * Fraction(-1, 2) ** n


def check_terms(values: list[float], a: float, b: float) -> None:
    """Iterated terms against the exact closed form.

    Each averaging step rounds once, by at most eps/2 of max(|a|, |b|),
    and averaging never amplifies an earlier error, so term n is off by
    at most n*eps*max(|a|, |b|)/2; the check allows twice that.
    """
    scale = max(abs(a), abs(b))
    fa, fb = Fraction(a), Fraction(b)
    limit = (fa + 2 * fb) / 3
    tail = Fraction(2, 3) * (fa - fb)
    power = Fraction(1)
    for n, v in enumerate(values):
        exact = limit + tail * power
        close(number(v), float(exact), (n + 1) * EPS * scale, f"x_{n}")
        power *= Fraction(-1, 2)


def check_closed_form(value: float, a: float, b: float, n: int) -> None:
    scale = abs(a) + 2 * abs(b) + abs(a - b)
    close(number(value), float(exact_term(a, b, n)), 8 * EPS * scale, f"closed form x_{n}")


def check_limit(value: float, settle: int, values: list[float], a: float, b: float, tol: float) -> None:
    """The detected limit lies within tol of (a + 2b)/3.

    Past the settling index successive differences are below tol, and
    for this recurrence |x_n - limit| is a third of the last difference.
    The index itself must be where the sub-tol run starts.
    """
    close(number(value), float((Fraction(a) + 2 * Fraction(b)) / 3), tol, "detected limit")
    diffs = [abs(q - p) for p, q in zip(values, values[1:])]
    expect(all(d < tol for d in diffs[settle:]), f"difference at or past index {settle} exceeds tol")
    expect(settle == 0 or diffs[settle - 1] >= tol, f"the sub-tol run starts before index {settle}")


def check_sequence_csv(text: str, a: float, b: float, n: int, tol: float) -> None:
    header, rows, comments = csv_table(text)
    expect(header == ["n", "x_n"], f"sequence header {header!r}")
    expect([int(r[0]) for r in rows] == list(range(n + 1)), "sequence rows are not numbered 0..n")
    values = [number(r[1]) for r in rows]
    check_terms(values, a, b)
    expect("limit" in comments and "settled_at" in comments, f"no settled limit comment in {comments!r}")
    check_limit(number(comments["limit"]), int(comments["settled_at"]), values, a, b, tol)


# --- limits ------------------------------------------------------------------


def level_curve_tol(a: float, t_last: float) -> float:
    """Rounding bound on x*y/(x+y) along its level curve a at t = t_last.

    x + y is of order t^2/a while x and y are of order t, so one
    evaluation loses about a^2*eps/t; four times that is allowed.
    """
    return 4.0 * max(1.0, a * a) * EPS / t_last


def check_line_limit(status: str, value, slope: float, t_last: float) -> None:
    """x*y/(x+y) on y = slope*x equals slope/(1+slope)*t, which tends to 0."""
    expect(status == "Converged", f"line y={slope!r}x: status {status!r}")
    expect(abs(number(value)) <= 2.0 * abs(slope / (1.0 + slope)) * t_last + EPS, f"line y={slope!r}x: limit {value!r} is not 0")


def check_level_limit(status: str, value, a: float, t_last: float) -> None:
    expect(status == "Converged", f"level curve a={a!r}: status {status!r}")
    close(number(value), a, level_curve_tol(a, t_last), f"limit on level curve a={a!r}")


def quadratic_ratio_limits(p: float, q: float, r: float) -> dict[str, float]:
    """Limits of (p*x^2 + q*x*y + r*y^2)/(x^2 + y^2) along the default path set.

    The function is constant on rays; y = x^2 and y = 0 leave along the
    x axis, y = sqrt(t) and x = 0 along the y axis.
    """
    return {
        "y=x": 0.5 * (p + q + r),
        "y=-x": 0.5 * (p - q + r),
        "y=x^2": p,
        "y=sqrt(t)": r,
        "y=0": p,
        "x=0": r,
    }


def check_limit_report(payload: dict, limits: dict[str, float], tol: float) -> None:
    """Converged paths must match their known limits; the verdict follows.

    Two known limits further apart than the program's agreement
    tolerance (1e-4) make the limit not exist.
    """
    converged = []
    for path in payload["paths"]:
        label = path["label"]
        expect(label in limits, f"unexpected path {label!r}")
        if path["status"] == "Converged":
            close(number(path["value"]), limits[label], tol, f"limit along {label!r}")
            converged.append(limits[label])
    spread = max(converged) - min(converged) if converged else 0.0
    if spread > 1e-4:
        expect(payload["verdict"] == "DoesNotExist", f"verdict {payload['verdict']!r}, paths disagree by {spread:.3g}")
        low, high = (number(w["limit"]) for w in payload["witnesses"])
        close(low, min(converged), tol, "lower witness")
        close(high, max(converged), tol, "upper witness")


# --- dense scans -------------------------------------------------------------


def polar_from_csv(text: str) -> tuple[list[tuple[float, float]], bool]:
    """(rows of r and max |f|, bounded flag) from polar-scan CSV; max |f| may be inf."""
    header, rows, comments = csv_table(text)
    expect(header == ["r", "max_abs_f"], f"polar header {header!r}")
    expect(comments.get("bounded") in ("true", "false"), f"no bounded flag in {comments!r}")
    return [(number(r), float(worst)) for r, worst in rows], comments["bounded"] == "true"


def check_polar_rows(rows, bounded: bool, f, n_angles: int, bound: float, samples: Iterable[int]) -> None:
    """A bounded scan: M(r)/r at most `bound` and M(r) at least |f| at sampled grid angles."""
    expect(bounded, "scan of a function with M(r)/r <= bound reports unbounded")
    cell = 2.0 * math.pi / n_angles
    samples = list(samples)
    for r, worst in rows:
        expect(number(worst) / r <= bound, f"M({r!r})/r = {worst / r!r} exceeds {bound!r}")
        floor = max(abs(f(r * math.cos((i + 0.5) * cell), r * math.sin((i + 0.5) * cell))) for i in samples)
        expect(worst >= floor * (1.0 - 1e-12), f"M({r!r}) = {worst!r} is below |f| = {floor!r} at a sampled angle")


def check_polar_unbounded(rows, bounded: bool, f, n_angles: int, pole_angle: float, cap: float) -> None:
    """A pole line at `pole_angle`: the grid angle nearest it gives M(r), and |f|/r >= cap there.

    |f| grows like 1/distance to the pole line, so no other grid angle
    comes close; the two lanes differ by the cancellation in the
    denominator, about eps*r/|x+y|, far below 1e-6.
    """
    expect(not bounded, "scan across a pole line reports bounded")
    cell = 2.0 * math.pi / n_angles
    i = round(pole_angle / cell - 0.5)
    theta = (i + 0.5) * cell
    for r, worst in rows:
        try:
            near = abs(f(r * math.cos(theta), r * math.sin(theta)))
        except ZeroDivisionError:
            near = math.inf
        expect(near / r >= cap, f"|f|/r = {near / r!r} next to the pole line does not reach the cap {cap!r}")
        close(worst, near, 1e-6 * near, f"M({r!r}), |f| next to the pole line")


class ImplicitGrid:
    """The scan lattice of implicit_zero_scan with corner values from a scalar function.

    Lattice points are -R + i*(2R/(n-1)), the last pinned to R, as numpy's
    linspace places them.  A corner where f raises or is not finite is
    None.
    """

    def __init__(self, f, R: float, n: int):
        self.f, self.R, self.n = f, R, n
        self.step = 2.0 * R / (n - 1)
        self.xs = [-R + i * self.step for i in range(n - 1)] + [R]
        self._values: dict[tuple[int, int], float | None] = {}

    def value(self, i: int, j: int) -> float | None:
        key = (i, j)
        if key not in self._values:
            try:
                v = self.f(self.xs[i], self.xs[j])
            except (OverflowError, ZeroDivisionError, ValueError):
                v = None
            self._values[key] = v if v is not None and math.isfinite(v) else None
        return self._values[key]

    def index(self, centre: float) -> int:
        i = round((centre + self.R) / self.step - 0.5)
        if not (0 <= i < self.n - 1 and abs(0.5 * (self.xs[i] + self.xs[i + 1]) - centre) <= 1e-12 * self.R):
            raise Wrong(f"{centre!r} is not a cell centre")
        return i

    def decide(self, i: int, j: int) -> bool | None:
        """Whether cell (i, j) should be flagged.

        None when a corner lies so close to 0 that the array lane (numpy,
        possibly SIMD) and this scalar lane may disagree on its sign or
        on the scan's |F| < 1e-14 test: the lanes differ by a few ulps of
        the O(1) terms, far below the 1e-12 slack.
        """
        xs = self.xs
        if xs[i] <= 0.0 <= xs[i + 1] and xs[j] <= 0.0 <= xs[j + 1]:
            return False
        cx, cy = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (xs[j] + xs[j + 1])
        if cx * cx + cy * cy > self.R * self.R:
            return False
        corners = [self.value(i + di, j + dj) for di in (0, 1) for dj in (0, 1)]
        if any(c is None for c in corners):
            return False
        slack = 1e-12 * max(1.0, *(abs(c) for c in corners))
        if any(abs(c) <= slack for c in corners):
            return None
        return min(corners) < 0.0 < max(corners)


def check_implicit_cells(cells, f, R: float, n: int, samples: Iterable[tuple[int, int]]) -> None:
    """Flagged cells against a scalar re-evaluation of their corners.

    Every flagged cell must show the sign change.  No sampled cell, nor
    any edge-neighbour of every len/256-th flagged cell, may be missing
    when its corners show one.
    """
    grid = ImplicitGrid(f, R, n)
    flagged = {(grid.index(cx), grid.index(cy)) for cx, cy in cells}
    expect(len(flagged) == len(cells), "a cell is listed twice")
    expect(list(cells) == sorted(cells), "cells are not sorted by x then y")
    for i, j in flagged:
        if grid.decide(i, j) is False:
            raise Wrong(f"cell at ({grid.xs[i]!r}, {grid.xs[j]!r}) has no sign change")
    # a zero curve leaves a cell through an edge, so the cells it runs
    # on next share an edge with a flagged one
    spaced = sorted(flagged)[:: max(1, len(flagged) // 256)]
    nearby = {(i + di, j + dj) for i, j in spaced for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1))}
    for i, j in (nearby | set(samples)) - flagged:
        if 0 <= i < n - 1 and 0 <= j < n - 1 and grid.decide(i, j) is True:
            raise Wrong(f"cell at ({grid.xs[i]!r}, {grid.xs[j]!r}) changes sign but is missing")


def check_circle_cells(cells, centre: tuple[float, float], radius: float, R: float, n: int) -> None:
    """Cells flagged on a circle lie within one cell diagonal of it."""
    expect(len(cells) > 0, f"no cells flagged on the circle of radius {radius!r}")
    diagonal = math.sqrt(2.0) * 2.0 * R / (n - 1)
    for x, y in cells:
        if not abs(math.hypot(x - centre[0], y - centre[1]) - radius) <= diagonal:
            raise Wrong(f"cell ({x!r}, {y!r}) is off the circle r={radius!r} about {centre!r}")


def check_cells_csv(text: str, cells) -> None:
    header, rows, _ = csv_table(text)
    expect(header == ["cell_x", "cell_y"], f"cell header {header!r}")
    expect([(number(x), number(y)) for x, y in rows] == [tuple(c) for c in cells], "cell CSV differs from the scan")
