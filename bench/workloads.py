"""The four seeded workloads: their inputs, one round of operations, and the checks.

A round is a fixed list of operations; every round of a workload does
the same amount of work, whatever the seed, so run-to-run figures
compare.  The seed chooses values (initial points, coefficients,
readings, the order of CLI commands), never sizes.  Each operation is
checked against an oracle from `oracles`, outside its timing.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import illposed as ip
import illposed.cli
from illposed.blowup import report_json
from illposed.cooling import fit_json, sweep_csv
from illposed.limits import implicit_csv, limit_report_json, polar_csv
from illposed.ode import trajectory_csv, variability_csv

import oracles as o

SRC = Path(__file__).resolve().parents[1] / "src"

# Inputs are drawn once per run as this many round variants; round r
# uses variant r % VARIANTS.
VARIANTS = 8

FULL = {
    "levels": 8,
    "euler_steps": 50_000,
    "rk4_steps": 5_000,
    # The saddle's M(r)/r near its pole line is about n_angles/8.9, so
    # 10M angles clear the 1e6 cap of angular_bound_scan.
    "saddle_angles": 10_000_000,
    "saddle_cap": 1e6,
    "cubic_angles": 1_000_000,
    "grid": 1000,
    "coarse_grid": 800,
    "terms": 1000,
    "sweep": 50,
    "scalar_calls": 200_000,
    "array_points": 1_000_000,
}
# The smoke test's sizes; the saddle cap shrinks with the angle count.
TINY = {
    "levels": 3,
    "euler_steps": 500,
    "rk4_steps": 200,
    "saddle_angles": 40_000,
    "saddle_cap": 1e3,
    "cubic_angles": 2_000,
    "grid": 120,
    "coarse_grid": 100,
    "terms": 200,
    "sweep": 10,
    "scalar_calls": 1_000,
    "array_points": 1_000,
}

T_LAST = ip.limits.DEFAULT_SCHEDULE[-1]
ANGULAR_CAP = ip.limits.ANGULAR_CAP


def _u(rng: random.Random, low: float, high: float) -> float:
    """A seeded value with four decimals, so the expression text is exact."""
    return round(rng.uniform(low, high), 4)


def _cells(rng: random.Random, grid: int, count: int = 64) -> list[tuple[int, int]]:
    return [(rng.randrange(grid - 1), rng.randrange(grid - 1)) for _ in range(count)]


# --- cli_session ---------------------------------------------------------------

# The README's command lines, the subcommand each times, and the file
# that its second run writes with --out (None: no second run).
README = (
    ("euler", "euler --rhs y^2+1 --x0 0 --y0 0 --h 0.2 --steps 10", None),
    ("euler", "euler --rhs y^2+1 --x0 0 --y0 0 --h 0.05 --steps 20 --method rk4", None),
    ("variability", "variability --rhs y^2+1 --x0 0 --y0 0 --target 2 --h 0.4,0.2,0.1", None),
    ("blowup", "blowup --rhs y^2+1 --x0 0 --y0 0 --xmax 2 --threshold 1e8 --h0 0.01 --levels 8", "blowup.json"),
    ("cooling-fit", "cooling fit --t1 0.5 --temps 40,36,30", None),
    ("cooling-range", "cooling range --temps 40,30 --floor -273.15 --sweep 20", "range.json"),
    ("recurrence", "recurrence --a 0 --b 1 --n 40 --tol 1e-10", None),
    ("limit", "limit --f x*y/(x+y) --trajectory t,t --level-curve 1 --level-curve 3", "limit.json"),
    ("limit", "limit --f x*y/(x^2+y^2)", None),
    ("polar-scan", "polar-scan --f (x^3+y^3)/(x^2+y^2)", None),
    ("implicit-scan", "implicit-scan --f x^3+y^3-x^2-y^2 --radius 0.5 --grid 400", "implicit.csv"),
)
SUBCOMMANDS = tuple(dict.fromkeys(label for label, _, _ in README))


def _tan_rhs(x, y):
    return y**2.0 + 1.0


def _readme_checks(sample_cells):
    """One oracle per README command, taking (output text, work directory)."""

    def euler(text, _):
        o.check_euler_csv(text, _tan_rhs, 0.0, 0.0, 0.2, 10)

    def rk4(text, _):
        o.check_trajectory(text, math.tan, 0.0, 0.05, 20, 0.05**4)

    def variability(text, _):
        o.check_variability(text, _tan_rhs, 0.0, 0.0, 2.0, (0.4, 0.2, 0.1))

    def blowup(text, _):
        o.check_blowup_json(text, math.pi / 2, math.atan(1e8))

    def cooling_fit(text, _):
        o.check_fit_json(text, 0.5, 40.0, 36.0, 30.0)

    def cooling_range(text, workdir):
        payload = o.strict_json(text)
        o.check_range(payload["c_low"], payload["c_high"], 40.0, 30.0, -273.15)
        o.check_sweep_csv((workdir / "sweep.csv").read_text(), 40.0, 30.0, 20, -273.15, 0.5)

    def recurrence(text, _):
        o.check_sequence_csv(text, 0.0, 1.0, 40, 1e-10)

    def saddle_limit(text, _):
        limits = {"x=t, y=t": 0.0, "level curve a=1": 1.0, "level curve a=3": 3.0}
        o.check_limit_report(o.strict_json(text), limits, o.level_curve_tol(3.0, T_LAST))

    def default_limit(text, _):
        o.check_limit_report(o.strict_json(text), o.quadratic_ratio_limits(0.0, 1.0, 0.0), 1e-6)

    def polar(text, _):
        rows, bounded = o.polar_from_csv(text)
        f = lambda x, y: (x**3.0 + y**3.0) / (x**2.0 + y**2.0)  # noqa: E731
        o.check_polar_rows(rows, bounded, f, 720, math.sqrt(2.0), range(720))

    def implicit(text, _):
        header, rows, _ = o.csv_table(text)
        cells = [(o.number(x), o.number(y)) for x, y in rows]
        F = lambda x, y: x**3.0 + y**3.0 - x**2.0 - y**2.0  # noqa: E731
        o.check_implicit_cells(cells, F, 0.5, 400, sample_cells)

    return (euler, rk4, variability, blowup, cooling_fit, cooling_range, recurrence,
            saddle_limit, default_limit, polar, implicit)


def cli_inputs(rng, sizes):
    """A seeded order of the session: every README command writing to
    stdout, and the four that write files once more with --out."""
    order = [(i, False) for i in range(len(README))] + [(i, True) for i, (*_, out) in enumerate(README) if out]
    rng.shuffle(order)
    return {"order": order, "cells": _cells(rng, 400)}


def cli_argv(index: int, to_file: bool, workdir: Path) -> list[str]:
    argv = README[index][1].split()
    if to_file:
        argv += ["--out", str(workdir / README[index][2])]
    if argv[:2] == ["cooling", "range"]:
        argv += ["--sweep-out", str(workdir / "sweep.csv")]
    return argv


def cli_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def _cli_process(argv, workdir: Path, env) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "illposed", *argv],
        cwd=workdir,
        env=env,
        capture_output=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout.decode()


def _session_checker(v, workdir: Path):
    """Check one invocation's output by its oracle, and against the other
    run of the same command: identical invocations give identical bytes."""
    checks = _readme_checks(v["cells"])
    seen: dict[int, str] = {}

    def check(index: int, to_file: bool, stdout: str) -> None:
        text = stdout
        if to_file:
            o.expect(stdout == "", f"{README[index][1]!r} with --out also wrote to stdout")
            text = (workdir / README[index][2]).read_text()
        checks[index](text, workdir)
        o.expect(seen.setdefault(index, text) == text, f"{README[index][1]!r} wrote different bytes to stdout and --out")

    return check


def _clear(workdir: Path) -> None:
    for _, _, out in README:
        if out:
            (workdir / out).unlink(missing_ok=True)
    (workdir / "sweep.csv").unlink(missing_ok=True)


def cli_round(v, ops, workdir: Path) -> None:
    """Each command of the session as a fresh `python -m illposed` process."""
    env = cli_env()
    check = _session_checker(v, workdir)
    for index, to_file in v["order"]:
        label = README[index][0]
        argv = cli_argv(index, to_file, workdir)
        _clear(workdir)
        ops.op(
            label,
            lambda: ops.tracer.call("cli." + label, _cli_process, argv, workdir, env),
            lambda stdout: check(index, to_file, stdout),
        )


def cli_in_process(v, ops, workdir: Path) -> None:
    """The same session through `illposed.cli.run` inside this process."""
    check = _session_checker(v, workdir)
    for index, to_file in v["order"]:
        argv = cli_argv(index, to_file, workdir)
        _clear(workdir)

        def invoke():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = illposed.cli.run(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            return buffer.getvalue()

        ops.op(README[index][0], invoke, lambda stdout: check(index, to_file, stdout))


# --- ode_blowup --------------------------------------------------------------

BOUNDED_RHS = "-y+sin(x)"
VARIABILITY_STEPS = (0.4, 0.2, 0.1, 0.05, 0.025, 0.0125)
BOUNDED_STEPS = (0.5, 0.25, 0.125, 0.0625)


def ode_inputs(rng, sizes):
    return {
        "x_tan": _u(rng, -1.0, 1.0),
        "x_sq": _u(rng, -1.0, 1.0),
        "y_bounded": _u(rng, 0.5, 1.5),
        "x_var": _u(rng, -1.0, 1.0),
        "y_var": _u(rng, -2.0, 2.0),
        **sizes,
    }


def _blowup_text(tr, rhs: str, x0: float, y0: float, x_max: float, levels: int) -> str:
    ivp = ip.IVP(tr.call("expr.parse", ip.parse, rhs), x0, y0)
    report = tr.call("blowup.estimate_blowup", ip.estimate_blowup, ivp, x_max, 1e8, 0.01, levels)
    return tr.call("render.report_json", report_json, report)


def _trajectory_text(tr, integrate: str, rhs: str, y0: float, h: float, n: int) -> str:
    ivp = ip.IVP(tr.call("expr.parse", ip.parse, rhs), 0.0, y0)
    trajectory = tr.call("ode." + integrate, getattr(ip, integrate), ivp, h, n, work=lambda t: len(t.points))
    return tr.call("render.trajectory_csv", trajectory_csv, trajectory, work=lambda text: text.count("\n") - 1)


def _variability_text(tr, rhs: str, x0: float, y0: float, target: float, steps) -> str:
    ivp = ip.IVP(tr.call("expr.parse", ip.parse, rhs), x0, y0)
    rows = tr.call("ode.variability_table", ip.variability_table, ivp, target, list(steps))
    return tr.call("render.variability_csv", variability_csv, rows)


def ode_round(v, ops, workdir=None) -> None:
    """Refinement studies, long trajectories and step-size tables."""
    tr = ops.tracer
    levels, x_tan, x_sq, y_b = v["levels"], v["x_tan"], v["x_sq"], v["y_bounded"]
    ops.op(
        "blowup_tan",
        lambda: _blowup_text(tr, "y^2+1", x_tan, 0.0, x_tan + 2.0, levels),
        lambda text: o.check_blowup_json(text, x_tan + math.pi / 2, x_tan + math.atan(1e8)),
    )
    ops.op(
        "blowup_square",
        lambda: _blowup_text(tr, "y^2", x_sq, 1.0, x_sq + 2.0, levels),
        lambda text: o.check_blowup_json(text, x_sq + 1.0, x_sq + 1.0 - 1e-8),
    )
    ops.op(
        "blowup_bounded",
        lambda: _blowup_text(tr, BOUNDED_RHS, 0.0, y_b, 2.0, levels),
        lambda text: o.check_bounded_json(text, y_b, 2.0, 0.01, levels),
    )
    exact = lambda x: o.bounded_solution(x, y_b)  # noqa: E731
    n_euler, n_rk4 = v["euler_steps"], v["rk4_steps"]
    ops.op(
        "euler",
        lambda: _trajectory_text(tr, "integrate_euler", BOUNDED_RHS, y_b, 1e-3, n_euler),
        lambda text: o.check_trajectory(text, exact, 0.0, 1e-3, n_euler, o.bounded_euler_tol(1e-3, y_b)),
    )
    ops.op(
        "rk4",
        lambda: _trajectory_text(tr, "integrate_rk4", BOUNDED_RHS, y_b, 1e-2, n_rk4),
        lambda text: o.check_trajectory(text, exact, 0.0, 1e-2, n_rk4, 1e-2**4),
    )
    x_var, y_var = v["x_var"], v["y_var"]
    ops.op(
        "variability_tan",
        lambda: _variability_text(tr, "y^2+1", x_var, 0.0, x_var + 2.0, VARIABILITY_STEPS),
        lambda text: o.check_variability(text, _tan_rhs, x_var, 0.0, x_var + 2.0, VARIABILITY_STEPS),
    )
    ops.op(
        "variability_bounded",
        lambda: _variability_text(tr, BOUNDED_RHS, 0.0, y_var, 4.0, BOUNDED_STEPS),
        lambda text: o.check_variability(text, lambda x, y: -y + math.sin(x), 0.0, y_var, 4.0, BOUNDED_STEPS),
    )


# --- dense_scans ---------------------------------------------------------------


def dense_inputs(rng, sizes):
    s, c, k = _u(rng, 1.0, 2.0), _u(rng, -1.0, 1.0), _u(rng, 1.0, 5.0)
    cx, cy, a = _u(rng, -0.2, 0.2), _u(rng, -0.2, 0.2), _u(rng, 0.9, 1.1)
    b, lc, q, e = _u(rng, 0.65, 0.75), _u(rng, 0.0, 0.3), _u(rng, 0.4, 0.6), _u(rng, 0.3, 0.9)
    grid, coarse, fine = sizes["grid"], sizes["coarse_grid"], 2 * sizes["grid"]
    # (text, scalar twin for the oracle, scan radius, grid, circle centre
    # and radius or None).  The seed moves curves but keeps their length,
    # and so the flagged-cell count, nearly fixed.
    implicit = [
        (f"(x-{cx!r})^2+(y-{cy!r})^2-0.36", lambda x, y: (x - cx) ** 2.0 + (y - cy) ** 2.0 - 0.36, 1.0, grid,
         ((cx, cy), 0.6)),
        (f"x^3+y^3-{a!r}*x^2-{a!r}*y^2", lambda x, y: x**3.0 + y**3.0 - a * x**2.0 - a * y**2.0, 1.5, coarse, None),
        (f"ln(x+{b!r})+y^2-{lc!r}", lambda x, y: math.log(x + b) + y**2.0 - lc, 1.0, grid, None),
        (f"exp(x)*cos(2*y)-{e!r}", lambda x, y: math.exp(x) * math.cos(2.0 * y) - e, 1.0, grid, None),
        (f"sqrt(1-x^2-y^2)-{q!r}", lambda x, y: math.sqrt(1.0 - x**2.0 - y**2.0) - q, 1.2, fine,
         ((0.0, 0.0), math.sqrt(1.0 - q * q))),
    ]
    return {
        "saddle": (f"{s!r}*x*y/(x+y)", lambda x, y: s * x * y / (x + y)),
        "cubic": (
            f"(x^3+{c!r}*y^3)/(x^2+y^2)*cos({k!r}*x)",
            lambda x, y: (x**3.0 + c * y**3.0) / (x**2.0 + y**2.0) * math.cos(k * x),
        ),
        "angles": [rng.randrange(sizes["cubic_angles"]) for _ in range(64)],
        "implicit": implicit,
        "cells": {n: _cells(rng, n) for n in (grid, coarse, fine)},
        **sizes,
    }


def _polar_text(tr, text: str, radii, n_angles: int, cap: float) -> str:
    f = tr.call("expr.parse", ip.parse, text)
    scan = tr.call("limits.angular_bound_scan", ip.angular_bound_scan, f, radii, n_angles, cap,
                   work=lambda s: s.n_angles * len(s.rows))
    return tr.call("render.polar_csv", polar_csv, scan)


def _implicit_text(tr, text: str, R: float, grid: int) -> tuple[list, str]:
    F = tr.call("expr.parse", ip.parse, text)
    cells = tr.call("limits.implicit_zero_scan", ip.implicit_zero_scan, F, R, grid, work=lambda _: (grid - 1) ** 2)
    return cells, tr.call("render.implicit_csv", implicit_csv, cells, work=lambda _: len(cells))


def _check_implicit(output, F, R, grid, circle, samples) -> None:
    cells, text = output
    o.check_cells_csv(text, cells)
    o.check_implicit_cells(cells, F, R, grid, samples)
    if circle is not None:
        o.check_circle_cells(cells, *circle, R, grid)


def dense_round(v, ops, workdir=None) -> None:
    """Polar bound scans at millions of angles and implicit scans on a dense grid."""
    tr = ops.tracer
    text, f = v["saddle"]
    n, cap = v["saddle_angles"], v["saddle_cap"]
    ops.op(
        "polar_saddle",
        lambda: _polar_text(tr, text, (1e-3,), n, cap),
        lambda out: o.check_polar_unbounded(*o.polar_from_csv(out), f, n, 0.75 * math.pi, cap),
    )
    text_c, f_c = v["cubic"]
    n_c = v["cubic_angles"]
    ops.op(
        "polar_cubic",
        lambda: _polar_text(tr, text_c, (1e-1, 1e-4), n_c, ANGULAR_CAP),
        lambda out: o.check_polar_rows(*o.polar_from_csv(out), f_c, n_c, math.sqrt(2.0), v["angles"]),
    )
    for text_i, F, R, grid, circle in v["implicit"]:
        ops.op(
            "implicit",
            lambda: _implicit_text(tr, text_i, R, grid),
            lambda out: _check_implicit(out, F, R, grid, circle, v["cells"][grid]),
        )


# --- fits_and_paths --------------------------------------------------------------

SADDLE = "x*y/(x+y)"
# Two fixed triples that cooling.fit_three_point gets wrong today: the
# first cancels catastrophically in (T1^2 - T0*T2)/(2*T1 - T0 - T2) and
# raises ArithmeticError, the second overflows T1^2 and returns
# T_M = NaN with the verdict Feasible.
FAULTY_TRIPLES = ((1.0, 26.025353896539, 26.025353031012, 26.025353), (0.5, 1e200, 1e199, 1e198))
# cooling.feasible_midpoint_range raises "no sign change" whenever
# 2*mid - T0 - T2 rounds to a positive number, as for this fixed pair
# (and about a third of random endpoint pairs).  The seeded pairs are
# multiples of 1/16, on which that expression is exactly 0.
FAULTY_RANGE = (74.1232, 21.2442, o.ABSOLUTE_ZERO_C)
# Midpoint fractions f of T1 = T2 + f*(T0 - T2) for each verdict:
# convex and feasible, convex with T_M far below absolute zero, concave.
FIT_FRACTIONS = ((0.15, 0.4), (0.497, 0.499), (0.6, 0.85), (0.15, 0.4))


def fits_inputs(rng, sizes):
    triples = []
    for low, high in FIT_FRACTIONS:
        T2, span = _u(rng, 10.0, 40.0), _u(rng, 10.0, 50.0)
        triples.append((_u(rng, 0.2, 2.0), T2 + span, T2 + _u(rng, low, high) * span, T2))
    return {
        "slopes": (_u(rng, 0.2, 1.0), _u(rng, 1.0, 5.0)),
        "level": _u(rng, 0.5, 4.0),
        "negative_level": _u(rng, -4.0, -0.5),
        # two lines and four level curves per comparison, as many paths as the default set
        "saddle_paths": [
            ((_u(rng, 0.2, 1.0), _u(rng, 1.0, 5.0)), (_u(rng, 0.5, 1.5), _u(rng, 1.5, 2.5), _u(rng, 2.5, 4.0), _u(rng, -4.0, -0.5)))
            for _ in range(2)
        ],
        "ratios": [(_u(rng, -3.0, 3.0), _u(rng, 3.5, 6.0)) for _ in range(3)],
        "triples": triples,
        "range": (rng.randrange(960, 1520) / 16, rng.randrange(80, 640) / 16, _u(rng, -273.15, -50.0)),
        "sweep_t1": _u(rng, 0.2, 2.0),
        "seeds": (_u(rng, -100.0, 100.0), _u(rng, -100.0, 100.0)),
        "index": rng.randrange(sizes["terms"] + 1),
        **sizes,
    }


def _path_limit(tr, trajectory_of, value):
    f = tr.call("expr.parse", ip.parse, SADDLE)
    return tr.call("limits.limit_along", ip.limit_along, f, trajectory_of(value))


def _compare_text(tr, f_text: str, trajectories) -> str:
    f = tr.call("expr.parse", ip.parse, f_text)
    report = tr.call("limits.compare_trajectories", ip.compare_trajectories, f, trajectories)
    return tr.call("render.limit_report_json", limit_report_json, report)


def _fit_text(tr, t1: float, T0: float, T1: float, T2: float) -> str:
    obs = ip.CoolingObservations(t1, T0, T1, T2)
    fit = tr.call("cooling.fit_three_point", ip.fit_three_point, obs)
    return tr.call("render.fit_json", fit_json, fit, obs)


def fits_round(v, ops, workdir=None) -> None:
    """Many short calls: path limits, cooling fits and the averaging recurrence."""
    tr = ops.tracer
    for slope in v["slopes"]:
        ops.op(
            "limit_line",
            lambda: _path_limit(tr, ip.line_trajectory, slope),
            lambda r: o.check_line_limit(r.status.value, r.value, slope, T_LAST),
        )
    for a in (v["level"], v["negative_level"]):
        ops.op(
            "limit_level",
            lambda: _path_limit(tr, ip.level_curve_trajectory, a),
            lambda r: o.check_level_limit(r.status.value, r.value, a, T_LAST),
        )
    for slopes, levels in v["saddle_paths"]:
        paths = [ip.line_trajectory(m) for m in slopes] + [ip.level_curve_trajectory(a) for a in levels]
        limits = dict(zip((p.label for p in paths), (0.0,) * len(slopes) + levels))
        tol = o.level_curve_tol(max(abs(a) for a in levels), T_LAST)
        ops.op(
            "compare_saddle",
            lambda: _compare_text(tr, SADDLE, paths),
            lambda text: o.check_limit_report(o.strict_json(text), limits, tol),
        )
    for p, r in v["ratios"]:
        f_text = f"({p!r}*x^2+{r!r}*y^2)/(x^2+y^2)"
        ops.op(
            "compare_default",
            lambda: _compare_text(tr, f_text, tr.call("limits.default_trajectories", ip.default_trajectories)),
            lambda text: o.check_limit_report(
                o.strict_json(text), o.quadratic_ratio_limits(p, 0.0, r), 1e-8 * max(1.0, abs(p), abs(r))
            ),
        )
    for t1, T0, T1, T2 in (*v["triples"], *FAULTY_TRIPLES):
        ops.op("cooling_fit", lambda: _fit_text(tr, t1, T0, T1, T2), lambda text: o.check_fit_json(text, t1, T0, T1, T2))
    for T0, T2, floor in (v["range"], FAULTY_RANGE):
        ops.op(
            "cooling_range",
            lambda: tr.call("cooling.feasible_midpoint_range", ip.feasible_midpoint_range, T0, T2, floor),
            lambda c: o.check_range(c[0], c[1], T0, T2, floor),
        )
    T0, T2, floor = v["range"]
    n_sweep, t1 = v["sweep"], v["sweep_t1"]
    ops.op(
        "cooling_sweep",
        lambda: tr.call("cooling.sweep_csv", sweep_csv, T0, T2, n_sweep, floor, t1, work=lambda _: n_sweep),
        lambda text: o.check_sweep_csv(text, T0, T2, n_sweep, floor, t1),
    )
    a, b = v["seeds"]
    instance = ip.RecurrenceInstance(a, b)
    terms, index = v["terms"], v["index"]
    values: list[float] = []

    def iterate():
        values[:] = tr.call("recurrence.iterate_recurrence", ip.iterate_recurrence, instance, terms, work=len)
        return values

    ops.op("recurrence_iterate", iterate, lambda out: o.check_terms(out, a, b))
    ops.op(
        "recurrence_closed_form",
        lambda: tr.call("recurrence.closed_form", ip.closed_form, instance, index),
        lambda x: o.check_closed_form(x, a, b, index),
    )
    ops.op(
        "recurrence_detect",
        lambda: tr.call("recurrence.detect_limit", ip.detect_limit, values, 1e-10),
        lambda found: o.check_limit(found[0], found[1], values, a, b, 1e-10),
    )


WORKLOADS = {
    "cli_session": (cli_inputs, cli_round),
    "ode_blowup": (ode_inputs, ode_round),
    "dense_scans": (dense_inputs, dense_round),
    "fits_and_paths": (fits_inputs, fits_round),
}


def make_inputs(workload: str, seed: int, sizes=FULL) -> list[dict]:
    """VARIANTS round inputs drawn from the seed; sizes never depend on it."""
    make = WORKLOADS[workload][0]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng, sizes) for _ in range(VARIANTS)]


# --- layer probes (traced runs only) ----------------------------------------------


def _tracemalloc_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def expr_probe(tr, sizes) -> None:
    """Parse, compile and evaluate each workload expression once; time the hot lanes."""
    import numpy as np

    dense = dense_inputs(random.Random(0), sizes)
    fields = ["y^2+1", BOUNDED_RHS, SADDLE, dense["saddle"][0], dense["cubic"][0]] + [t for t, *_ in dense["implicit"]]
    for text in fields:
        expr = tr.call("expr.parse", ip.parse, text)
        tr.call("expr.compile_scalar", ip.compile_scalar, expr, ("x", "y"))
        tr.call("expr.evaluate", ip.evaluate, expr, {"x": 0.3, "y": 0.2})
        tr.call("expr.compile_array", ip.compile_array, expr, ("x", "y"))
    rhs = ip.compile_scalar(ip.parse("y^2+1"), ("x", "y"))
    calls = sizes["scalar_calls"]

    def scalar_loop():
        for _ in range(calls):
            rhs(0.5, 0.25)

    tr.call("expr.scalar_call", scalar_loop, work=lambda _: calls)
    array_fn = ip.compile_array(ip.parse(dense["cubic"][0]), ("x", "y"))
    points = sizes["array_points"]
    xs = np.linspace(-1.0, 1.0, points)
    tr.call("expr.array_call", array_fn, xs, xs[::-1], work=lambda _: points)


def memory_probe(sizes) -> dict[str, float]:
    """tracemalloc peaks of one long Euler run and one implicit scan."""
    ivp = ip.IVP(ip.parse(BOUNDED_RHS), 0.0, 1.0)
    trajectory, peak = _tracemalloc_peak(lambda: ip.integrate_euler(ivp, 1e-3, sizes["euler_steps"]))
    circle = ip.parse("x^2+y^2-0.25")
    _, scan_peak = _tracemalloc_peak(lambda: ip.implicit_zero_scan(circle, 1.0, sizes["grid"]))
    return {"ode.bytes_per_point": peak / len(trajectory.points), "limits.scan_peak_mb": scan_peak / 2**20}


def blowup_probe(tr, v) -> None:
    """Re-run the refinement levels of each blow-up case through the public integrators.

    estimate_blowup runs levels 0..L-1 at h0/2^l on the grid up to x_max
    with both Euler and RK4; the spans count the points each run stores.
    """
    cases = (("y^2+1", v["x_tan"], 0.0), ("y^2", v["x_sq"], 1.0), (BOUNDED_RHS, 0.0, v["y_bounded"]))
    # every case runs on [x0, x0 + 2]
    levels = v["levels"]
    for rhs, x0, y0 in cases:
        ivp = ip.IVP(ip.parse(rhs), x0, y0)
        for level in range(levels):
            h = 0.01 / 2.0**level
            n = math.floor(((x0 + 2.0) - x0) / h + 1e-9)
            name = "blowup.finest_level" if level == levels - 1 else "blowup.level"
            for integrate in (ip.integrate_euler, ip.integrate_rk4):
                tr.call(name, integrate, ivp, h, n, work=lambda t: len(t.points))


def bisect_probe(tr, v) -> None:
    """Bisection iterations of the feasible-range root, which the range call drops."""
    T0, T2, floor = v["range"]

    def gap(c):
        tm = ip.tm_of_midpoint(c, T0, T2)
        return -math.inf if tm is None else tm - floor

    tr.call("cooling.bisect_root", ip.bisect_root, gap, T2, 0.5 * (T0 + T2), 1e-6, work=lambda found: found[1])
