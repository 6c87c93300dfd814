"""Every public entry point rejects out-of-range arguments with ValueError.

One table row per validated argument: the call, with every other
argument valid, and the bad values for that argument's kind.  Each bad
value must fail during validation, before any work is done; a tiny but
valid step such as 1e-300 would ask for ~1e300 steps and is not here.
"""

import math

import pytest

from illposed.blowup import estimate_blowup, threshold_crossing
from illposed.cooling import (
    CoolingObservations,
    bisect_root,
    feasible_midpoint_range,
    fit_three_point,
    sweep_csv,
)
from illposed.expr import parse
from illposed.limits import (
    Trajectory2D,
    angular_bound_scan,
    compare_trajectories,
    default_trajectories,
    implicit_zero_scan,
    level_curve_trajectory,
    limit_along,
    line_trajectory,
)
from illposed.ode import IVP, Trajectory, integrate_euler, integrate_rk4, variability_table
from illposed.recurrence import (
    RecurrenceInstance,
    closed_form,
    detect_limit,
    iterate_recurrence,
    sequence_csv,
)

NAN, INF = math.nan, math.inf
BIG = 10**400  # an int that float() cannot convert
FINITE = (NAN, INF, -INF, BIG)
POSITIVE = (0.0, -1.0, NAN, INF, BIG)
STEP = POSITIVE + (1e-320,)  # for steps that divide a span: span/h overflows
COUNT = (0, -1, NAN, INF, True, 2.5)
INDEX = (-1, NAN, INF, True, 2.5)

IVP0 = IVP(parse("y^2+1"), 0.0, 0.0)
SADDLE = parse("x*y/(x+y)")
PATH = line_trajectory(1.0)
OBS = CoolingObservations(0.5, 40.0, 34.0, 30.0)
SEEDS = RecurrenceInstance(0.0, 1.0)
SEQUENCE = [1.0] * 10

RADII = [(0.1, v) for v in POSITIVE] + [(0.1, 0.1), ()]

CASES = [
    ("IVP.x0", FINITE, lambda v: IVP(IVP0.rhs, v, 0.0)),
    ("IVP.y0", FINITE, lambda v: IVP(IVP0.rhs, 0.0, v)),
    ("IVP.rhs", ("y+z", "t"), lambda v: IVP(parse(v), 0.0, 0.0)),
    ("integrate_euler.h", POSITIVE + (1e308,), lambda v: integrate_euler(IVP0, v, 10)),
    ("integrate_euler.n_steps", COUNT + (BIG,), lambda v: integrate_euler(IVP0, 0.1, v)),
    ("integrate_rk4.h", POSITIVE + (1e308,), lambda v: integrate_rk4(IVP0, v, 10)),
    ("integrate_rk4.n_steps", COUNT + (BIG,), lambda v: integrate_rk4(IVP0, 0.1, v)),
    ("variability_table.x_target", FINITE + (0.0, -1.0), lambda v: variability_table(IVP0, v, [0.1])),
    ("variability_table.step_sizes", STEP, lambda v: variability_table(IVP0, 1.0, [0.1, v])),
    ("variability_table.step_sizes", ([],), lambda v: variability_table(IVP0, 1.0, v)),
    ("threshold_crossing.h", STEP, lambda v: threshold_crossing(IVP0, v, 2.0, 1e8)),
    ("threshold_crossing.x_max", FINITE + (0.0, -1.0), lambda v: threshold_crossing(IVP0, 0.1, v, 1e8)),
    ("threshold_crossing.threshold", POSITIVE, lambda v: threshold_crossing(IVP0, 0.1, 2.0, v)),
    ("estimate_blowup.x_max", FINITE + (0.0, -1.0), lambda v: estimate_blowup(IVP0, v)),
    ("estimate_blowup.threshold", POSITIVE, lambda v: estimate_blowup(IVP0, 2.0, threshold=v)),
    ("estimate_blowup.h0", STEP, lambda v: estimate_blowup(IVP0, 2.0, h0=v)),
    ("estimate_blowup.levels", COUNT + (2,), lambda v: estimate_blowup(IVP0, 2.0, levels=v)),
    ("CoolingObservations.t1", POSITIVE, lambda v: CoolingObservations(v, 40.0, 34.0, 30.0)),
    ("CoolingObservations.T0", FINITE, lambda v: CoolingObservations(0.5, v, 34.0, 30.0)),
    ("CoolingObservations.T1", FINITE, lambda v: CoolingObservations(0.5, 40.0, v, 30.0)),
    ("CoolingObservations.T2", FINITE, lambda v: CoolingObservations(0.5, 40.0, 34.0, v)),
    ("fit_three_point.floor", FINITE, lambda v: fit_three_point(OBS, v)),
    ("bisect_root.lo", FINITE, lambda v: bisect_root(math.sin, v, 4.0)),
    ("bisect_root.hi", FINITE + (1.0, 0.0), lambda v: bisect_root(math.sin, 1.0, v)),
    ("bisect_root.tol", POSITIVE, lambda v: bisect_root(math.sin, 1.0, 4.0, v)),
    ("feasible_midpoint_range.T0", FINITE + (30.0, 20.0), lambda v: feasible_midpoint_range(v, 30.0)),
    ("feasible_midpoint_range.T2", FINITE + (40.0, 50.0), lambda v: feasible_midpoint_range(40.0, v)),
    ("feasible_midpoint_range.floor", FINITE, lambda v: feasible_midpoint_range(40.0, 30.0, v)),
    ("sweep_csv.T0", FINITE + (30.0, 20.0), lambda v: sweep_csv(v, 30.0, 3)),
    ("sweep_csv.T2", FINITE + (40.0, 50.0), lambda v: sweep_csv(40.0, v, 3)),
    ("sweep_csv.n", COUNT, lambda v: sweep_csv(40.0, 30.0, v)),
    ("sweep_csv.floor", FINITE, lambda v: sweep_csv(40.0, 30.0, 3, v)),
    ("sweep_csv.t1", POSITIVE, lambda v: sweep_csv(40.0, 30.0, 3, t1=v)),
    ("RecurrenceInstance.a", FINITE, lambda v: RecurrenceInstance(v, 1.0)),
    ("RecurrenceInstance.b", FINITE, lambda v: RecurrenceInstance(0.0, v)),
    ("iterate_recurrence.n", INDEX, lambda v: iterate_recurrence(SEEDS, v)),
    ("closed_form.n", INDEX, lambda v: closed_form(SEEDS, v)),
    ("detect_limit.tol", POSITIVE, lambda v: detect_limit(SEQUENCE, v)),
    ("sequence_csv.n", INDEX, lambda v: sequence_csv(SEEDS, v, 1e-10)),
    ("sequence_csv.tol", POSITIVE, lambda v: sequence_csv(SEEDS, 6, v)),
    ("Trajectory2D", ("x", "t+s"), lambda v: Trajectory2D(parse("t"), parse(v), "p")),
    ("line_trajectory.slope", FINITE, line_trajectory),
    ("level_curve_trajectory.a", FINITE + (0.0,), level_curve_trajectory),
    ("limit_along.f", ("x+z", "t"), lambda v: limit_along(parse(v), PATH)),
    ("angular_bound_scan.f", ("z",), lambda v: angular_bound_scan(parse(v))),
    ("angular_bound_scan.radii", RADII, lambda v: angular_bound_scan(SADDLE, v)),
    ("angular_bound_scan.n_angles", COUNT + (359,), lambda v: angular_bound_scan(SADDLE, n_angles=v)),
    ("angular_bound_scan.cap", POSITIVE, lambda v: angular_bound_scan(SADDLE, cap=v)),
    ("implicit_zero_scan.F", ("z",), lambda v: implicit_zero_scan(parse(v), 1.0)),
    ("implicit_zero_scan.R", POSITIVE, lambda v: implicit_zero_scan(SADDLE, v)),
    ("implicit_zero_scan.grid_n", COUNT + (99,), lambda v: implicit_zero_scan(SADDLE, 1.0, v)),
]


@pytest.mark.parametrize(
    ("call", "value"),
    [
        pytest.param(call, v, id=f"{name}={v!r}".replace(repr(BIG), "10**400"))
        for name, values, call in CASES
        for v in values
    ],
)
def test_out_of_range_argument_raises_value_error(call, value):
    with pytest.raises(ValueError):
        call(value)


# Values that are fixed, not settable: each of these once was a parameter
# that no caller set, and passing it (or leaving out sequence_csv's tol)
# must fail at the call rather than be silently accepted.
FIXED = [
    ("limit_along.schedule", lambda: limit_along(SADDLE, PATH, schedule=(0.1, 0.01, 0.001, 1e-9))),
    ("compare_trajectories.schedule", lambda: compare_trajectories(SADDLE, default_trajectories(), (0.1, 0.01, 0.001, 1e-9))),
    ("implicit_zero_scan.tiny", lambda: implicit_zero_scan(SADDLE, 1.0, 100, 1e-12)),
    ("detect_limit.min_run", lambda: detect_limit(SEQUENCE, 1e-10, 3)),
    ("sweep_csv.round_to", lambda: sweep_csv(40.0, 30.0, 3, round_to=3)),
    ("sequence_csv.tol", lambda: sequence_csv(SEEDS, 6)),
    ("Trajectory.terminated_early", lambda: Trajectory(0.1, [0.0], [1.0], None, terminated_early=True)),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in FIXED])
def test_fixed_values_are_not_settable(call):
    with pytest.raises(TypeError):
        call()
