"""Fixed-step Euler / RK4 integrator tests.

The y' = y^2 + 1, y(0) = 0 runs reproduce a hand-checked table: the true
solution tan(x) leaves its interval of definition at pi/2, so values past
x = 1.6 are method artifacts and wildly step-size dependent.  The exact
doubles below were frozen from an independent reimplementation of the
recurrences y_{k+1} = y_k + h*(y_k^2+1).
"""

import math
from array import array

import pytest

from illposed.expr import parse
from illposed.ode import (
    IVP,
    OVERFLOW_GUARD,
    Trajectory,
    VariabilityRow,
    TrajectoryPoint,
    euler_step,
    integrate_euler,
    integrate_rk4,
    rk4_step,
    trajectory_csv,
    variability_csv,
    variability_table,
)

TAN_RHS = "y^2+1"

EULER_H02 = [
    0.0,
    0.2,
    0.40800000000000003,
    0.6412928,
    0.923544091066368,
    1.294130828695089,
    1.8290857490508965,
    2.6981966845271126,
    4.354249754205734,
    8.346147938605872,
    22.477785021224882,
]

EULER_H04 = [
    0.0,
    0.4,
    0.8640000000000001,
    1.5625984000000002,
    2.9392839038730245,
    6.795039850899844,
]

# published 4-decimal rounding of the same run
TABLE_H02 = [0.0, 0.2, 0.408, 0.6413, 0.9235, 1.2941, 1.8291, 2.6982, 4.3542, 8.3461, 22.4778]
TABLE_H04 = [0.0, 0.4, 0.864, 1.5626, 2.9393, 6.795]


def tan_ivp():
    return IVP(parse(TAN_RHS), 0.0, 0.0)


def test_euler_h02_column_bitwise():
    tr = integrate_euler(tan_ivp(), 0.2, 10)
    assert [p.y for p in tr.points] == EULER_H02
    assert not tr.terminated_early


def test_euler_h04_column_bitwise():
    tr = integrate_euler(tan_ivp(), 0.4, 5)
    assert [p.y for p in tr.points] == EULER_H04


def test_euler_matches_published_rounding():
    tr = integrate_euler(tan_ivp(), 0.2, 10)
    for p, want in zip(tr.points, TABLE_H02):
        assert abs(p.y - want) <= 5e-5
    tr = integrate_euler(tan_ivp(), 0.4, 5)
    for p, want in zip(tr.points, TABLE_H04):
        assert abs(p.y - want) <= 5e-5


def test_grid_abscissae_are_recomputed_not_accumulated():
    tr = integrate_euler(IVP(parse("y"), 0.3, 0.7), 0.17, 9)
    for p in tr.points:
        assert p.x == 0.3 + p.k * 0.17


def test_public_step_matches_integration_loop_bitwise():
    rhs = parse("sin(x)*y+x^2")
    tr = integrate_euler(IVP(rhs, 0.3, 0.7), 0.17, 9)
    for a, b in zip(tr.points, tr.points[1:]):
        assert euler_step(rhs, a.x, a.y, 0.17) == b.y
    tr = integrate_rk4(IVP(rhs, 0.3, 0.7), 0.17, 9)
    for a, b in zip(tr.points, tr.points[1:]):
        assert rk4_step(rhs, a.x, a.y, 0.17) == b.y


def test_public_steps_walk_the_tree_without_compiling(monkeypatch):
    rhs = parse("sin(x)*y+x^2")
    euler = integrate_euler(IVP(rhs, 0.3, 0.7), 0.17, 9).points
    rk4 = integrate_rk4(IVP(rhs, 0.3, 0.7), 0.17, 9).points

    def refuse(*args):
        raise AssertionError("a single step compiled the rhs")

    monkeypatch.setattr("illposed.ode.compile_scalar", refuse)
    for a, b in zip(euler, euler[1:]):
        assert euler_step(rhs, a.x, a.y, 0.17) == b.y
    for a, b in zip(rk4, rk4[1:]):
        assert rk4_step(rhs, a.x, a.y, 0.17) == b.y


def test_euler_reduces_to_left_riemann_sum_when_rhs_ignores_y():
    # y' = sin(x) makes Euler literally the left endpoint rule
    tr = integrate_euler(IVP(parse("sin(x)"), 0.0, 0.0), 0.01, 100)
    acc = 0.0
    for k in range(100):
        acc += math.sin(k * 0.01) * 0.01
    assert tr.final.y == pytest.approx(acc, rel=1e-12)


def test_euler_is_first_order():
    ivp = IVP(parse("y"), 0.0, 1.0)
    e1 = abs(integrate_euler(ivp, 0.01, 100).final.y - math.e)
    e2 = abs(integrate_euler(ivp, 0.005, 200).final.y - math.e)
    assert 1.8 <= e1 / e2 <= 2.2


def test_rk4_is_fourth_order():
    ivp = IVP(parse("y"), 0.0, 1.0)
    e1 = abs(integrate_rk4(ivp, 0.1, 10).final.y - math.e)
    e2 = abs(integrate_rk4(ivp, 0.05, 20).final.y - math.e)
    assert 13.0 <= e1 / e2 <= 19.0


def test_rk4_exponential_growth_error():
    # frozen global error of classical RK4 on y'=y over [0,1] with h=0.1
    tr = integrate_rk4(IVP(parse("y"), 0.0, 1.0), 0.1, 10)
    assert abs(tr.final.y - math.e) == 2.0843238792700447e-06
    assert abs(tr.final.y - math.e) < 3e-6


def test_rk4_reaches_tangent_accurately_inside_the_interval():
    tr = integrate_rk4(tan_ivp(), 0.05, 20)
    assert abs(tr.final.y - math.tan(1.0)) < 1e-4


def test_rk4_beats_euler_on_smooth_problems():
    ivp = IVP(parse("y"), 0.0, 1.0)
    rk = abs(integrate_rk4(ivp, 0.1, 10).final.y - math.e)
    eu = abs(integrate_euler(ivp, 0.1, 10).final.y - math.e)
    assert rk < eu / 1000


# --- escape handling -------------------------------------------------------


def test_overflow_guard_stops_the_run():
    # y' = y with a huge step multiplies y by 10 each step
    tr = integrate_euler(IVP(parse("y"), 0.0, 1e299), 9.0, 10)
    assert tr.terminated_early
    assert "overflow guard" in tr.termination_reason
    assert abs(tr.final.y) >= OVERFLOW_GUARD
    assert len(tr.points) < 11


def test_rhs_overflow_stops_the_run():
    # y^2 overflows the double range before |y| hits the guard
    tr = integrate_euler(IVP(parse("y^2"), 0.0, 1.0), 0.2, 50)
    assert tr.terminated_early
    assert "rhs evaluation failed" in tr.termination_reason
    assert not tr.rhs_undefined
    assert tr.final.y == 1.1604822382262354e+162
    assert math.isfinite(tr.final.y)


@pytest.mark.parametrize("reason", [None, "overflow guard", "rhs evaluation failed"])
def test_terminated_early_is_read_from_the_termination_reason(reason):
    tr = Trajectory(0.1, array("d", [0.0]), array("d", [1.0]), reason)
    assert tr.terminated_early is (reason is not None)
    with pytest.raises(AttributeError):
        tr.terminated_early = reason is None


def test_domain_error_in_rhs_stops_the_run():
    tr = integrate_euler(IVP(parse("ln(1-x)"), 0.0, 0.0), 0.5, 10)
    assert tr.terminated_early
    assert tr.rhs_undefined
    assert tr.termination_reason == "rhs undefined at x=1.0: log of a non-positive value in 'ln(1.0-x)'"
    # x = 1 makes ln(0) blow up; points up to x = 0.5 survive
    assert tr.final.x == 1.0


# --- validation -------------------------------------------------------------


@pytest.mark.parametrize("integrate", [integrate_euler, integrate_rk4])
def test_grid_may_end_at_the_top_of_the_double_range(integrate):
    # only a last abscissa x0 + n*h that overflows is refused
    assert integrate(IVP(parse("0"), 0.0, 0.0), 5e307, 3).final == (3, 3 * 5e307, 0.0)


def test_ivp_rejects_unknown_variables():
    with pytest.raises(ValueError):
        IVP(parse("y+z"), 0.0, 0.0)


def test_ivp_rejects_nonfinite_initial_data():
    with pytest.raises(ValueError):
        IVP(parse("y"), math.nan, 0.0)
    with pytest.raises(ValueError):
        IVP(parse("y"), 0.0, math.inf)


def test_step_and_count_validation():
    ivp = tan_ivp()
    with pytest.raises(ValueError):
        integrate_euler(ivp, 0.0, 10)
    with pytest.raises(ValueError):
        integrate_euler(ivp, -0.1, 10)
    with pytest.raises(ValueError):
        integrate_euler(ivp, 0.1, 0)
    with pytest.raises(ValueError):
        integrate_euler(ivp, 0.1, 2.5)


# --- variability table -------------------------------------------------------


def test_variability_rows_in_given_order():
    rows = variability_table(tan_ivp(), 2.0, [0.4, 0.2, 0.1])
    assert [(r.h, r.y_at_target, r.escaped) for r in rows] == [
        (0.4, 6.795039850899844, False),
        (0.2, 22.477785021224882, False),
        (0.1, 925.9487514231975, False),
    ]


def test_variability_rejects_nondivisor_steps():
    with pytest.raises(ValueError, match="does not divide"):
        variability_table(tan_ivp(), 2.0, [0.3])


def test_variability_flags_escaped_rows():
    rows = variability_table(IVP(parse("y^2"), 0.0, 1.0), 8.0, [0.5])
    assert rows[0].escaped
    assert rows[0].y_at_target is None


# --- renderers ----------------------------------------------------------------


def test_trajectory_csv_golden():
    text = trajectory_csv(integrate_euler(tan_ivp(), 0.5, 2))
    assert text == "n,x_n,y_n\n0,0,0\n1,0.5,0.5\n2,1,1.125\n"


def test_trajectory_csv_keeps_x0_itself():
    # x_0 is x0, not x0 + 0*h, which would turn -0.0 into 0.0
    text = trajectory_csv(integrate_euler(IVP(parse("1"), -0.0, -0.0), 0.5, 2))
    assert text == "n,x_n,y_n\n0,-0,-0\n1,0.5,0.5\n2,1,1\n"


def test_points_and_final_are_views_of_the_double_columns():
    tr = integrate_rk4(tan_ivp(), 0.2, 3)
    assert tr.xs.typecode == tr.ys.typecode == "d"
    assert tr.points == tuple(TrajectoryPoint(k, x, y) for k, (x, y) in enumerate(zip(tr.xs, tr.ys)))
    assert tr.final == tr.points[-1] == (3, tr.xs[-1], tr.ys[-1])


def test_trajectory_csv_rounding():
    text = trajectory_csv(integrate_euler(tan_ivp(), 0.2, 3), round_to=4)
    lines = text.strip().split("\n")
    assert lines[0] == "n,x_n,y_n"
    assert lines[4] == "3,0.6000,0.6413"


def test_variability_csv_golden():
    rows = variability_table(tan_ivp(), 2.0, [0.4, 0.2])
    text = variability_csv(rows)
    assert text == (
        "h,y_at_target,escaped\n"
        "0.40000000000000002,6.795039850899844,false\n"
        "0.20000000000000001,22.477785021224882,false\n"
    )


def test_variability_counts_a_guard_trip_on_the_last_step_as_escaped():
    # the single step lands on the target with |y| = 1.1e300, past the overflow guard
    rows = variability_table(IVP(parse("y"), 0.0, 1e299), 10.0, [10.0])
    assert rows == [VariabilityRow(10.0, None, True)]
