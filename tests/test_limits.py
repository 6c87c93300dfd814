"""Two-variable limits at the origin: path probes, polar bounds, zero scans.

The running counterexample is f = xy/(x+y).  Along any line through the
origin the limit is 0, yet the level curve xy/(x+y) = a (a path into the
origin for every a) pins the value a, so the limit does not exist even
though the "test all lines" heuristic says otherwise.
"""

import json
import math
import random
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trees import trees

from illposed import limits
from illposed.expr import EvalError, compile_array, compile_scalar, parse
from illposed.limits import (
    AGREEMENT_TOL,
    ANGULAR_CAP,
    CAUCHY_TOL,
    DEFAULT_SCHEDULE,
    AngularScan,
    LimitVerdict,
    PathStatus,
    Trajectory2D,
    angular_bound_scan,
    compare_trajectories,
    default_trajectories,
    implicit_csv,
    implicit_zero_scan,
    level_curve_trajectory,
    limit_along,
    limit_report_json,
    line_trajectory,
    polar_csv,
    samples_csv,
    trajectory_from_text,
)

SADDLE = "x*y/(x+y)"
CUBIC = "(x^3+y^3)/(x^2+y^2)"


# --- trajectories -----------------------------------------------------------


def test_level_curve_parametrization():
    tr = level_curve_trajectory(3.0)
    assert tr.label == "level curve a=3"
    # y(t) = a t/(t-a) solves xy/(x+y) = a with x = t
    from illposed.expr import evaluate

    for t in (0.05, -0.02, 1.4):
        x = evaluate(tr.x_of_t, {"t": t})
        y = evaluate(tr.y_of_t, {"t": t})
        assert x == t
        assert x * y / (x + y) == pytest.approx(3.0, abs=1e-9)


def test_level_curve_identity_property():
    # the identity f = a holds to 1e-9 for moderate t; below ~1e-5 the
    # cancellation in x + y (order t^2/a from order-t coordinates) costs
    # about |a|^2 * 2^-52 / t and the guarantee degrades
    rng = random.Random(11)
    f = parse(SADDLE)
    from illposed.expr import compile_scalar

    fn = compile_scalar(f, ("x", "y"))
    for _ in range(500):
        a = rng.uniform(-50.0, 50.0)
        if abs(a) < 1e-3:
            continue
        tr = level_curve_trajectory(a)
        xf = compile_scalar(tr.x_of_t, ("t",))
        yf = compile_scalar(tr.y_of_t, ("t",))
        t = rng.uniform(1e-4, 0.999 * abs(a) / 2)
        assert abs(fn(xf(t), yf(t)) - a) <= 1e-9


def test_level_curve_rejects_degenerate_a():
    with pytest.raises(ValueError):
        level_curve_trajectory(0.0)
    with pytest.raises(ValueError):
        level_curve_trajectory(math.inf)


def test_line_trajectory_labels():
    assert line_trajectory(1.0).label == "y=x"
    assert line_trajectory(-1.0).label == "y=-x"
    assert line_trajectory(2.5).label == "y=2.5x"


def test_labels_keep_values_that_g_would_merge_apart():
    assert level_curve_trajectory(1.000001).label == "level curve a=1.000001"
    assert line_trajectory(2.0000001).label == "y=2.0000001x"
    assert line_trajectory(0.1 + 0.2).label == "y=0.30000000000000004x"
    # %g text that reads back as the value is kept
    assert level_curve_trajectory(1e-7).label == "level curve a=1e-07"
    assert line_trajectory(-0.0).label == "y=-0x"
    rep = compare_trajectories(
        parse(SADDLE),
        [line_trajectory(2.0), line_trajectory(2.0000001), level_curve_trajectory(1.0), level_curve_trajectory(1.000001)],
    )
    assert [p.label for p in rep.paths] == ["y=2x", "y=2.0000001x", "level curve a=1", "level curve a=1.000001"]


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_label_numbers_read_back_and_stay_short(v):
    text = limits._label_number(v)
    assert float(text) == v
    if float(f"{v:g}") == v:
        assert text == f"{v:g}"


@given(st.floats(0.01, 100.0), st.sampled_from([1.0, -1.0]))
def test_path_labels_read_back_as_their_value(magnitude, sign):
    v = sign * magnitude
    assert float(level_curve_trajectory(v).label.removeprefix("level curve a=")) == v
    if magnitude != 1.0:
        assert float(line_trajectory(v).label.removeprefix("y=").removesuffix("x")) == v


def test_default_set_composition():
    labels = [tr.label for tr in default_trajectories()]
    assert labels == ["y=x", "y=-x", "y=x^2", "y=sqrt(t)", "y=0", "x=0"]


def test_trajectory_must_approach_the_origin():
    with pytest.raises(ValueError, match="approach the origin"):
        trajectory_from_text("t+1", "t")


@pytest.mark.parametrize("slope", [1e4, -1e6, 1.9e6])
def test_steep_lines_reach_the_origin_at_the_finest_t(monkeypatch, slope):
    norms = []
    real_norm = Trajectory2D._norm

    def counting_norm(self, t):
        norms.append(t)
        return real_norm(self, t)

    monkeypatch.setattr(Trajectory2D, "_norm", counting_norm)
    tl = limit_along(parse(SADDLE), line_trajectory(slope))
    assert norms == [limits.DEFAULT_SCHEDULE[-1], 1e-1, 1e-3]
    assert tl.status is PathStatus.CONVERGED


@pytest.mark.parametrize(
    ("x_text", "y_text"),
    [
        ("t+0.5", "t"),
        ("1000*t+0.5", "t"),
        ("1e6*t+0.5", "t"),
        ("1e12*t+0.5", "t"),
        ("t", "1e12*t"),
        ("t", "1e7*t+0/((t-0.1)*(t-0.001))"),
    ],
    ids=["shifted-by-half", "steep-and-shifted", "steeper-and-shifted", "steepest-and-shifted", "too-steep-to-reach", "no-finite-reference"],
)
def test_paths_that_stay_away_from_the_origin_are_refused(x_text, y_text):
    # at every sampled t these paths are at least 1e-2 from the origin
    with pytest.raises(ValueError, match="approach the origin"):
        trajectory_from_text(x_text, y_text)


def test_trajectory_must_be_evaluable_near_zero():
    with pytest.raises(ValueError, match="not evaluable"):
        trajectory_from_text("ln(t-1)", "t")


def test_trajectory_rejects_foreign_variables():
    with pytest.raises(ValueError, match="variables other than t"):
        trajectory_from_text("x+1", "t")


def test_trajectory_with_a_pole_away_from_zero_is_fine():
    # the probe grid must not trip over the level-curve pole at t = a
    level_curve_trajectory(0.001)


# --- limit along one path ----------------------------------------------------


def test_line_limit_of_the_saddle_is_zero():
    tl = limit_along(parse(SADDLE), line_trajectory(1.0))
    assert tl.status is PathStatus.CONVERGED
    assert tl.value == 2.5e-09
    assert abs(tl.value) < 1e-6


def test_level_curve_limits_recover_a():
    f = parse(SADDLE)
    for a, frozen in ((1.0, 1.0000000212248412), (3.0, 2.9999999544128504)):
        tl = limit_along(f, level_curve_trajectory(a))
        assert tl.status is PathStatus.CONVERGED
        assert tl.value == frozen
        assert abs(tl.value - a) < 1e-6


def test_samples_cover_the_whole_schedule():
    tl = limit_along(parse(SADDLE), line_trajectory(1.0))
    assert [s.t for s in tl.samples] == list(DEFAULT_SCHEDULE)
    assert all(s.f is not None for s in tl.samples)


@pytest.mark.parametrize("index", range(len(default_trajectories())), ids=[p.label for p in default_trajectories()])
def test_every_path_is_sampled_on_the_default_schedule(index):
    # the schedule is fixed: limit_along and compare_trajectories both sample it, point for point
    f = parse("x^2+y^2")
    path = default_trajectories()[index]
    report = compare_trajectories(f, default_trajectories())
    assert [s.t for s in limit_along(f, path).samples] == list(DEFAULT_SCHEDULE)
    assert [s.t for s in report.paths[index].samples] == list(DEFAULT_SCHEDULE)


@pytest.mark.parametrize("a", [-5.0, -3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_level_curve_tails_pass_the_cauchy_test_at_the_schedule_end(a):
    # rounding on the level curve grows like |a|^2 * eps / t; at the 5e-9 tail it stays below CAUCHY_TOL
    tl = limit_along(parse(SADDLE), level_curve_trajectory(a))
    assert tl.status is PathStatus.CONVERGED
    assert abs(tl.value - a) < CAUCHY_TOL


@pytest.mark.parametrize("alpha", ["0.0000001", "0.000001"])
@pytest.mark.parametrize("base", ["abs(x)", "(x^2+y^2)"])
def test_slow_drift_toward_the_limit_is_not_convergence(base, alpha):
    # f -> 0 at the origin, but t^alpha moves only about alpha*ln(10) per decade of t
    report = compare_trajectories(parse(f"{base}^{alpha}"), default_trajectories())
    assert report.verdict is not LimitVerdict.DOES_NOT_EXIST
    for path in report.paths:
        assert path.status is not PathStatus.CONVERGED or abs(path.value) <= AGREEMENT_TOL
    assert report.value is None or abs(report.value) <= AGREEMENT_TOL
    drifting = [p for p in report.paths if any("drifts by about" in note for note in p.notes)]
    # at 1e-6 the steps of about 2e-6 already fail the Cauchy test
    assert bool(drifting) == (alpha == "0.0000001")


def test_undefined_samples_are_skipped_with_notes():
    tl = limit_along(parse(SADDLE), line_trajectory(-1.0))
    assert tl.status is PathStatus.INCONCLUSIVE
    assert tl.value is None
    assert len(tl.notes) == len(DEFAULT_SCHEDULE) + 1
    assert "division by zero" in tl.notes[0]
    assert tl.notes[-1] == "fewer than 3 valid samples; no tail to judge"


def test_an_undefined_path_point_is_skipped_with_a_note():
    # the level curve a = 0.1 divides by t - 0.1 at the schedule's first t;
    # the other eight samples still converge to a
    tl = limit_along(parse(SADDLE), level_curve_trajectory(0.1))
    assert tl.notes[0] == "t=0.1: path undefined (division by zero in '0.1*t/(t-0.1)')"
    assert tuple(tl.samples[0]) == (0.1, None, None, None)
    assert tl.status is PathStatus.CONVERGED
    assert abs(tl.value - 0.1) < 1e-9


def test_where_x_and_y_are_both_undefined_the_note_names_x():
    # x(t) is read first, so its error is the path's
    tl = limit_along(parse("x*y"), trajectory_from_text("t*t/(t-0.1)+t", "t/(t-0.1)*t"))
    assert tl.notes[0] == "t=0.1: path undefined (division by zero in 't*t/(t-0.1)')"
    assert tuple(tl.samples[0]) == (0.1, None, None, None)


def test_oscillation_is_inconclusive():
    tl = limit_along(parse("sin(1/x)"), line_trajectory(1.0))
    assert tl.status is PathStatus.INCONCLUSIVE


def test_divergence_is_flagged():
    tl = limit_along(parse("1/(x^2+y^2)"), line_trajectory(1.0))
    assert tl.status is PathStatus.DIVERGED
    assert tl.value is None


@pytest.mark.parametrize(
    ("text", "x_text", "y_text", "status", "value", "note"),
    [
        (SADDLE, "t", "-t", PathStatus.INCONCLUSIVE, None, "fewer than 3 valid samples; no tail to judge"),
        ("1/(x^2+y^2)", "t", "t", PathStatus.DIVERGED, None, "|f| reached 2e+16 at the finest t"),
        ("sin(1/x)", "t", "t", PathStatus.INCONCLUSIVE, None, "samples are not Cauchy at the finest scales"),
        (
            "(-3*x^0*y^0+-3*x^0*y^3+3*x^0*y^0)/(x^0*y^3)",
            "t",
            "-2.0*t^1",
            PathStatus.INCONCLUSIVE,
            None,
            "f jumps by 1.09e-05, more than the step before it; the tail did not contract",
        ),
        (
            "abs(x)^0.0000001",
            "t",
            "t",
            PathStatus.INCONCLUSIVE,
            None,
            "f drifts by about -2.3e-07 per decade of t from 1e-4 to 1e-8",
        ),
        (SADDLE, "t", "t", PathStatus.CONVERGED, 2.5e-09, None),
    ],
    ids=["few samples", "diverged", "not Cauchy", "jump", "drift", "converged"],
)
def test_each_rule_of_the_judge_ends_the_notes_with_its_own(text, x_text, y_text, status, value, note):
    tl = limit_along(parse(text), trajectory_from_text(x_text, y_text))
    assert tl.status is status
    assert tl.value == value
    # a Converged path has no note at all
    assert tl.notes[-1:] == (() if note is None else (note,))


def test_the_drift_window_is_found_by_t_not_by_position(monkeypatch):
    # f -> 0 but creeps by about -2.55e-7 per decade of t; a coarser first t must
    # not move the window from 1e-4 ... 1e-8 to 1e-3 ... 1e-7, where it passes
    f, path = parse("abs(x)^0.0000001+0.001*x"), line_trajectory(1.0)
    note = "f drifts by about -2.55e-07 per decade of t from 1e-4 to 1e-8"
    assert limit_along(f, path).notes == (note,)
    monkeypatch.setattr(limits, "DEFAULT_SCHEDULE", (0.5, *DEFAULT_SCHEDULE))
    tl = limit_along(f, path)
    assert [s.t for s in tl.samples] == [0.5, *DEFAULT_SCHEDULE]
    assert tl.status is PathStatus.INCONCLUSIVE
    assert tl.notes == (note,)


# --- comparing paths -----------------------------------------------------------


def test_saddle_level_curves_disprove_the_limit():
    rep = compare_trajectories(
        parse(SADDLE),
        [line_trajectory(1.0), level_curve_trajectory(1.0), level_curve_trajectory(3.0)],
    )
    assert rep.verdict is LimitVerdict.DOES_NOT_EXIST
    assert rep.value is None
    labels = [label for label, _ in rep.witnesses]
    values = [value for _, value in rep.witnesses]
    assert labels == ["y=x", "level curve a=3"]
    assert values[0] == 2.5e-09
    assert values[1] == 2.9999999544128504


def test_saddle_default_set_is_inconclusive():
    # every default path that evaluates settles on 0; y=-x lies inside
    # the zero set of x+y, so the heuristic cannot call it either way
    rep = compare_trajectories(parse(SADDLE), default_trajectories())
    assert rep.verdict is LimitVerdict.INCONCLUSIVE
    assert "5 of 6 paths converged" in rep.note


def test_classic_saddle_fails_on_the_default_set_alone():
    rep = compare_trajectories(parse("x*y/(x^2+y^2)"), default_trajectories())
    assert rep.verdict is LimitVerdict.DOES_NOT_EXIST
    assert rep.witnesses == (("y=-x", -0.5), ("y=x", 0.5))


def test_agreeing_paths_yield_consistent_value():
    rep = compare_trajectories(
        parse(CUBIC),
        [line_trajectory(1.0), trajectory_from_text("t", "t^2", "y=x^2"), line_trajectory(-1.0)],
    )
    assert rep.verdict is LimitVerdict.CONSISTENT_VALUE
    assert rep.value == 3.3333333333333334e-09
    assert abs(rep.value) < 1e-6
    assert "does not prove the limit exists" in rep.note


def test_constant_function_agrees_everywhere():
    rep = compare_trajectories(parse("pi"), default_trajectories()[:4])
    assert rep.verdict is LimitVerdict.CONSISTENT_VALUE
    assert rep.value == math.pi


def test_witnesses_are_the_extreme_pair():
    rep = compare_trajectories(
        parse("x*y/(x^2+y^2)"),
        [line_trajectory(s) for s in (0.5, 1.0, -1.0, 2.0)],
    )
    assert rep.verdict is LimitVerdict.DOES_NOT_EXIST
    (low_label, low), (high_label, high) = rep.witnesses
    assert low_label == "y=-x" and high_label == "y=x"
    assert low == -0.5 and high == 0.5
    assert high - low > AGREEMENT_TOL


@pytest.mark.parametrize(
    ("source", "paths"),
    [
        (SADDLE, default_trajectories()),
        # the level curve a = 0.1 is undefined at t = 0.1
        (SADDLE, [line_trajectory(1.0), level_curve_trajectory(0.1), level_curve_trajectory(3.0)]),
        # f is undefined on the whole of y = -x
        ("1/(x+y)", [line_trajectory(-1.0), line_trajectory(1.0)]),
        # f is undefined from t = 1e-4 on
        ("sqrt(x-0.001)*y", [line_trajectory(1.0), line_trajectory(2.0)]),
    ],
    ids=["default", "path-undefined", "f-undefined-on-a-path", "f-undefined-at-some-t"],
)
def test_compare_samples_through_limit_along_without_compiling(monkeypatch, source, paths):
    def refuse(expr):
        raise AssertionError("path limits compiled an expression")

    monkeypatch.setattr("illposed.expr._scalar_code", refuse)
    f = parse(source)
    report = compare_trajectories(f, paths)
    assert report.paths == tuple(limit_along(f, p) for p in paths)


def test_a_comparison_with_no_undefined_point_evaluates_only_the_origin_checks(monkeypatch):
    # the README saddle paths; building them evaluates each at three t
    f = parse(SADDLE)
    paths = [trajectory_from_text("t", "t"), level_curve_trajectory(1.0), level_curve_trajectory(3.0)]
    want = compare_trajectories(f, paths)

    def refuse(*args):
        raise AssertionError("path limits evaluated one point at a time")

    monkeypatch.setattr("illposed.limits.evaluate", refuse)
    assert compare_trajectories(f, paths) == want


def test_duplicate_labels_are_rejected():
    with pytest.raises(ValueError, match="label"):
        compare_trajectories(parse(SADDLE), [line_trajectory(1.0), line_trajectory(1.0)])


def test_compare_requires_at_least_two_paths():
    with pytest.raises(ValueError):
        compare_trajectories(parse(SADDLE), [line_trajectory(1.0)])


def test_verdict_soundness_on_random_rational_functions():
    # whatever the verdict, its stated evidence must hold on the report
    rng = random.Random(4)
    pool = [
        SADDLE,
        CUBIC,
        "x*y/(x^2+y^2)",
        "(x^2-y^2)/(x^2+y^2)",
        "x+y",
        "x^2*y/(x^4+y^2)",
    ]
    for _ in range(12):
        f = parse(rng.choice(pool))
        paths = [line_trajectory(s) for s in rng.sample([0.25, 0.5, 1.0, -1.0, 2.0, -3.0], 3)]
        rep = compare_trajectories(f, paths)
        converged = [p.value for p in rep.paths if p.status is PathStatus.CONVERGED]
        if rep.verdict is LimitVerdict.DOES_NOT_EXIST:
            assert max(converged) - min(converged) > AGREEMENT_TOL
        elif rep.verdict is LimitVerdict.CONSISTENT_VALUE:
            assert len(converged) == len(rep.paths)
            assert max(converged) - min(converged) <= AGREEMENT_TOL


# --- polar bound scan -----------------------------------------------------------


def test_cubic_is_angularly_bounded_with_linear_decay():
    scan = angular_bound_scan(parse(CUBIC))
    assert scan.bounded
    for r, m in scan.rows:
        assert m / r <= 2.0


def test_unbounded_direction_field_is_flagged():
    scan = angular_bound_scan(parse("1/(x*y)"))
    assert not scan.bounded
    assert scan.rows[0][1] == 22918.602696028447


def test_domain_errors_count_as_unbounded_evidence():
    scan = angular_bound_scan(parse("ln(x)"))
    assert not scan.bounded
    assert math.isinf(scan.rows[0][1])


def test_saddle_hides_from_coarse_angular_grids():
    # the blow-up of xy/(x+y) hugs the line y = -x so tightly that 720
    # angles never sample it; this is the documented false negative
    scan = angular_bound_scan(parse(SADDLE), n_angles=720)
    assert scan.bounded


def test_angular_scan_validation():
    f = parse(CUBIC)
    with pytest.raises(ValueError):
        angular_bound_scan(f, n_angles=100)
    with pytest.raises(ValueError):
        angular_bound_scan(f, radii=(0.1, 0.2))
    with pytest.raises(ValueError):
        angular_bound_scan(f, cap=0.0)


def test_bounded_scan_with_decay_implies_zero_line_limits():
    # polar bound M(r) <= C r forces every line limit to 0
    rng = random.Random(17)
    f = parse(CUBIC)
    scan = angular_bound_scan(f)
    assert scan.bounded
    for _ in range(10):
        slope = rng.uniform(-4.0, 4.0)
        tl = limit_along(f, line_trajectory(slope))
        assert tl.status is PathStatus.CONVERGED
        assert abs(tl.value) < 1e-4
    parabola = trajectory_from_text("t", "t^2", "y=x^2")
    assert abs(limit_along(f, parabola).value) < 1e-4


# --- implicit zero scan ----------------------------------------------------------


def test_cubic_difference_has_no_zeros_near_origin():
    assert implicit_zero_scan(parse("x^3+y^3-x^2-y^2"), 0.5, 400) == []


def test_cubic_difference_zero_set_appears_at_unit_scale():
    cells = implicit_zero_scan(parse("x^3+y^3-x^2-y^2"), 1.5, 400)
    assert len(cells) == 595
    nearest = min(cells, key=lambda c: (c[0] - 1.0) ** 2 + (c[1] - 1.0) ** 2)
    assert nearest == (0.9999999999999998, 0.9999999999999998)


def test_circle_zero_set_traces_the_radius():
    cells = implicit_zero_scan(parse("x^2+y^2-0.04"), 0.5, 400)
    assert len(cells) == 640
    for cx, cy in cells:
        assert abs(math.hypot(cx, cy) - 0.2) < 0.01


def test_implicit_scan_is_sorted_row_major():
    cells = implicit_zero_scan(parse("x^2+y^2-0.04"), 0.5, 400)
    assert cells == sorted(cells)


@pytest.mark.parametrize(("offset", "found"), [("0", True), ("1e-15", True), ("9e-15", True), ("2e-14", False), ("1e-13", False)])
def test_implicit_scan_flags_corners_below_1e_minus_14(offset, found):
    # x^2 + offset never changes sign; only the near-zero corner test sees the x = 0 grid column
    cells = implicit_zero_scan(parse(f"x^2+{offset}"), 1.0, 401)
    assert bool(cells) is found
    assert all(abs(cx) < 0.005 for cx, _ in cells)


def test_implicit_scan_validation():
    F = parse("x+y")
    with pytest.raises(ValueError):
        implicit_zero_scan(F, 0.0, 400)
    with pytest.raises(ValueError):
        implicit_zero_scan(F, 0.5, 50)


# --- scan kernels across block and batch boundaries ------------------------------


def _no_bound(expr, boxes):
    """An _array_bounds that proves nothing: infinite ends shaped like the boxes."""
    shape = np.broadcast_shapes(*(np.shape(end) for box in boxes.values() for end in box))
    return np.full(shape, -math.inf), np.full(shape, math.inf)


def _meshgrid_scan(F, R, grid_n, tiny=1e-14):
    """The implicit scan as one whole-grid evaluation, as an oracle for the row blocks."""
    xs = np.linspace(-R, R, grid_n)
    grid_x, grid_y = np.meshgrid(xs, xs, indexing="ij")
    values = compile_array(F, ("x", "y"))(grid_x, grid_y)
    corners = (values[:-1, :-1], values[1:, :-1], values[:-1, 1:], values[1:, 1:])
    finite = np.logical_and.reduce([np.isfinite(c) for c in corners])
    lowest = np.minimum.reduce(corners)
    highest = np.maximum.reduce(corners)
    near_zero = np.logical_or.reduce([np.abs(c) < tiny for c in corners])
    flagged = finite & (((lowest < 0.0) & (highest > 0.0)) | near_zero)
    spans_zero = (xs[:-1] <= 0.0) & (xs[1:] >= 0.0)
    flagged &= ~(spans_zero[:, None] & spans_zero[None, :])
    centres = 0.5 * (xs[:-1] + xs[1:])
    flagged &= (centres[:, None] ** 2 + centres[None, :] ** 2) <= R * R
    return [(float(centres[i]), float(centres[j])) for i, j in np.argwhere(flagged)]


def _short_blocks(patch, rows, grid_n):
    """Row blocks of `rows` cell rows, and bound passes of at most rows * grid_n tiles,
    so a small grid is scanned in several blocks and several passes."""
    patch.setattr(limits, "_BLOCK_ROWS", rows)
    patch.setattr(limits, "_ROW_BLOCK", rows * grid_n)


def _boundary_line(grid_n):
    # x equals the lattice row 84 exactly; with 7-row blocks that row is
    # the last of one block and the first of the next
    return f"x-{float(np.linspace(-1.0, 1.0, grid_n)[84])!r}"


@pytest.mark.parametrize("rows", [7, 1])
@pytest.mark.parametrize("grid_n", [151, 257])
@pytest.mark.parametrize(
    ("text", "R"),
    [("sqrt(1-x^2-y^2)-0.5", 1.2), ("1/x-y", 1.0), ("x^2+y^2-0.04", 0.5), (None, 1.0)],
    ids=["nan-region", "pole-line", "circle", "block-boundary-line"],
)
def test_implicit_row_blocks_match_the_whole_grid(monkeypatch, rows, grid_n, text, R):
    F = parse(text or _boundary_line(grid_n))
    _short_blocks(monkeypatch, rows, grid_n)
    cells = implicit_zero_scan(F, R, grid_n)
    assert cells == _meshgrid_scan(F, R, grid_n)
    if text is None:  # both blocks flag the cells on their side of the line
        xs = np.linspace(-1.0, 1.0, grid_n).tolist()
        assert {cx for cx, _ in cells} == {0.5 * (xs[83] + xs[84]), 0.5 * (xs[84] + xs[85])}


@st.composite
def _hostile_fields(draw):
    grid_n = draw(st.integers(100, 300))
    R = draw(st.floats(0.25, 2.0))
    u = draw(st.floats(0.0, 1.0))
    lattice = float(np.linspace(-R, R, grid_n)[draw(st.integers(0, grid_n - 1))])
    text = draw(st.sampled_from([
        f"sqrt(1-x^2-y^2)-{0.2 + 0.6 * u!r}",  # nan outside the unit disk
        f"ln(x+{u!r})",  # nan left of x = -u
        "1/x-y", "1/(x*y)",  # inf on the axes when grid_n is odd
        "x*y", f"x-({lattice!r})",  # exact zeros on lattice lines
        "-(x*y)", "x*0-y",  # zeros of either sign
        "x^2+1e-15", "x^2+2e-14",  # just inside and outside the near-zero bound
        "tan(3*x)-y", "x^y-0.5",  # unknown where a tile holds a pole of tan or its base reaches 0
    ]))
    return text, R, grid_n


@settings(max_examples=100, deadline=None)
@given(_hostile_fields(), st.sampled_from([1, 7]))
def test_implicit_scan_matches_the_whole_grid_on_hostile_fields(field, rows):
    text, R, grid_n = field
    F = parse(text)
    with pytest.MonkeyPatch.context() as patch:
        _short_blocks(patch, rows, grid_n)
        cells = implicit_zero_scan(F, R, grid_n)
    assert cells == _meshgrid_scan(F, R, grid_n)


@settings(max_examples=100, deadline=None)
@given(_hostile_fields(), st.sampled_from([1, 7]), st.sampled_from([1, 3, 16]))
def test_tiled_scan_matches_the_whole_grid_on_hostile_fields(field, rows, tile):
    text, R, grid_n = field
    F = parse(text)
    with pytest.MonkeyPatch.context() as patch:
        _short_blocks(patch, rows, grid_n)
        patch.setattr(limits, "_TILE", tile)
        cells = implicit_zero_scan(F, R, grid_n)
    assert cells == _meshgrid_scan(F, R, grid_n)


def test_the_sqrt_field_evaluates_a_small_share_of_its_lattice(monkeypatch):
    # nan outside the unit disk and far from the curve inside it: only
    # tiles near the circle of radius sqrt(1-0.5^2) are evaluated
    calls = _counting_compile(monkeypatch)
    cells = implicit_zero_scan(parse("sqrt(1-x^2-y^2)-0.5"), 1.2, 2000)
    assert cells and sum(calls) < 0.15 * 2000**2
    # each numpy call has a fixed cost, so blocks are tall: 24-row blocks made 71 calls
    assert len(calls) <= 40


@pytest.mark.parametrize("text", ["x^2+y^2+1", "sqrt(-1-x^2-y^2)", "1/x+ln(-1-x^2-y^2)"])
def test_fields_proven_free_of_zeros_are_never_evaluated(monkeypatch, text):
    F = parse(text)
    expected = _meshgrid_scan(F, 1.0, 400)
    calls = _counting_compile(monkeypatch)
    assert implicit_zero_scan(F, 1.0, 400) == expected == []
    assert calls == []


def test_each_bound_pass_holds_at_most_a_row_block_of_tiles(monkeypatch):
    F, grid_n = parse("x^2+y^2-0.25"), 4000
    expected = implicit_zero_scan(F, 1.0, grid_n)
    passes = []
    real_bounds = limits._array_bounds

    def recording_bounds(expr, boxes):
        box = real_bounds(expr, boxes)
        passes.append(box[0].shape)
        return box

    monkeypatch.setattr(limits, "_array_bounds", recording_bounds)
    _short_blocks(monkeypatch, 2, grid_n)
    assert implicit_zero_scan(F, 1.0, grid_n) == expected
    assert len(passes) > 1 and all(rows * tiles <= limits._ROW_BLOCK for rows, tiles in passes)
    # blocks of two cell rows, each bounded once
    assert sum(rows for rows, _ in passes) == math.ceil((grid_n - 1) / 2)


# corner values at the kernel's edges: the 1e-14 thresholds and their
# neighbours, signed zeros, subnormals, and the non-finite values
_EDGE_VALUES = (
    1e-14, -1e-14, math.nextafter(1e-14, 0.0), math.nextafter(-1e-14, 0.0), 2e-14, -2e-14,
    0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf, math.nan,
)


def _lattice_compile(table, R):
    """A compile_array stand-in whose F reads each lattice point from table."""
    xs = np.linspace(-R, R, len(table))

    def compile_lattice(*args):
        return lambda x, y: table[np.searchsorted(xs, x), np.searchsorted(xs, y)]

    return compile_lattice


def _corner_kinds(table, R):
    """Which edge cases occur among the cells that the origin and disk tests keep."""
    grid_n = len(table)
    xs = np.linspace(-R, R, grid_n)
    centres = 0.5 * (xs[:-1] + xs[1:])
    kinds = set()
    for i in range(grid_n - 1):
        for j in range(grid_n - 1):
            if (xs[i] <= 0.0 <= xs[i + 1] and xs[j] <= 0.0 <= xs[j + 1]) or centres[i] ** 2 + centres[j] ** 2 > R * R:
                continue
            c = [table[i, j], table[i + 1, j], table[i, j + 1], table[i + 1, j + 1]]
            finite = [v for v in c if math.isfinite(v)]
            both_signs = min(finite, default=0.0) < 0.0 < max(finite, default=0.0)
            if len(finite) == 4 and max(c) == -1e-14:
                kinds.add("all <= -1e-14, one exactly")
            if len(finite) == 4 and min(c) == 1e-14:
                kinds.add("all >= 1e-14, one exactly")
            if any(math.isinf(v) for v in c) and both_signs:
                kinds.add("inf beside both signs")
            if any(math.isnan(v) for v in c) and both_signs:
                kinds.add("nan beside a sign change")
            if len(finite) == 4 and 5e-324 in c and min(c) > -1e-14:
                kinds.add("finite with a subnormal")
    return kinds


@pytest.mark.parametrize("rows", [1, 7, None])
def test_implicit_kernel_matches_the_whole_grid_on_edge_corners(monkeypatch, rows):
    grid_n, R = 101, 1.0
    rng = random.Random(15)
    table = np.array([[rng.choice(_EDGE_VALUES) for _ in range(grid_n)] for _ in range(grid_n)])
    assert len(_corner_kinds(table, R)) == 5
    compile_lattice = _lattice_compile(table, R)
    # the bounds of x+y do not describe the table, so no tile may be skipped
    monkeypatch.setattr(limits, "_array_bounds", _no_bound)
    monkeypatch.setattr(limits, "compile_array", compile_lattice)
    monkeypatch.setitem(_meshgrid_scan.__globals__, "compile_array", compile_lattice)
    if rows is not None:
        _short_blocks(monkeypatch, rows, grid_n)
    F = parse("x+y")  # never evaluated: both scans read the table
    cells = implicit_zero_scan(F, R, grid_n)
    assert cells and cells == _meshgrid_scan(F, R, grid_n)


@pytest.mark.parametrize("grid_n", [4000, 151])
def test_implicit_row_blocks_stay_within_the_bound(monkeypatch, grid_n):
    # the memory bound without tracemalloc: each F call sees one block of rows
    blocks = []
    # with no bounds no tile is skipped, so every row block sees whole rows
    monkeypatch.setattr(limits, "_array_bounds", _no_bound)
    real_compile = limits.compile_array

    def recording_compile(*args):
        fn = real_compile(*args)

        def wrapper(x, y):
            assert np.shape(x) == (len(x), 1) and np.shape(y) == (1, grid_n)
            blocks.append(np.ravel(x).tolist())
            return fn(x, y)

        return wrapper

    monkeypatch.setattr(limits, "compile_array", recording_compile)
    implicit_zero_scan(parse("x^2+y^2-0.25"), 1.0, grid_n)
    assert len(blocks) == math.ceil((grid_n - 1) / limits._BLOCK_ROWS)
    assert all(len(rows) <= limits._BLOCK_ROWS + 1 for rows in blocks)
    # consecutive blocks share exactly one row, and together they cover every row once
    assert all(a[-1] == b[0] for a, b in zip(blocks, blocks[1:]))
    assert blocks[0] + [x for rows in blocks[1:] for x in rows[1:]] == np.linspace(-1.0, 1.0, grid_n).tolist()


def test_implicit_scan_memory_stays_per_block():
    # one whole-grid float64 array at grid 4000 would be 128 MB
    tracemalloc.start()
    try:
        cells = implicit_zero_scan(parse("sqrt(1-x^2-y^2)-0.5"), 1.2, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells and peak < 16 * 2**20


def _whole_circle_scan(f, radii, n_angles, cap):
    """The polar scan with every angle of a circle in one array, as an oracle for the batches."""
    fn = compile_array(f, ("x", "y"))
    angles = (np.arange(n_angles, dtype=float) + 0.5) * (2.0 * math.pi / n_angles)
    rows = []
    for r in radii:
        worst = float(np.max(np.abs(fn(r * np.cos(angles), r * np.sin(angles)))))
        rows.append((r, worst if math.isfinite(worst) else math.inf))
    return AngularScan(tuple(rows), all(m / r < cap for r, m in rows), n_angles, cap)


@pytest.mark.parametrize("text", [CUBIC, "1/(x*y)", "ln(x)", "sqrt(y)"])
def test_polar_chunks_match_the_whole_circle(monkeypatch, text):
    f, radii = parse(text), (0.5, 0.1, 1e-3)
    monkeypatch.setattr(limits, "_SCAN_CHUNK", 1000)
    # 2501 angles make 10 boxes of 256, the last of 197, visited in 4 batches of
    # at most 3 boxes; 360 angles make 2 boxes in one batch
    for n_angles in (2501, 360):
        scan = angular_bound_scan(f, radii, n_angles)
        assert scan == _whole_circle_scan(f, radii, n_angles, ANGULAR_CAP), n_angles
        if text in ("ln(x)", "sqrt(y)"):
            # sqrt(y) is finite on the first boxes and nan only later
            assert not scan.bounded
            assert all(m == math.inf for _, m in scan.rows)


def test_a_void_field_reads_inf_on_every_circle(monkeypatch):
    # sqrt(-1-x^2-y^2) is nan at every angle, so its box bounds are void;
    # read as nan they would compare below every running maximum
    f, radii = parse("sqrt(-1-x^2-y^2)"), (0.5, 0.1, 1e-3)
    monkeypatch.setattr(limits, "_SCAN_CHUNK", 1000)
    scan = angular_bound_scan(f, radii, 2501)
    assert scan == _whole_circle_scan(f, radii, 2501, ANGULAR_CAP)
    assert not scan.bounded and all(m == math.inf for _, m in scan.rows)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("error", [_Boom, KeyboardInterrupt])
def test_an_error_in_f_ends_the_scan_and_propagates(monkeypatch, error):
    # with no bounds every batch is evaluated, in order
    monkeypatch.setattr(limits, "_array_bounds", _no_bound)
    calls = []
    real_compile = limits.compile_array

    def failing_compile(*args):
        fn = real_compile(*args)

        def wrapper(x, y):
            calls.append(len(calls))
            if len(calls) == 3:
                raise error("injected")
            return fn(x, y)

        return wrapper

    monkeypatch.setattr(limits, "compile_array", failing_compile)
    monkeypatch.setattr(limits, "_SCAN_CHUNK", 1000)
    with pytest.raises(error, match="injected"):
        angular_bound_scan(parse(CUBIC), (0.1,), 80_000)  # 105 batches of 3 boxes of 256 angles
    # f is called no more once it has raised on the third batch
    assert calls == [0, 1, 2]


def test_a_many_chunk_scan_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("the polar scan started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(limits, "_SCAN_CHUNK", 1000)
    f, radii = parse(CUBIC), (0.5, 0.1)
    # 10 boxes of 256 angles, the last of 197, in 4 batches
    assert angular_bound_scan(f, radii, 2501) == _whole_circle_scan(f, radii, 2501, ANGULAR_CAP)


def _counting_compile(monkeypatch) -> list[int]:
    """The number of points in each evaluation of f, across every scan that follows."""
    calls = []
    real_compile = limits.compile_array

    def counting_compile(*args):
        fn = real_compile(*args)

        def wrapper(x, y):
            calls.append(np.broadcast(x, y).size)
            return fn(x, y)

        return wrapper

    monkeypatch.setattr(limits, "compile_array", counting_compile)
    return calls


def test_the_saddle_at_ten_million_angles_evaluates_a_handful_of_chunks(monkeypatch):
    calls = _counting_compile(monkeypatch)
    f = parse("1.5*x*y/(x+y)")
    scan = angular_bound_scan(f, (1e-3,), 10_000_000)
    # 1,024 boxes of 9,766 angles, of which two are evaluated
    assert len(calls) <= 4 and sum(calls) <= 2 * 9_766 and not scan.bounded
    monkeypatch.setattr(limits, "_array_bounds", _no_bound)
    assert angular_bound_scan(f, (1e-3,), 10_000_000) == scan
    assert len(calls) > 611


def test_tan_fields_evaluate_a_handful_of_chunks(monkeypatch):
    # tan's box is unknown only where it holds a pole; x*y stays far from one
    calls = _counting_compile(monkeypatch)
    f = parse("tan(x*y)+x")
    scan = angular_bound_scan(f, (0.1, 1e-3), 1_000_000)
    assert len(calls) <= 16
    monkeypatch.setattr(limits, "_array_bounds", _no_bound)
    assert angular_bound_scan(f, (0.1, 1e-3), 1_000_000) == scan
    assert len(calls) > 124


def test_integer_power_fields_evaluate_a_handful_of_chunks(monkeypatch):
    # t^5 is odd and increasing, so a box is bounded though it holds t < 0
    calls = _counting_compile(monkeypatch)
    f = parse("x^5+y^5")
    scan = angular_bound_scan(f, (0.1, 1e-3), 1_000_000)
    assert len(calls) <= 16
    monkeypatch.setattr(limits, "_array_bounds", _no_bound)
    assert angular_bound_scan(f, (0.1, 1e-3), 1_000_000) == scan
    assert len(calls) > 124


def test_the_readme_cubic_evaluates_only_its_live_boxes(monkeypatch):
    # 1,024 boxes of 977 angles, visited by descending bound in batches of 16: 34,276
    # points are evaluated, within 36 boxes of 1,024
    calls = _counting_compile(monkeypatch)
    f = parse(CUBIC)
    scan = angular_bound_scan(f, (0.1, 1e-4), 1_000_000)
    assert sum(calls) <= 36_864
    del calls[:]
    monkeypatch.setattr(limits, "_array_bounds", _no_bound)
    assert angular_bound_scan(f, (0.1, 1e-4), 1_000_000) == scan
    assert sum(calls) == 2 * 1_000_000


def test_a_chunk_whose_bound_ties_the_maximum_is_evaluated(monkeypatch):
    # 1 + 0*x is bounded by exactly 1 on every box: only a bound strictly
    # below the running maximum lets a box go unevaluated, so every angle
    # is evaluated at both radii
    calls = _counting_compile(monkeypatch)
    monkeypatch.setattr(limits, "_SCAN_CHUNK", 1000)
    assert angular_bound_scan(parse("1+0*x"), (0.5, 0.1), 9000).rows == ((0.5, 1.0), (0.1, 1.0))
    assert sum(calls) == 2 * 9000


@pytest.mark.parametrize("chunk", [None, 1000])
@pytest.mark.parametrize("n_angles", [360, 2_501, 20_011, 1_000_003])
def test_each_angle_is_evaluated_once_per_radius(monkeypatch, n_angles, chunk):
    # no count is a whole number of boxes, so the last box runs past the circle;
    # a chunk of 1,000 angles makes batches of 3 boxes of 256
    if chunk is not None:
        monkeypatch.setattr(limits, "_SCAN_CHUNK", chunk)
    monkeypatch.setattr(limits, "_array_bounds", _no_bound)
    calls = _counting_compile(monkeypatch)
    f, radii = parse(CUBIC), (0.5, 0.1)
    assert angular_bound_scan(f, radii, n_angles) == _whole_circle_scan(f, radii, n_angles, ANGULAR_CAP)
    assert sum(calls) == len(radii) * n_angles and max(calls) <= limits._SCAN_CHUNK


@given(
    trees(),
    st.sets(st.sampled_from([1e150, 2.0, 0.5, 1e-3, 1e-150]), min_size=1).map(lambda rs: sorted(rs, reverse=True)),
    st.integers(361, 20_011),
    st.sampled_from([16, 64, 500, 4096]),
    st.sampled_from([2, 16, 1024]),
)
# 79 boxes of 256 angles, the last of 43, visited in 5 batches of 16 boxes, the last of 15
@example(parse(CUBIC), [0.5, 1e-3], 20_011, 4096, 1024)
# |f| peaks near 276 degrees at r = 0.5, where -1e-2*y^3 wins, and near 60 degrees at
# r = 0.1, where 1e-4*y wins.  So a batch visited later gathers boxes live at r = 0.1 alone
@example(parse("x+10*y^2+1e-4*y-1e-2*y^3"), [0.5, 0.1], 20_011, 4096, 1024)
@example(parse("x+10*y^2+1e-4*y-1e-2*y^3"), [0.5, 0.1], 4096, 1024, 1024)
@settings(max_examples=150, deadline=None)
def test_pruned_polar_scan_matches_the_whole_circle(f, radii, n_angles, chunk, block):
    # 1e150 and 1e-150 reach the overflow and underflow edges of ^4.  A batch of
    # 1,024 or 4,096 angles holds several boxes of 256
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(limits, "_SCAN_CHUNK", chunk)
        patch.setattr(limits, "_BOUND_BLOCK", block)
        scan = angular_bound_scan(f, radii, n_angles)
    assert scan == _whole_circle_scan(f, radii, n_angles, ANGULAR_CAP)


@pytest.mark.parametrize("n_angles", [200_000_000, 2_000_000_000])
def test_polar_scan_memory_stays_per_block(n_angles):
    # one whole-circle float64 array at 2e9 angles would be 16 GB
    tracemalloc.start()
    try:
        scan = angular_bound_scan(parse("x*y"), (0.1,), n_angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.rows[0][1] == pytest.approx(0.005) and peak < 4 * 2**20


# --- scan verdicts against scalar libm re-evaluation -------------------------------


def _scalar_or_inf(fs, x, y):
    try:
        return fs(x, y)
    except EvalError:
        return math.inf


@pytest.mark.parametrize("text", [CUBIC, "1/(x*y)"])
def test_polar_verdict_agrees_with_scalar_libm(text):
    # numpy's SIMD sin, cos, exp and log may differ from libm in the last
    # bits, so bytes can vary by host; the verdict must not
    f = parse(text)
    scan = angular_bound_scan(f)
    fs = compile_scalar(f, ("x", "y"))
    cell = 2.0 * math.pi / scan.n_angles
    bounded = True
    for r, m in scan.rows:
        worst = max(
            abs(_scalar_or_inf(fs, r * math.cos((k + 0.5) * cell), r * math.sin((k + 0.5) * cell)))
            for k in range(scan.n_angles)
        )
        assert math.isclose(m, worst, rel_tol=1e-12)
        bounded = bounded and worst / r < ANGULAR_CAP
    assert scan.bounded == bounded


def _scalar_cells(F, R, grid_n, tiny=1e-14, exempt_within=1e-12):
    """Flagged cells from math.* evaluation, and the cells too close to zero to judge."""
    fs = compile_scalar(F, ("x", "y"))
    xs = np.linspace(-R, R, grid_n).tolist()
    values = [[_scalar_or_inf(fs, x, y) for y in xs] for x in xs]
    centres = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    flagged, exempt = set(), set()
    for i, cx in enumerate(centres):
        for j, cy in enumerate(centres):
            if (xs[i] <= 0.0 <= xs[i + 1] and xs[j] <= 0.0 <= xs[j + 1]) or cx * cx + cy * cy > R * R:
                continue
            corners = (values[i][j], values[i + 1][j], values[i][j + 1], values[i + 1][j + 1])
            if not all(map(math.isfinite, corners)):
                continue
            if min(corners) < 0.0 < max(corners) or any(abs(c) < tiny for c in corners):
                flagged.add((cx, cy))
            if any(abs(c) < exempt_within for c in corners):
                exempt.add((cx, cy))
    return flagged, exempt


@pytest.mark.parametrize("R", [0.5, 1.5])
def test_implicit_cells_agree_with_scalar_libm(R):
    F = parse("x^3+y^3-x^2-y^2")
    cells = implicit_zero_scan(F, R, 400)
    flagged, exempt = _scalar_cells(F, R, 400)
    assert set(cells) ^ flagged <= exempt
    assert len(flagged) == (0 if R == 0.5 else 595)


# --- renderers --------------------------------------------------------------------


def test_limit_report_json_shape():
    rep = compare_trajectories(
        parse(SADDLE),
        [line_trajectory(1.0), level_curve_trajectory(1.0), level_curve_trajectory(3.0)],
    )
    data = json.loads(limit_report_json(rep))
    assert list(data) == ["verdict", "value", "witnesses", "note", "paths"]
    assert data["verdict"] == "DoesNotExist"
    assert data["witnesses"] == [
        {"label": "y=x", "limit": 2.5e-09},
        {"label": "level curve a=3", "limit": 2.9999999544128504},
    ]
    assert [p["label"] for p in data["paths"]] == ["y=x", "level curve a=1", "level curve a=3"]


def test_samples_csv_sections():
    rep = compare_trajectories(parse(SADDLE), [line_trajectory(1.0), line_trajectory(-1.0)])
    text = samples_csv(rep)
    assert "# trajectory: y=x\n# status: Converged\nt,x,y,f\n" in text
    assert "# trajectory: y=-x\n# status: Inconclusive\n" in text
    # undefined f renders as an empty cell
    assert "0.10000000000000001,0.10000000000000001,-0.10000000000000001,\n" in text


def test_polar_csv_golden_prefix():
    scan = angular_bound_scan(parse(CUBIC))
    text = polar_csv(scan)
    assert text.startswith(
        "# bounded=true\n# n_angles=720\nr,max_abs_f\n"
        "0.10000000000000001,0.099997152550477655\n"
    )


def test_implicit_csv_golden():
    text = implicit_csv([(0.25, -0.5)])
    assert text == "cell_x,cell_y\n0.25,-0.5\n"


@pytest.mark.parametrize("round_to", [None, 0, 3])
def test_implicit_csv_formats_repeated_values_as_it_formats_each_one(round_to):
    # 0.0 == -0.0 and nan != nan, so neither may share a key with the other zero or another nan
    nan = math.nan
    hostile = [0.0, -0.0, nan, float("nan"), -nan, math.inf, -math.inf, 5e-324, -5e-324, 2.0**-1022, 0.25, -0.5]
    rng = random.Random(19)
    cells = [(rng.choice(hostile), rng.choice(hostile)) for _ in range(400)]
    cells += [(-0.0, 0.0), (0.0, -0.0), (nan, nan)]
    spec = "%.17g" if round_to is None else f"%.{round_to}f"
    expected = "cell_x,cell_y\n" + "".join(f"{spec % x},{spec % y}\n" for x, y in cells)
    assert implicit_csv(cells, round_to) == expected
    assert "-0" in expected and "nan" in expected


def _nan(sign, payload):
    """The NaN with the given sign bit and nonzero 52-bit payload."""
    return struct.unpack("<d", struct.pack("<Q", sign << 63 | 0x7FF << 52 | payload))[0]


# any double: signed zeros, subnormals and infinities among them, and NaNs of both signs with any payload
_doubles = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022 - 5e-324, math.inf, -math.inf]),
    st.builds(_nan, st.integers(0, 1), st.integers(1, 2**52 - 1)),
)


@settings(max_examples=300, deadline=None)
@given(
    # pairs drawn from a small pool, so values repeat within and across the columns
    st.lists(_doubles, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=40)
    ),
    st.sampled_from([None, 0, 3, 17]),
)
def test_implicit_csv_formats_any_doubles_as_it_formats_each_one(cells, round_to):
    spec = "%.17g" if round_to is None else f"%.{round_to}f"
    expected = "cell_x,cell_y\n" + "".join(f"{spec % x},{spec % y}\n" for x, y in cells)
    assert implicit_csv(cells, round_to) == expected
