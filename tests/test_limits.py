"""Two-variable limits at the origin: path probes, polar bounds, zero scans.

The running counterexample is f = xy/(x+y).  Along any line through the
origin the limit is 0, yet the level curve xy/(x+y) = a (a path into the
origin for every a) pins the value a, so the limit does not exist even
though the "test all lines" heuristic says otherwise.
"""

import json
import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


@pytest.mark.parametrize("a", [-5.0, -2.0, -0.5, 0.5, 2.0, 5.0])
def test_level_curve_tails_pass_the_cauchy_test_at_the_schedule_end(a):
    # rounding on the level curve grows like |a|^2 * eps / t; at the 5e-9 tail it stays below CAUCHY_TOL
    tl = limit_along(parse(SADDLE), level_curve_trajectory(a))
    assert tl.status is PathStatus.CONVERGED
    assert abs(tl.value - a) < CAUCHY_TOL


def test_undefined_samples_are_skipped_with_notes():
    tl = limit_along(parse(SADDLE), line_trajectory(-1.0))
    assert tl.status is PathStatus.INCONCLUSIVE
    assert tl.value is None
    assert len(tl.notes) == len(DEFAULT_SCHEDULE) + 1
    assert "division by zero" in tl.notes[0]
    assert tl.notes[-1] == "fewer than 3 valid samples; no tail to judge"


def test_oscillation_is_inconclusive():
    tl = limit_along(parse("sin(1/x)"), line_trajectory(1.0))
    assert tl.status is PathStatus.INCONCLUSIVE


def test_divergence_is_flagged():
    tl = limit_along(parse("1/(x^2+y^2)"), line_trajectory(1.0))
    assert tl.status is PathStatus.DIVERGED
    assert tl.value is None


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


def test_compare_samples_through_limit_along_without_compiling(monkeypatch):
    def refuse(expr):
        raise AssertionError("path limits compiled an expression")

    monkeypatch.setattr("illposed.expr._scalar_code", refuse)
    f = parse(SADDLE)
    paths = default_trajectories()
    report = compare_trajectories(f, paths)
    assert report.paths == tuple(limit_along(f, p) for p in paths)


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


# --- scan kernels across chunk boundaries ---------------------------------------


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
    monkeypatch.setattr(limits, "_SCAN_CHUNK", rows * grid_n)
    cells = implicit_zero_scan(F, R, grid_n)
    assert cells == _meshgrid_scan(F, R, grid_n)
    if text is None:  # both blocks flag the cells on their side of the line
        xs = np.linspace(-1.0, 1.0, grid_n).tolist()
        assert {cx for cx, _ in cells} == {0.5 * (xs[83] + xs[84]), 0.5 * (xs[84] + xs[85])}


def _whole_circle_scan(f, radii, n_angles, cap):
    """The polar scan with every angle of a circle in one array, as an oracle for the chunks."""
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
    # 2501 angles make three chunks, so seven workers still get only three
    # shares; 360 angles make one chunk, fewer than workers * chunk
    for workers in (1, 2, 3, 7):
        monkeypatch.setattr(limits, "_WORKERS", workers)
        for n_angles in (2501, 360):
            scan = angular_bound_scan(f, radii, n_angles)
            assert scan == _whole_circle_scan(f, radii, n_angles, ANGULAR_CAP), (workers, n_angles)
            if text in ("ln(x)", "sqrt(y)"):
                # sqrt(y) is finite on the whole first chunk and nan only later
                assert not scan.bounded
                assert all(m == math.inf for _, m in scan.rows)


def test_polar_shares_agree_with_more_workers_than_cores_under_fast_switching(monkeypatch):
    f, radii = parse(SADDLE), (0.5, 1e-3)
    monkeypatch.setattr(limits, "_SCAN_CHUNK", 500)
    monkeypatch.setattr(limits, "_WORKERS", 7)
    expected = _whole_circle_scan(f, radii, 20_001, ANGULAR_CAP)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert angular_bound_scan(f, radii, 20_001) == expected
    finally:
        sys.setswitchinterval(interval)


class _Boom(Exception):
    pass


@pytest.mark.parametrize(
    ("failing", "error"),
    [("worker", _Boom), ("main", _Boom), ("main", KeyboardInterrupt)],
)
def test_a_failing_share_stops_the_others_within_one_chunk(monkeypatch, failing, error):
    calls: dict[str, int] = {"main": 0, "worker": 0}
    at_error: dict[str, int] = {}
    real_compile = limits.compile_array

    def failing_compile(*args):
        fn = real_compile(*args)

        def wrapper(x, y):
            share = "main" if threading.current_thread() is threading.main_thread() else "worker"
            if share == failing and not at_error:
                at_error.update(calls)
                raise error("injected")
            calls[share] += 1
            return fn(x, y)

        return wrapper

    monkeypatch.setattr(limits, "compile_array", failing_compile)
    monkeypatch.setattr(limits, "_SCAN_CHUNK", 1000)
    monkeypatch.setattr(limits, "_WORKERS", 2)
    threads_before = threading.active_count()
    with pytest.raises(error, match="injected"):
        angular_bound_scan(parse(CUBIC), (0.1,), 80_000)  # two shares of 40 chunks
    assert threading.active_count() == threads_before
    other = "main" if failing == "worker" else "worker"
    # at most the chunk in flight when the error struck, and one begun
    # before the stop event was set
    assert calls[other] - at_error[other] <= 2
    assert calls[failing] == 0


def test_a_one_chunk_scan_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-chunk scan started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(limits, "_WORKERS", 7)
    scan = angular_bound_scan(parse(CUBIC))
    assert scan.n_angles == 720 <= limits._SCAN_CHUNK


def test_polar_shares_run_in_threads_of_their_own(monkeypatch):
    idents = set()
    real_compile = limits.compile_array

    def recording_compile(*args):
        fn = real_compile(*args)

        def wrapper(x, y):
            idents.add(threading.get_ident())
            return fn(x, y)

        return wrapper

    monkeypatch.setattr(limits, "compile_array", recording_compile)
    monkeypatch.setattr(limits, "_SCAN_CHUNK", 1000)
    monkeypatch.setattr(limits, "_WORKERS", 3)
    angular_bound_scan(parse(CUBIC), (0.1,), 9000)
    assert len(idents) == 3 and threading.get_ident() in idents


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
