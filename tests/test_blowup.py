"""Finite-time blow-up detection on y' = y^2 + 1, y(0) = 0.

The exact solution tan(x) has a vertical asymptote at pi/2, so the
threshold-crossing abscissa under step refinement should squeeze a
bracket around 1.5707963...  All frozen doubles come from an
independent rerun of the same fixed-step recurrences.
"""

import json
import math
import tracemalloc

import pytest

from illposed.blowup import (
    BlowupVerdict,
    EvidenceRow,
    _classify,
    estimate_blowup,
    report_json,
    threshold_crossing,
)
from illposed.expr import parse
from illposed.ode import IVP, integrate_euler

PI_HALF = math.pi / 2


def tan_ivp():
    return IVP(parse("y^2+1"), 0.0, 0.0)


def test_threshold_crossing_near_the_asymptote():
    assert threshold_crossing(tan_ivp(), 1e-4, 2.0, 1e6) == 1.572


def test_crossing_is_monotone_in_the_threshold():
    lo = threshold_crossing(tan_ivp(), 1e-4, 2.0, 1e6)
    hi = threshold_crossing(tan_ivp(), 1e-4, 2.0, 1e8)
    assert lo <= hi
    assert hi == 1.5721


def test_no_crossing_returns_none():
    assert threshold_crossing(tan_ivp(), 0.1, 1.0, 1e8) is None


def test_detects_blowup_with_default_style_parameters():
    rep = estimate_blowup(tan_ivp(), 2.0, 1e8, 0.01, 8)
    assert rep.verdict is BlowupVerdict.BLOWUP_DETECTED
    assert rep.x_estimate == 1.571796875
    assert rep.bracket == (1.5700781249999998, 1.571796875)
    assert rep.tolerance == 0.0017187500000002132
    assert rep.bracket[0] <= PI_HALF <= rep.bracket[1]
    assert rep.bracket[1] - rep.bracket[0] <= 0.05


def test_evidence_rows_halve_the_step_and_tighten_the_crossing():
    rep = estimate_blowup(tan_ivp(), 2.0, 1e8, 0.01, 8)
    hs = [row.h for row in rep.evidence]
    assert hs == [0.01 / 2**k for k in range(8)]
    xs = [row.crossing_x for row in rep.evidence]
    assert xs == [
        1.6600000000000001,
        1.615,
        1.595,
        1.58375,
        1.5775000000000001,
        1.574375,
        1.57265625,
        1.571796875,
    ]
    # quantization aside, crossings decrease toward the asymptote
    for a, b, h in zip(xs, xs[1:], hs[1:]):
        assert b <= a + h + 1e-12


def test_no_grid_point_ever_equals_pi_half():
    # rational steps on a rational start can never land on pi/2 exactly
    rep = estimate_blowup(tan_ivp(), 2.0, 1e8, 0.01, 8)
    for row in rep.evidence:
        n = round(row.crossing_x / row.h)
        for k in range(max(0, n - 2), n + 3):
            assert k * row.h != PI_HALF


def test_bounded_problem_reports_extent():
    rep = estimate_blowup(IVP(parse("x"), 0.0, 0.0), 10.0, 1e8, 0.1, 4)
    assert rep.verdict is BlowupVerdict.BOUNDED_ON_INTERVAL
    assert rep.x_estimate is None
    assert rep.x_end == 10.0
    assert rep.max_abs_y == 49.937499999999986


def test_decaying_problem_is_bounded():
    rep = estimate_blowup(IVP(parse("0-y"), 0.0, 1.0), 10.0, 1e8, 0.1, 3)
    assert rep.verdict is BlowupVerdict.BOUNDED_ON_INTERVAL
    assert rep.max_abs_y == 1.0


def test_short_window_is_inconclusive():
    # at x_max=1.6 the coarse Euler runs lag past the window while the
    # refined ones cross, and RK4 crosses at every level
    rep = estimate_blowup(tan_ivp(), 1.6, 1e8, 0.01, 4)
    assert rep.verdict is BlowupVerdict.INCONCLUSIVE
    assert "disagree" in rep.reason
    assert rep.x_estimate is None
    assert rep.bracket is None


def test_parameter_validation():
    with pytest.raises(ValueError):
        estimate_blowup(tan_ivp(), 2.0, 1e8, 0.01, 2)
    with pytest.raises(ValueError):
        estimate_blowup(tan_ivp(), 2.0, -1.0, 0.01, 8)
    with pytest.raises(ValueError):
        estimate_blowup(tan_ivp(), 2.0, 1e8, 0.0, 8)
    with pytest.raises(ValueError):
        estimate_blowup(tan_ivp(), 0.0, 1e8, 0.01, 8)
    with pytest.raises(ValueError):
        threshold_crossing(tan_ivp(), 1e-4, 2.0, 0.0)


def test_report_json_shape_and_order():
    rep = estimate_blowup(tan_ivp(), 2.0, 1e8, 0.01, 3)
    data = json.loads(report_json(rep))
    assert list(data) == [
        "verdict",
        "x_estimate",
        "bracket",
        "tolerance",
        "x_end",
        "max_abs_y",
        "reason",
        "evidence",
    ]
    assert data["verdict"] == "BlowupDetected"
    assert [row["h"] for row in data["evidence"]] == [0.01, 0.005, 0.0025]


def test_report_json_is_deterministic():
    a = report_json(estimate_blowup(tan_ivp(), 2.0, 1e8, 0.01, 4))
    b = report_json(estimate_blowup(tan_ivp(), 2.0, 1e8, 0.01, 4))
    assert a == b


@pytest.mark.parametrize(("rhs", "y0"), [("-y+sin(x)", 1.0), ("y^2+1", 0.0)])
def test_refinement_keeps_only_the_finest_euler_trajectory(rhs, y0):
    # 8 levels on [0, 2] from h0 = 0.01: the finest grid has 25,601 points
    # of 16 bytes (x and y); storing every level would take about 16 MB
    ivp = IVP(parse(rhs), 0.0, y0)
    estimate_blowup(ivp, 2.0, 1e8, 0.01, 3)  # compile and warm caches first
    tracemalloc.start()
    try:
        estimate_blowup(ivp, 2.0, 1e8, 0.01, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * 25_601


def test_a_start_at_the_threshold_crosses_at_x0_on_every_level():
    # no step is taken: a level that stepped first would cross at x0 + h instead
    rep = estimate_blowup(IVP(parse("y"), 0.0, 1e299), 20.0, 1e8, 10.0, 3)
    assert [row.crossing_x for row in rep.evidence] == [0.0, 0.0, 0.0]
    assert rep.verdict is BlowupVerdict.BLOWUP_DETECTED
    assert rep.bracket == (-5.0, 0.0)


@pytest.mark.parametrize(
    ("ivp", "h", "x_max", "crossing"),
    [
        (tan_ivp(), 0.01, 2.0, 1.7),
        # y_k = 2^k reaches the 1e300 guard at k = 997, and 1e305 only at k = 1014
        (IVP(parse("y"), 0.0, 1.0), 1.0, 2000.0, 997.0),
        # a start already past the guard crosses at x0, not one step later
        (IVP(parse("0"), 0.0, 1e301), 0.1, 1.0, 0.0),
    ],
)
def test_a_threshold_above_the_overflow_guard_crosses_at_the_guard(ivp, h, x_max, crossing):
    assert threshold_crossing(ivp, h, x_max, 1e305) == crossing


def test_a_start_past_the_guard_crosses_at_x0_whatever_the_threshold():
    # the solution is the constant 1e301; a level that stepped once before the
    # guard stopped it would cross at x0 + h, a sequence that shrinks with h
    ivp = IVP(parse("0"), 0.0, 1e301)
    above, at = (estimate_blowup(ivp, 1.0, threshold, 0.1, 3) for threshold in (1e305, 1e300))
    assert above.evidence == at.evidence
    assert [row.crossing_x for row in above.evidence] == [0.0, 0.0, 0.0]
    assert (above.x_estimate, above.bracket) == (0.0, (-0.05, 0.0))


def test_a_start_at_the_guard_stops_at_x0_without_a_step():
    trajectory = integrate_euler(IVP(parse("0"), 0.0, 1e300), 0.5, 3)
    assert trajectory.points == ((0, 0.0, 1e300),)
    assert trajectory.termination_reason == "overflow guard: |y| reached 1e+300 at x=0.0"


# --- an rhs outside its domain is not an escape ---------------------------------


@pytest.mark.parametrize(
    ("rhs", "reason"),
    [
        # y = (1-x)(1-ln(1-x)) - 1 stays bounded and tends to -1 at x = 1
        ("ln(1-x)", "rhs undefined at x=1.0: log of a non-positive value in 'ln(1.0-x)'"),
        ("1/0", "rhs undefined at x=0.0: division by zero in '1.0/0.0'"),
    ],
)
def test_an_undefined_rhs_is_inconclusive_not_blowup(rhs, reason, monkeypatch):
    # the Euler study already gives the reason, so the RK4 study never runs
    monkeypatch.setattr("illposed.blowup._rk4_advance", None)
    report = estimate_blowup(IVP(parse(rhs), 0.0, 0.0), 2.0, h0=0.1, levels=4)
    assert report.verdict is BlowupVerdict.INCONCLUSIVE
    assert report.reason == reason
    assert report.bracket is None
    assert all(row.crossing_x is None and row.y_at_target is None for row in report.evidence)
    with pytest.raises(ValueError, match="^rhs undefined at x="):
        threshold_crossing(IVP(parse(rhs), 0.0, 0.0), 0.1, 2.0, 1e8)


def test_an_overflowing_rhs_still_counts_as_an_escape():
    # y' = exp(y), y(0) = 0 has its pole at x = 1; at h = 0.005 exp(y)
    # overflows before |y| reaches the 1e8 threshold
    ivp = IVP(parse("exp(y)"), 0.0, 0.0)
    level = integrate_euler(ivp, 0.005, 400)
    assert level.termination_reason.startswith("rhs evaluation failed at x=1.025: overflow in exp")
    assert not level.rhs_undefined and abs(level.final.y) < 1e8
    assert threshold_crossing(ivp, 0.005, 2.0, 1e8) == level.final.x
    report = estimate_blowup(ivp, 2.0, h0=0.01)
    assert report.verdict is BlowupVerdict.BLOWUP_DETECTED
    assert report.bracket[0] < 1.0 < report.bracket[1]


# --- the refinement rules of the judge --------------------------------------


def test_crossings_that_move_right_under_refinement_are_inconclusive():
    # 2e8*exp(-2x) crosses 1e8 ever later as h halves: 0.5, 1.0, 1.125, 1.4375
    report = estimate_blowup(IVP(parse("2e8*exp(-2*x)"), 0.0, 1.0), 4.0, 1e8, 0.5, 4)
    assert [row.crossing_x for row in report.evidence] == [0.5, 1.0, 1.125, 1.4375]
    assert report.verdict is BlowupVerdict.INCONCLUSIVE
    assert report.reason == "crossing abscissas do not decrease under refinement"
    assert report.bracket is None


def test_crossing_gaps_that_do_not_shrink_are_inconclusive():
    # the crossings fall, but by 0.1, 0.05 and then 0.1 again
    rows = tuple(EvidenceRow(h, c, None) for h, c in zip((0.1, 0.05, 0.025, 0.0125), (1.0, 0.9, 0.85, 0.75)))
    assert _classify(rows) == ("inconclusive", "crossing gaps fail to shrink under refinement", None)
