"""Three-point cooling fits and midpoint feasibility analysis.

A body cooling toward ambient T_M passes (T0, T1, T2) at times 0, t1,
2*t1.  Equal time spacing forces the geometric identity
(T1-T_M)^2 = (T0-T_M)(T2-T_M), which solves in closed form and exposes
"incorrect" reading triples: an implied ambient hotter than every
reading, or one below absolute zero.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from illposed.cooling import (
    ABSOLUTE_ZERO_C,
    CoolingObservations,
    DiagnosticError,
    FeasibilityVerdict,
    bisect_root,
    feasible_midpoint_range,
    fit_json,
    fit_three_point,
    predict,
    sweep_csv,
    tm_of_midpoint,
)

SQRT_1200 = math.sqrt(1200.0)


def test_hot_ambient_contradiction():
    # (40, 36, 30) cools, yet the implied ambient is hotter than T0
    fit = fit_three_point(CoolingObservations(0.5, 40.0, 36.0, 30.0))
    assert fit.T_M == 48.0
    assert fit.k == math.log(1.5) / 0.5
    assert fit.k == 0.8109302162163288
    assert fit.verdict is FeasibilityVerdict.SIGN_CONTRADICTION


def test_feasible_triple_fits_exactly():
    obs = CoolingObservations(0.5, 40.0, 34.0, 30.0)
    fit = fit_three_point(obs)
    assert fit.T_M == 22.0
    assert fit.k == -0.8109302162163288
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        assert fit.k == float(mpmath.log(mpmath.mpf(2) / 3) / 0.5)  # ln(2/3)/t1, correctly rounded
    assert fit.verdict is FeasibilityVerdict.FEASIBLE
    for t, want in ((0.0, 40.0), (0.5, 34.0), (1.0, 30.0)):
        assert predict(fit.T_M, fit.k, obs.T0, t) == want
    # long-time behavior settles on the ambient
    assert predict(fit.T_M, fit.k, obs.T0, 50.0) == 22.0


def test_colinear_triple_has_no_exponential():
    fit = fit_three_point(CoolingObservations(1.0, 40.0, 35.0, 30.0))
    assert fit.verdict is FeasibilityVerdict.COLINEAR_DEGENERATE
    assert fit.T_M is None
    assert fit.k is None


def test_non_monotone_data_is_rejected_first():
    fit = fit_three_point(CoolingObservations(1.0, 40.0, 42.0, 30.0))
    assert fit.verdict is FeasibilityVerdict.NON_MONOTONE_DATA
    fit = fit_three_point(CoolingObservations(1.0, 40.0, 40.0, 30.0))
    assert fit.verdict is FeasibilityVerdict.NON_MONOTONE_DATA


def test_near_colinear_triple_implies_subzero_ambient():
    fit = fit_three_point(CoolingObservations(0.5, 40.0, 34.99, 30.0))
    assert fit.T_M == -1215.0050000002486
    assert fit.T_M == float(_exact_ambient(40.0, 34.99, 30.0))
    assert fit.T_M < ABSOLUTE_ZERO_C
    assert fit.verdict is FeasibilityVerdict.BELOW_ABSOLUTE_ZERO
    assert fit.k < 0


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def _exact_ambient(T0, T1, T2):
    u, v = Fraction(T0) - Fraction(T1), Fraction(T1) - Fraction(T2)
    return Fraction(T1) - u * v / (u - v)


@pytest.mark.parametrize(
    "t1, temps, verdict",
    [
        # cancellation in the float formula used to leave a negative decay ratio
        (1.0, (26.025353896539, 26.025353031012, 26.025353), FeasibilityVerdict.FEASIBLE),
        # T1^2 and T0*T2 overflow in floats; the exact ambient is about -2.56e182
        (0.5, (1e200, 1e199, 1e198), FeasibilityVerdict.BELOW_ABSOLUTE_ZERO),
        # the exact ambient sits within rounding of T0
        (1.0, (1.0, 0.999999999, 0.0), FeasibilityVerdict.SIGN_CONTRADICTION),
    ],
)
def test_fit_is_exact_where_floats_cancel(t1, temps, verdict):
    obs = CoolingObservations(t1, *temps)
    fit = fit_three_point(obs)
    assert fit.verdict is verdict
    assert fit.T_M == float(_exact_ambient(*temps))
    assert math.isfinite(fit.k)
    json.loads(fit_json(fit, obs), parse_constant=_reject)


@pytest.mark.parametrize(
    "t1, temps, what",
    [
        (1e-320, (40.0, 35.0, 31.0), "k=-inf"),  # ln(ratio)/t1 overflows
        (1.0, (1e308, 0.0, -9.999999999999998e307), "T_M=-inf"),  # U - V is one unit in the last place
    ],
)
def test_fit_beyond_the_double_range_is_a_diagnostic_failure(t1, temps, what):
    obs = CoolingObservations(t1, *temps)
    with pytest.raises(DiagnosticError, match="beyond the double range") as info:
        fit_three_point(obs)
    assert what in str(info.value)
    assert repr(temps[0]) in str(info.value)


@pytest.mark.parametrize("t1", [2.0**-100, 1e-300, 1.0, 1e300])
@pytest.mark.parametrize("T2", [5e-324, -5e-324])
def test_k_is_within_one_ulp_when_the_ratio_offset_is_subnormal(t1, T2):
    # (V - U)/U is about 2^-1040, where a double keeps only a few of its bits
    mpmath = pytest.importorskip("mpmath")
    obs = CoolingObservations(t1, 3 * 2.0**-35, 3 * 2.0**-36, T2)
    k = fit_three_point(obs).k
    u, v = Fraction(obs.T0) - Fraction(obs.T1), Fraction(obs.T1) - Fraction(obs.T2)
    with mpmath.workprec(3000):
        ratio = mpmath.mpf(v.numerator * u.denominator) / (v.denominator * u.numerator)
        exact = mpmath.log(ratio) / mpmath.mpf(t1)
        assert abs(mpmath.mpf(k) - exact) <= math.ulp(float(exact))
    assert math.copysign(1.0, k) == (-1.0 if T2 > 0 else 1.0)  # k underflows to a signed zero at t1 = 1e300


def test_residual_beyond_the_double_range_is_a_diagnostic_failure():
    # T_M rounds to T0, so the model is flat at T0 and T2 - T0 overflows
    obs = CoolingObservations(1.0, 1.7e308, 1.6999999999999997e308, -1e308)
    fit = fit_three_point(obs)
    assert fit.T_M == 1.7e308
    with pytest.raises(DiagnosticError, match="fit residual"):
        fit_json(fit, obs)


def test_observation_validation():
    with pytest.raises(ValueError):
        CoolingObservations(0.0, 40.0, 36.0, 30.0)
    with pytest.raises(ValueError):
        CoolingObservations(-1.0, 40.0, 36.0, 30.0)
    with pytest.raises(ValueError):
        CoolingObservations(1.0, math.nan, 36.0, 30.0)


# --- midpoint-ambient map and its pole --------------------------------------


def test_tm_of_midpoint_known_values():
    assert tm_of_midpoint(36.0, 40.0, 30.0) == 48.0
    assert tm_of_midpoint(34.0, 40.0, 30.0) == 22.0
    assert tm_of_midpoint(34.9, 40.0, 30.0) == -90.04999999999868
    assert tm_of_midpoint(35.0, 40.0, 30.0) is None


def test_tm_plunges_toward_the_pole_from_below():
    values = [tm_of_midpoint(c, 40.0, 30.0) for c in (34.9, 34.99, 34.999)]
    assert values[0] > values[1] > values[2]
    assert values[2] < -10000.0


def test_tm_is_hotter_than_t0_above_the_pole():
    for c in (35.1, 36.0, 39.0):
        assert tm_of_midpoint(c, 40.0, 30.0) > 40.0


# --- bisection ---------------------------------------------------------------


def test_bisection_finds_sqrt2():
    root, iterations = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
    assert abs(root - math.sqrt(2.0)) < 1e-6
    assert iterations == 21
    assert iterations < 60


def test_bisection_requires_a_sign_change():
    with pytest.raises(DiagnosticError, match="no sign change"):
        bisect_root(lambda x: x * x + 1.0, 0.0, 2.0)


def test_bisection_accepts_an_endpoint_root():
    root, _ = bisect_root(lambda x: x, 0.0, 1.0)
    assert root == 0.0


def test_feasible_range_against_default_floor():
    lo, hi = feasible_midpoint_range(40.0, 30.0, ABSOLUTE_ZERO_C)
    assert lo == 30.0
    assert hi == 34.95943266962795
    assert abs(hi - 34.9594) < 1e-4
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        floor = mpmath.mpf(ABSOLUTE_ZERO_C)
        assert hi == float(floor + mpmath.sqrt((40 - floor) * (30 - floor)))  # correctly rounded


def test_feasible_range_with_zero_floor_matches_geometric_mean():
    # floor 0 forces T_M = 0, i.e. T1 = sqrt(T0*T2)
    _, hi = feasible_midpoint_range(40.0, 30.0, 0.0)
    assert abs(hi - SQRT_1200) < 1e-6


def test_feasible_range_rejects_floor_above_readings():
    with pytest.raises(DiagnosticError, match="not below the final reading"):
        feasible_midpoint_range(40.0, 30.0, 50.0)


def _assert_range_brackets_exact_root(T0, T2, floor=ABSOLUTE_ZERO_C, tol=1e-6):
    """The exact ambient T_M(c) falls from T2 to -inf on (T2, mid), so the
    exact root lies within tol of c_high exactly when T_M(c_high - tol)
    is above the floor and T_M(c_high + tol) is below it or past the pole."""
    c_low, c_high = feasible_midpoint_range(T0, T2, floor)
    f0, f2, fl = Fraction(T0), Fraction(T2), Fraction(floor)

    def gap(c):
        return (c * c - f0 * f2) / (2 * c - f0 - f2) - fl

    mid = (f0 + f2) / 2
    high = Fraction(c_high)
    assert c_low == T2
    assert f2 < high < mid
    assert gap(high - Fraction(tol)) > 0
    assert high + Fraction(tol) >= mid or gap(high + Fraction(tol)) < 0


def test_feasible_range_when_the_chord_midpoint_rounds_past_the_pole():
    # at c = mid, 2*c - T0 - T2 rounds to +7e-15 rather than 0
    T0, T2 = 74.1232, 21.2442
    mid = 0.5 * (T0 + T2)
    assert 2.0 * mid - T0 - T2 > 0.0
    _assert_range_brackets_exact_root(T0, T2)


def test_feasible_range_matches_exact_root_on_random_pairs():
    rng = random.Random(20261018)
    for _ in range(500):
        T2 = round(rng.uniform(-100.0, 150.0), 4)
        T0 = round(T2 + rng.uniform(0.001, 200.0), 4)
        _assert_range_brackets_exact_root(T0, T2)


def test_endpoint_of_feasible_range_is_actually_marginal():
    _, hi = feasible_midpoint_range(40.0, 30.0, ABSOLUTE_ZERO_C)
    ambient = tm_of_midpoint(hi, 40.0, 30.0)
    assert abs(ambient - ABSOLUTE_ZERO_C) < 1e-3


# --- property suites ----------------------------------------------------------


@given(
    st.floats(-50.0, 150.0),
    st.floats(0.01, 5.0),
    st.floats(0.05, 3.0),
    st.floats(5.0, 100.0),
)
@settings(max_examples=300)
def test_fit_recovers_model_parameters(T_M, k, t1, drop):
    # synthesize a genuine cooling run, then fit it back
    T0 = T_M + drop
    T1 = predict(T_M, -k, T0, t1)
    T2 = predict(T_M, -k, T0, 2.0 * t1)
    d = 2.0 * T1 - T0 - T2
    if abs(d) < 1e-6 or not T0 > T1 > T2:
        return
    fit = fit_three_point(CoolingObservations(t1, T0, T1, T2))
    assert fit.T_M == pytest.approx(T_M, rel=1e-6, abs=1e-6)
    assert fit.k == pytest.approx(-k, rel=1e-6, abs=1e-9)


def test_convexity_sign_dictates_the_verdict_branch():
    rng = random.Random(20260814)
    checked = 0
    while checked < 1500:
        T0 = rng.uniform(-20.0, 120.0)
        T1 = rng.uniform(-40.0, T0 - 1e-3)
        T2 = rng.uniform(-60.0, T1 - 1e-3)
        obs = CoolingObservations(rng.uniform(0.05, 4.0), T0, T1, T2)
        d = 2.0 * T1 - T0 - T2
        if d == 0.0:
            continue
        fit = fit_three_point(obs)
        if d > 0.0:
            assert fit.k > 0.0
            assert fit.T_M > obs.T0
            assert fit.verdict is FeasibilityVerdict.SIGN_CONTRADICTION
        else:
            assert fit.k < 0.0
            assert fit.T_M < obs.T2
            assert fit.verdict in (
                FeasibilityVerdict.FEASIBLE,
                FeasibilityVerdict.BELOW_ABSOLUTE_ZERO,
            )
        checked += 1


def test_residuals_vanish_for_any_fitted_triple():
    rng = random.Random(7)
    for _ in range(200):
        T0 = rng.uniform(0.0, 100.0)
        T1 = rng.uniform(-10.0, T0 - 0.1)
        T2 = rng.uniform(-20.0, T1 - 0.1)
        obs = CoolingObservations(rng.uniform(0.1, 2.0), T0, T1, T2)
        fit = fit_three_point(obs)
        if fit.T_M is None:
            continue
        if abs(2.0 * T1 - T0 - T2) < 0.05:
            continue  # near the pole the exponential is ill-conditioned
        for t, want in ((0.0, T0), (obs.t1, T1), (2.0 * obs.t1, T2)):
            assert predict(fit.T_M, fit.k, obs.T0, t) == pytest.approx(want, abs=1e-9)


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
DOUBLE_MAX = 1.7976931348623157e308


def _float_or_none(value):
    """float(value), or None when it lies beyond the double range."""
    try:
        return float(value)
    except OverflowError:
        return None


@given(
    st.lists(FINITE_FLOATS, min_size=3, max_size=3),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    FINITE_FLOATS,
)
@settings(max_examples=400, deadline=None)
def test_fit_matches_the_exact_oracle(temps, t1, floor):
    T2, T1, T0 = sorted(temps)
    assume(T0 > T1 > T2)
    obs = CoolingObservations(t1, T0, T1, T2)
    u, v = Fraction(T0) - Fraction(T1), Fraction(T1) - Fraction(T2)
    if u == v:
        assert fit_three_point(obs, floor).verdict is FeasibilityVerdict.COLINEAR_DEGENERATE
        return
    tm = Fraction(T1) - u * v / (u - v)
    T_M = _float_or_none(tm)
    k_estimate = (math.log(v.numerator * u.denominator) - math.log(v.denominator * u.numerator)) / t1
    try:
        fit = fit_three_point(obs, floor)
    except DiagnosticError:
        assert T_M is None or abs(k_estimate) > 0.999 * DOUBLE_MAX
        return
    assert fit.T_M == T_M
    assert math.isfinite(fit.k)
    if tm < Fraction(floor):
        assert fit.verdict is FeasibilityVerdict.BELOW_ABSOLUTE_ZERO
    elif v > u:
        assert fit.verdict is FeasibilityVerdict.SIGN_CONTRADICTION
    else:
        assert fit.verdict is FeasibilityVerdict.FEASIBLE
    # the data minus the model T_M + (T0 - T_M)*r^n, in exact arithmetic
    residuals = [_float_or_none((tm - Fraction(T_M)) * (1 - (v / u) ** n)) for n in range(3)]
    if None in residuals:
        with pytest.raises(DiagnosticError, match="fit residual"):
            fit_json(fit, obs)
        return
    data = json.loads(fit_json(fit, obs), parse_constant=_reject)
    assert data["residuals"] == residuals


@given(st.lists(FINITE_FLOATS, min_size=3, max_size=3))
@settings(max_examples=400, deadline=None)
def test_feasible_range_end_is_within_one_ulp_of_the_exact_root(values):
    floor, T2, T0 = sorted(values)
    assume(T0 > T2 > floor)
    c_low, c_high = feasible_midpoint_range(T0, T2, floor)
    assert c_low == T2
    assert T2 <= c_high <= T0
    # the exact root is floor + sqrt(square), and (c - floor)^2 increases for c > floor
    square = (Fraction(T0) - Fraction(floor)) * (Fraction(T2) - Fraction(floor))
    below, above = Fraction(c_high) - Fraction(math.ulp(c_high)), Fraction(c_high) + Fraction(math.ulp(c_high))
    assert below <= floor or (below - Fraction(floor)) ** 2 <= square
    assert (above - Fraction(floor)) ** 2 >= square


# --- renderers ----------------------------------------------------------------


def test_fit_json_shape():
    obs = CoolingObservations(0.5, 40.0, 36.0, 30.0)
    data = json.loads(fit_json(fit_three_point(obs), obs))
    assert list(data) == ["T_M", "k", "verdict", "residuals"]
    assert data["T_M"] == 48.0
    assert data["verdict"] == "SignContradiction"
    assert data["residuals"] == [0.0, 0.0, 0.0]


def test_fit_json_degenerate_has_null_fields():
    obs = CoolingObservations(1.0, 40.0, 35.0, 30.0)
    data = json.loads(fit_json(fit_three_point(obs), obs))
    assert data["T_M"] is None
    assert data["k"] is None
    assert data["residuals"] is None


def test_sweep_csv_golden():
    text = sweep_csv(40.0, 30.0, 4, ABSOLUTE_ZERO_C)
    assert text == (
        "c,T_M,k,verdict\n"
        "31,29.875,-4.3944491546724391,Feasible\n"
        "32,29.333333333333332,-2.7725887222397811,Feasible\n"
        "33,27.75,-1.6945957207744073,Feasible\n"
        "34,22,-0.81093021621632877,Feasible\n"
    )
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):  # k = ln(v/u)/t1 on the moved rows, correctly rounded
        assert -2.7725887222397811 == float(mpmath.log(mpmath.mpf(2) / 8) / 0.5)
        assert -0.81093021621632877 == float(mpmath.log(mpmath.mpf(4) / 6) / 0.5)


def test_sweep_rows_without_a_fit_have_empty_cells():
    # every midpoint reading rounds onto T2 or onto the chord midpoint
    assert sweep_csv(30.000000000000007, 30.0, 3) == (
        "c,T_M,k,verdict\n"
        "30,,,NonMonotoneData\n"
        "30,,,NonMonotoneData\n"
        "30.000000000000004,,,ColinearDegenerate\n"
    )


def test_sweep_midpoint_of_readings_past_half_the_double_range():
    # T0 + T2 overflows, so the chord midpoint 1.35e308 is summed from the halves
    rows = sweep_csv(1.7e308, 1e308, 3).splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1.0875000000000001e+308", "1.1750000000000001e+308", "1.2624999999999999e+308"]
    assert [row.split(",")[3] for row in rows] == ["Feasible"] * 3
