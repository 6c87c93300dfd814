"""Averaging recurrence x_{n+2} = (x_{n+1} + x_n)/2.

Characteristic roots 1 and -1/2 give the closed form
(a + 2b)/3 + (2/3)(a - b)(-1/2)^n, so every run converges to the
weighted average (a + 2b)/3 regardless of the seeds.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.recurrence import (
    RecurrenceInstance,
    closed_form,
    detect_limit,
    iterate_recurrence,
    sequence_csv,
)

seeds = st.floats(-1e6, 1e6, allow_nan=False)


def test_unit_seeds_first_terms():
    seq = iterate_recurrence(RecurrenceInstance(0.0, 1.0), 8)
    assert seq == [0.0, 1.0, 0.5, 0.75, 0.625, 0.6875, 0.65625, 0.671875, 0.6640625]


def test_iterate_length_and_prefix_stability():
    inst = RecurrenceInstance(3.0, -1.0)
    long = iterate_recurrence(inst, 30)
    short = iterate_recurrence(inst, 10)
    assert len(long) == 31
    assert long[:11] == short


@given(seeds, seeds)
@settings(max_examples=300)
def test_closed_form_matches_iteration(a, b):
    inst = RecurrenceInstance(a, b)
    seq = iterate_recurrence(inst, 60)
    scale = max(1.0, abs(a), abs(b))
    for n in (0, 1, 2, 5, 17, 60):
        assert abs(closed_form(inst, n) - seq[n]) <= 1e-12 * scale


@given(seeds, seeds)
@settings(max_examples=200)
def test_limit_is_the_weighted_average(a, b):
    inst = RecurrenceInstance(a, b)
    hit = detect_limit(iterate_recurrence(inst, 220), 1e-9)
    assert hit is not None
    value, _ = hit
    assert abs(value - (a + 2.0 * b) / 3.0) <= 1e-8 * max(1.0, abs(a), abs(b))


def test_successive_differences_halve_exactly_for_dyadic_seeds():
    # x_{n+2} - x_{n+1} = -(x_{n+1} - x_n)/2; with seeds 0 and 1 every
    # term is a dyadic rational short enough that no sum ever rounds
    seq = iterate_recurrence(RecurrenceInstance(0.0, 1.0), 40)
    diffs = [b - a for a, b in zip(seq, seq[1:])]
    for d, e in zip(diffs, diffs[1:]):
        assert e == -d / 2.0


@given(seeds, seeds)
@settings(max_examples=200)
def test_contraction_ratio_is_about_one_half(a, b):
    # with exact differences d and e, e + d/2 equals x_{n+2} minus the
    # exact mean of x_n and x_{n+1}: the rounding error of that step,
    # which is at most half an ulp of the new term
    seq = iterate_recurrence(RecurrenceInstance(a, b), 12)
    exact = [Fraction(v) for v in seq]
    for x0, x1, x2, new in zip(exact, exact[1:], exact[2:], seq[2:]):
        d, e = x1 - x0, x2 - x1
        assert abs(e + d / 2) <= Fraction(math.ulp(new)) / 2


HUGE_SEEDS = [(1.7e308, 1.7e308), (1.7e308, 1.6e308), (-1.7e308, -1.65e308), (1.7e308, -1.7e308), (-1.7e308, 3.0)]


def _exact_term(a, b, n):
    fa, fb = Fraction(a), Fraction(b)
    return (fa + 2 * fb) / 3 + Fraction(2, 3) * (fa - fb) * Fraction(-1, 2) ** n


@pytest.mark.parametrize(("a", "b"), HUGE_SEEDS)
def test_seeds_near_the_double_ceiling_do_not_overflow(a, b):
    seq = iterate_recurrence(RecurrenceInstance(a, b), 40)
    assert seq[:2] == [a, b]
    for x0, x1, x2 in zip(seq, seq[1:], seq[2:]):
        # each term is the correctly rounded mean of the two before it
        assert x2 == float((Fraction(x0) + Fraction(x1)) / 2)
    eps = Fraction(2.0**-52)
    scale = abs(Fraction(a)) + 2 * abs(Fraction(b)) + abs(Fraction(a) - Fraction(b))
    for n in (0, 1, 2, 5, 40):
        value = closed_form(RecurrenceInstance(a, b), n)
        assert math.isfinite(value)
        assert abs(Fraction(value) - _exact_term(a, b, n)) <= 8 * eps * scale


def test_detect_limit_unit_seeds():
    seq = iterate_recurrence(RecurrenceInstance(0.0, 1.0), 60)
    assert detect_limit(seq, 1e-10) == (0.6666666666666667, 34)


def test_detect_limit_constant_sequence():
    assert detect_limit([5.0] * 10, 1e-10) == (5.0, 0)


def test_detect_limit_rejects_oscillation():
    assert detect_limit([0.0, 1.0] * 10, 1e-10) is None


def test_detect_limit_needs_a_long_enough_run():
    # four sub-tolerance differences are one short of the default five
    assert detect_limit([1.0, 1.0, 1.0, 1.0, 1.0], 1e-10) is None
    assert detect_limit([1.0] * 6, 1e-10) == (1.0, 0)


@pytest.mark.parametrize("run", range(9))
def test_detect_limit_settles_after_a_run_of_five(run):
    seq = [0.0, 1.0, 2.0, 3.0] + [3.0] * run
    assert detect_limit(seq, 1e-10) == (None if run < 5 else (3.0, 3))


def test_detect_limit_settle_index_marks_the_quiet_tail():
    seq = [8.0, 4.0, 2.0, 1.0] + [1.0] * 10
    value, settled = detect_limit(seq, 1e-10)
    assert value == 1.0
    assert settled == 3


def test_instance_validation():
    with pytest.raises(ValueError):
        RecurrenceInstance(float("nan"), 1.0)
    with pytest.raises(ValueError):
        RecurrenceInstance(0.0, float("inf"))
    with pytest.raises(ValueError):
        iterate_recurrence(RecurrenceInstance(0.0, 1.0), -1)
    assert iterate_recurrence(RecurrenceInstance(2.0, 9.0), 0) == [2.0]


def test_sequence_csv_golden_unsettled():
    text = sequence_csv(RecurrenceInstance(0.0, 1.0), 6, 1e-10)
    assert text == (
        "n,x_n\n"
        "0,0\n"
        "1,1\n"
        "2,0.5\n"
        "3,0.75\n"
        "4,0.625\n"
        "5,0.6875\n"
        "6,0.65625\n"
        "# limit=unsettled\n"
    )


def test_sequence_csv_reports_settled_limit():
    text = sequence_csv(RecurrenceInstance(1.0, 4.0), 40, 1e-10)
    assert text.endswith("# limit=2.999999999998181\n# settled_at=35\n")
