"""Path limits of rational functions against sympy's exact one-sided limits.

sympy is a test-only oracle; without it this module is skipped.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from illposed.expr import parse
from illposed.limits import AGREEMENT_TOL, PathStatus, limit_along, trajectory_from_text

sympy = pytest.importorskip("sympy")

# the monomials x^i*y^j of degree at most 3
_MONOMIALS = [(i, j) for i in range(4) for j in range(4 - i)]


@st.composite
def _rational_paths(draw):
    """A rational f, sums of c*x^i*y^j over sums of monomials, and a path x = t, y = k*t^m."""
    numerator = draw(st.lists(
        st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from(_MONOMIALS)), min_size=1, max_size=3
    ))
    denominator = draw(st.lists(st.sampled_from(_MONOMIALS), min_size=1, max_size=3, unique=True))
    k = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0]))
    m = draw(st.integers(1, 3))
    return numerator, denominator, k, m


@settings(max_examples=150, deadline=None)
@given(_rational_paths())
def test_path_verdicts_agree_with_the_exact_one_sided_limit(case):
    numerator, denominator, k, m = case
    text = "({})/({})".format(
        "+".join(f"{c}*x^{i}*y^{j}" for c, (i, j) in numerator),
        "+".join(f"x^{i}*y^{j}" for i, j in denominator),
    )
    path = limit_along(parse(text), trajectory_from_text("t", f"{k!r}*t^{m}"))
    x, y, t = sympy.symbols("x y t")
    f = sum(c * x**i * y**j for c, (i, j) in numerator) / sum(x**i * y**j for i, j in denominator)
    exact = sympy.limit(f.subs({x: t, y: sympy.Rational(k) * t**m}), t, 0, "+")
    if path.status is PathStatus.CONVERGED:
        assert exact.is_finite and abs(float(exact) - path.value) <= AGREEMENT_TOL, (text, k, m, exact)
    elif path.status is PathStatus.DIVERGED:
        assert exact.is_infinite, (text, k, m, exact)


def test_a_cancelled_tail_is_not_a_converged_zero():
    # the samples fall from -3.0 to -0.0 between t = 1e-5 and 1e-6, where -3
    # absorbs -3*y^3 and +3 cancels it; the last steps are 0 and pass the Cauchy test
    text = "(-3*x^0*y^0+-3*x^0*y^3+3*x^0*y^0)/(x^0*y^3)"
    path = limit_along(parse(text), trajectory_from_text("t", "-2.0*t^1"))
    x, y, t = sympy.symbols("x y t")
    f = sympy.sympify(text.replace("^", "**"), locals={"x": x, "y": y})
    exact = sympy.limit(f.subs({x: t, y: -2 * t}), t, 0, "+")
    if exact != -3:  # an oracle failure must not pass for the expected one
        pytest.fail(f"sympy's one-sided limit is {exact}, not -3")
    if path.status is PathStatus.CONVERGED:
        assert abs(float(exact) - path.value) <= AGREEMENT_TOL, (path.value, exact)
