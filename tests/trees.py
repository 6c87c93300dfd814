"""A Hypothesis strategy for expression trees over every node kind, shared by the interval tests."""

import math

from hypothesis import strategies as st

from illposed.expr import FUNCTIONS, Binary, Call, Literal, Unary, Variable

_LEAVES = st.one_of(
    st.sampled_from([Variable("x"), Variable("y")]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, math.pi, 1e300]).map(Literal),
    st.floats(0.0, 10.0).map(Literal),
    st.just(Binary("/", Literal(1.0), Literal(0.0))),
)


@st.composite
def trees(draw, depth: int = 4):
    """Random trees of at most `depth` levels; ^ takes a positive integer literal exponent or a subtree, alike."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_LEAVES)
    kind = draw(st.sampled_from(["-x", "+", "-", "*", "/", "^", "call"]))
    if kind == "-x":
        return Unary(draw(trees(depth - 1)))
    if kind == "call":
        return Call(draw(st.sampled_from(sorted(FUNCTIONS))), draw(trees(depth - 1)))
    left = draw(trees(depth - 1))
    if kind == "^" and draw(st.integers(0, 3)):
        return Binary("^", left, Literal(draw(st.sampled_from([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1e300]))))
    return Binary(kind, left, draw(trees(depth - 1)))
