"""Parser, evaluator, and code generation tests."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from trees import trees

from illposed.expr import (
    Binary,
    Call,
    DomainError,
    EvalError,
    ExpressionError,
    Literal,
    OverflowDomainError,
    ParseError,
    Unary,
    UnboundVariableError,
    Variable,
    _array_bounds,
    _OPS,
    _walk,
    compile_array,
    compile_scalar,
    evaluate,
    free_variables,
    parse,
    to_text,
)
from illposed.limits import _values


def ev(source, **env):
    return evaluate(parse(source), env)


# --- grammar and precedence ---------------------------------------------


def test_addition_binds_looser_than_multiplication():
    assert ev("2+3*4") == 14.0


def test_power_is_right_associative():
    assert ev("2^3^2") == 512.0


def test_unary_minus_binds_looser_than_power():
    assert ev("-2^2") == -4.0


def test_parentheses_override_precedence():
    assert ev("(2+3)*4") == 20.0
    assert ev("(-2)^2") == 4.0


def test_subtraction_and_division_are_left_associative():
    assert ev("10-4-3") == 3.0
    assert ev("24/4/2") == 3.0


def test_pi_constant_and_functions():
    assert ev("pi") == math.pi
    assert ev("sin(pi/2)") == math.sin(math.pi / 2)
    assert ev("ln(exp(1))") == math.log(math.exp(1.0))
    assert ev("sqrt(2)") == math.sqrt(2.0)
    assert ev("abs(0-3)") == 3.0
    assert ev("tan(1)") == math.tan(1.0)
    assert ev("cos(0)") == 1.0


def test_scientific_notation_literals():
    assert ev("1e-3") == 1e-3
    assert ev("2.5E2") == 250.0
    assert ev(".5") == 0.5


def test_variables_come_from_environment():
    assert ev("x*y+1", x=3.0, y=4.0) == 13.0


def test_whitespace_is_insignificant():
    assert ev("  1 +  2 * 3 ") == 7.0


# --- parse errors --------------------------------------------------------


def test_adjacent_operator_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("y++1")
    assert exc.value.offset == 2


def test_error_offsets_are_byte_offsets():
    # the prefix before the first error is always ASCII here, so the byte
    # offset of the offending character equals its byte position
    with pytest.raises(ParseError) as exc:
        parse("12+é")
    assert exc.value.offset == 3


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse("(1+2")
    with pytest.raises(ParseError):
        parse("1+2)")


def test_empty_and_blank_input():
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("   ")


def test_unknown_function_is_rejected():
    with pytest.raises(ParseError):
        parse("foo(1)")


def test_bare_function_name_is_rejected():
    with pytest.raises(ParseError):
        parse("sin + 1")


def test_trailing_garbage_is_rejected():
    with pytest.raises(ParseError):
        parse("1+2 3")


def test_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse("1 @ 2")
    assert exc.value.offset == 2


def test_non_string_input_is_a_type_error():
    with pytest.raises(TypeError):
        parse(42)


def test_overflowing_literal_is_rejected():
    with pytest.raises(ParseError):
        parse("1e999")


def test_deep_nesting_fails_cleanly():
    depth = 5000
    source = "(" * depth + "1" + ")" * depth
    with pytest.raises(ParseError):
        parse(source)


@pytest.mark.parametrize(
    ("source", "message"),
    [
        ("1 @ 2", "unexpected character '@' (byte 2)"),
        ("12+é", "unexpected character 'é' (byte 3)"),
        ("(1+2", "expected ')' (byte 4)"),
        ("1+2)", "unexpected ')' after a complete expression (byte 3)"),
        ("1+2 3", "unexpected '3' after a complete expression (byte 4)"),
        ("", "unexpected end of input; expected a value (byte 0)"),
        ("sin(", "unexpected end of input; expected a value (byte 4)"),
        ("sin + 1", "'sin' is a function and needs a parenthesised argument (byte 0)"),
        ("foo(1)", "unknown function 'foo' (byte 0)"),
        ("1e999", "number literal out of double range (byte 0)"),
        ("y++1", "expected a number, a name, or '(' but found '+' (byte 2)"),
        ("(" * 121 + "1" + ")" * 121, "expression nested too deeply (byte 60)"),
    ],
)
def test_parse_error_messages(source, message):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert str(exc.value) == message


# --- evaluation domain errors --------------------------------------------


def test_division_by_zero_is_a_domain_error():
    with pytest.raises(DomainError):
        ev("1/0")


def test_log_of_nonpositive_is_a_domain_error():
    with pytest.raises(DomainError):
        ev("ln(0)")
    with pytest.raises(DomainError):
        ev("ln(0-1)")


def test_sqrt_of_negative_is_a_domain_error():
    with pytest.raises(DomainError):
        ev("sqrt(0-1)")


def test_fractional_power_of_negative_is_a_domain_error():
    with pytest.raises(DomainError):
        ev("(0-8)^(1/3)")


def test_zero_to_negative_power_is_a_domain_error():
    with pytest.raises(DomainError):
        ev("0^(0-1)")


def test_overflow_is_a_domain_error_not_inf():
    with pytest.raises(DomainError):
        ev("1e300*1e300")
    with pytest.raises(DomainError):
        ev("exp(1000)")


@pytest.mark.parametrize(
    ("source", "reason"),
    [
        ("1e300*1e300", "overflow in multiplication"),
        ("1e308+1e308", "overflow in addition"),
        ("0-1e308-1e308", "overflow in subtraction"),
        ("1e308/1e-10", "overflow in division"),
        ("10^400", "overflow in power"),
        ("exp(1000)", "overflow in exp"),
    ],
)
def test_overflow_raises_the_overflow_subclass(source, reason):
    for run in (lambda: ev(source), lambda: compile_scalar(parse(source), ())()):
        with pytest.raises(OverflowDomainError) as exc:
            run()
        assert exc.value.reason == reason
        assert exc.value.node is not None  # the tree walk names the subtree


@pytest.mark.parametrize("source", ["1/0", "ln(0)", "sqrt(0-1)", "(0-8)^(1/3)", "0^(0-1)"])
def test_a_domain_failure_is_not_an_overflow(source):
    with pytest.raises(DomainError) as exc:
        ev(source)
    assert not isinstance(exc.value, OverflowDomainError)


def test_integer_power_of_negative_base_is_fine():
    assert ev("(0-2)^3") == -8.0


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        ev("x+1")


def test_domain_error_carries_the_failing_node():
    with pytest.raises(DomainError) as exc:
        ev("1+ln(x-x)", x=2.0)
    assert exc.value.reason == "log of a non-positive value"
    assert to_text(exc.value.node) == "ln(x-x)"


# --- round trips and structure --------------------------------------------


def test_to_text_round_trip_examples():
    for source in ["2+3*4", "2^3^2", "-2^2", "(2+3)*4", "sin(x)*cos(y)", "x/(y+1)"]:
        tree = parse(source)
        again = parse(to_text(tree))
        assert again == tree


def test_free_variables():
    assert free_variables(parse("x*y+sin(x)")) == {"x", "y"}
    assert free_variables(parse("pi+1")) == set()


@st.composite
def expressions(draw, depth=0):
    if depth > 5 or draw(st.booleans()):
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            return Literal(draw(st.floats(0.0, 1e6, allow_nan=False)))
        if leaf == 1:
            return Variable(draw(st.sampled_from(["x", "y"])))
        return Literal(math.pi)  # what the parser folds "pi" into
    kind = draw(st.integers(0, 2))
    if kind == 0:
        op = draw(st.sampled_from(["+", "-", "*", "/", "^"]))
        return Binary(op, draw(expressions(depth + 1)), draw(expressions(depth + 1)))
    if kind == 1:
        return Unary(draw(expressions(depth + 1)))
    name = draw(st.sampled_from(["sin", "cos", "tan", "exp", "ln", "sqrt", "abs"]))
    return Call(name, draw(expressions(depth + 1)))


@given(expressions())
@settings(max_examples=300)
def test_to_text_parse_round_trip_is_identity(tree):
    assert parse(to_text(tree)) == tree


@given(expressions(), st.floats(-10, 10), st.floats(-10, 10))
@settings(max_examples=200)
def test_round_trip_preserves_evaluation(tree, x, y):
    env = {"x": x, "y": y}
    try:
        want = evaluate(tree, env)
    except DomainError:
        return
    assert evaluate(parse(to_text(tree)), env) == want


def test_parser_totality_fuzz():
    # arbitrary byte soup either parses or raises ParseError, never crashes
    rng = random.Random(99)
    alphabet = "0123456789.+-*/^()xy sincotaexplnqrb\té"
    for _ in range(3000):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse(source)
        except ParseError:
            pass


# --- compiled evaluation ---------------------------------------------------


def test_compiled_scalar_matches_tree_walk_bit_for_bit():
    rng = random.Random(5)
    sources = [
        "x*y/(x+y)",
        "sin(x)^2+cos(x)^2",
        "exp(x/10)-ln(y+20)",
        "x^3-2*x^2+x/7-1",
        "sqrt(abs(x*y))+tan(x/9)",
    ]
    for source in sources:
        tree = parse(source)
        fn = compile_scalar(tree, ("x", "y"))
        for _ in range(200):
            x = rng.uniform(-10, 10)
            y = rng.uniform(0.5, 10)
            assert fn(x, y) == evaluate(tree, {"x": x, "y": y})


def test_compiled_scalar_reports_domain_errors_with_node():
    fn = compile_scalar(parse("1/(x-1)"), ("x",))
    with pytest.raises(DomainError) as exc:
        fn(1.0)
    assert exc.value.reason == "division by zero"


def test_compiled_scalar_does_not_re_run_the_tree_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("compile_scalar called evaluate")

    monkeypatch.setattr("illposed.expr.evaluate", refuse)
    tree = parse("1/(x-1)")
    with pytest.raises(DomainError) as exc:
        compile_scalar(tree, ("x",))(1.0)
    assert exc.value.reason == "division by zero"
    assert exc.value.node is tree


def test_compiled_scalar_source_holds_no_text_from_the_tree():
    # operation k calls its guard O<k> with its node N<k>
    assert compile_scalar(parse("sin(x)/y"), ("x", "y")).source == "lambda x, y: O1(O0(x, N0), y, N1)"


def test_both_compilers_source_of_every_operator_and_function():
    # each array call is named F<name> after the grammar's function, not numpy's (Fln, not Flog)
    tree = parse("sin(x)+cos(y)-tan(x)*exp(y)/ln(2+abs(y))+sqrt(1+x^2)^y")
    assert compile_scalar(tree, ("x", "y")).source == (
        "lambda x, y: O15(O10(O2(O0(x, N0), O1(y, N1), N2), O9(O5(O3(x, N3), O4(y, N4), N5), "
        "O8(O7(2.0, O6(y, N6), N7), N8), N9), N10), O14(O13(O12(1.0, O11(x, 2.0, N11), N12), N13), y, N14), N15)"
    )
    assert compile_array(tree, ("x", "y")).source == (
        "lambda x, y: (((Fsin(x) + Fcos(y)) - ((Ftan(x) * Fexp(y)) / Fln((F64(2.0) + Fabs(y))))) "
        "+ POW(Fsqrt((F64(1.0) + POW2(x))), y))"
    )


@pytest.mark.parametrize(
    ("source", "x"),
    [
        ("1+1/(x-1)", 1.0),
        ("ln(x-1)*2", 1.0),
        ("sqrt(0-x)", 1.0),
        ("(0-x)^0.5", 1.0),
        ("x^(0-1)", 0.0),
        ("x*1e308+1e308", 1.0),
        ("0-1e308-x*1e308", 1.0),
        ("x*1e308*10", 1.0),
        ("1e308/x", 0.5),
        ("x^1024", 2.0),
        ("exp(x)", 710.0),
        ("sin(x*1e308*10)", 1.0),
    ],
)
def test_both_scalar_lanes_raise_the_same_error(source, x):
    tree = parse(source)
    errors = []
    for run in (lambda: evaluate(tree, {"x": x}), lambda: compile_scalar(tree, ("x",))(x)):
        with pytest.raises(DomainError) as exc:
            run()
        errors.append(exc.value)
    walk, compiled = errors
    assert type(compiled) is type(walk)
    assert (compiled.reason, str(compiled)) == (walk.reason, str(walk))
    assert compiled.node is walk.node


@pytest.mark.parametrize("func", ["sin", "cos", "tan"])
@pytest.mark.parametrize("x", [math.inf, -math.inf])
def test_a_periodic_function_of_an_infinite_value_overflows(func, x):
    tree = parse(f"{func}(x)")
    for run in (lambda: evaluate(tree, {"x": x}), lambda: compile_scalar(tree, ("x",))(x)):
        with pytest.raises(OverflowDomainError) as exc:
            run()
        assert exc.value.reason == f"overflow in {func}"
        assert exc.value.node is tree
        assert str(exc.value) == f"overflow in {func} in '{func}(x)'"


@pytest.mark.parametrize(
    ("x", "y", "want"),
    [(-1.0, math.inf, 1.0), (-0.5, math.inf, 0.0), (-2.0, -math.inf, 0.0), (-2.0, math.inf, None), (-0.5, -math.inf, None)],
)
def test_a_negative_base_under_an_infinite_exponent_follows_math_pow(x, y, want):
    # math.floor(inf) raises OverflowError, so the non-integer test skips an infinite exponent
    tree = parse("x^y")
    for run in (lambda: evaluate(tree, {"x": x, "y": y}), lambda: compile_scalar(tree, ("x", "y"))(x, y)):
        if want is None:
            with pytest.raises(OverflowDomainError, match="^overflow in power in 'x\\^y'$"):
                run()
        else:
            assert run() == want


def _mkdir_payload(path):
    # reaches os.mkdir through a class's globals, as code spliced into eval could
    return (
        "([c for c in ().__class__.__base__.__subclasses__() if c.__name__ == '_wrap_close'][0]"
        f".__init__.__globals__['mkdir']({str(path)!r}) or 0)"
    )


@pytest.mark.parametrize("lane", ["scalar function", "array operator", "scalar variable", "array variable"])
def test_compilers_refuse_a_hand_built_tree_that_splices_code(lane, tmp_path):
    target = tmp_path / "made"
    payload = _mkdir_payload(target)

    class Name(str):
        # equal to "x" and hashed like it, but formatted as code
        def __format__(self, spec):
            return f"x+0*{payload}"

    compiler, tree = {
        "scalar function": (compile_scalar, Call(f"sin(x)*0+{payload}*0+Fsin", Variable("x"))),
        "array operator": (compile_array, Binary(f"+0*{payload}+", Variable("x"), Variable("y"))),
        "scalar variable": (compile_scalar, Binary("+", Variable(Name("x")), Variable("y"))),
        "array variable": (compile_array, Binary("+", Variable(Name("x")), Variable("y"))),
    }[lane]
    with pytest.raises(TypeError, match="^cannot compile"):
        compiler(tree, ("x", "y"))(1.0, 2.0)
    assert not target.exists()


@pytest.mark.parametrize("compiler", [compile_scalar, compile_array])
@pytest.mark.parametrize(
    "tree",
    [
        Binary("%", Variable("x"), Variable("y")),
        Binary("+-", Variable("x"), Variable("y")),
        Call("floor", Variable("x")),
        Call("Fsin", Variable("x")),
        # a name of the other kind: a function as an operator, an operator as a function
        Binary("sin", Variable("x"), Variable("y")),
        Call("+", Variable("x")),
        Call("^", Variable("x")),
        # literals that repr would write as the bare names inf and nan, or as an int
        Binary("+", Variable("x"), Literal(math.inf)),
        Call("sin", Literal(-math.inf)),
        Binary("*", Literal(math.nan), Variable("y")),
        Binary("*", Literal(2), Variable("y")),
    ],
)
def test_compilers_accept_only_the_grammar_s_operators_and_functions(compiler, tree):
    with pytest.raises(TypeError, match="^cannot compile"):
        compiler(tree, ("x", "y"))


def test_compile_rejects_unbound_variables():
    with pytest.raises(UnboundVariableError):
        compile_scalar(parse("x+z"), ("x", "y"))


def test_compile_rejects_bad_parameter_names():
    with pytest.raises(ValueError):
        compile_scalar(parse("1"), ("sin",))
    with pytest.raises(ValueError):
        compile_scalar(parse("1"), ("X1",))


@pytest.mark.parametrize("compiler", [compile_scalar, compile_array])
@pytest.mark.parametrize("params", [("x", "x"), ("x", "y", "x"), (1,)])
def test_compilers_refuse_a_repeated_or_non_string_parameter_name(compiler, params):
    # refused before any source is built, not by eval's SyntaxError or an AttributeError
    with pytest.raises(ValueError, match="^parameter name "):
        compiler(parse("x+1"), params)


@pytest.mark.parametrize("compiler", [compile_scalar, compile_array])
def test_compilers_refuse_a_parameter_name_that_splices_code(compiler, tmp_path):
    target = tmp_path / "made"

    class Name(str):
        # passes every name check as "x" would, but its text is a default argument running code
        def isascii(self):
            return True

        isalpha = islower = isascii

        def __eq__(self, other):
            return other == "x"

        def __hash__(self):
            return hash("x")

    with pytest.raises(ValueError, match="^parameter name "):
        compiler(parse("x+1"), (Name(f"x={_mkdir_payload(target)}"),))
    assert not target.exists()


def test_each_guard_returns_its_raw_operation_s_finite_value():
    # the invariant _walk rests on, record by record: wherever the raw operation returns a
    # finite value, the guard returns it too, bit for bit; the one exception is a base of
    # -inf under ^ with a negative non-integer exponent, where math.pow gives 0.0
    big = sys.float_info.max
    grid = [v for a in (0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0, 2.5, 3.0, 1e154, 1e300, big, math.inf) for v in (a, -a)]
    grid += [709.0, 710.0, -745.0, -746.0, math.pi / 2, 1e22]
    node = Variable("x")
    finite, mismatches = 0, []
    for name, (guard, raw, _) in _OPS.items():
        for args in [(a,) for a in grid] if name.isalpha() else [(a, b) for a in grid for b in grid]:
            try:
                want = raw(*args)
            except (ArithmeticError, ValueError):
                continue
            if not math.isfinite(want):
                continue
            finite += 1
            try:
                got = guard(*args, node).hex()
            except EvalError:
                got = None
            if got != want.hex():
                mismatches.append((name, args))
    assert finite > 3500
    assert sorted(mismatches) == sorted(("^", (-math.inf, b)) for b in grid if b < 0 and math.isfinite(b) and b != math.floor(b))


def test_compiled_array_matches_scalar_bitwise_on_rational_ops():
    import numpy as np

    # + - * / are IEEE-exact in both the scalar and the array lane
    tree = parse("x*y/(x+y)-x/3+y")
    fs = compile_scalar(tree, ("x", "y"))
    fa = compile_array(tree, ("x", "y"))
    xs = np.linspace(-2, 2, 41)
    ys = np.linspace(1, 3, 41)
    out = fa(xs, ys)
    for i in range(41):
        assert out[i] == fs(float(xs[i]), float(ys[i]))


def test_compiled_array_close_to_scalar_on_transcendentals():
    import numpy as np

    # numpy's vectorized pow/sin may differ from libm by an ulp
    tree = parse("(x^3+y^3)/(x^2+y^2)+sin(x)*exp(y/9)")
    fs = compile_scalar(tree, ("x", "y"))
    fa = compile_array(tree, ("x", "y"))
    xs = np.linspace(-2, 2, 41)
    ys = np.linspace(1, 3, 41)
    out = fa(xs, ys)
    for i in range(41):
        assert math.isclose(out[i], fs(float(xs[i]), float(ys[i])), rel_tol=1e-13)


@pytest.mark.parametrize("k", [3, 4])
def test_compiled_array_integer_powers_against_exact_fraction(k):
    import numpy as np

    # x^3 and x^4 multiply instead of calling np.power; each stays within
    # 2 ulp of the exact power wherever the result is a normal double
    rng = np.random.default_rng(k)
    xs = rng.uniform(-2.0, 2.0, 3000) * 2.0 ** rng.integers(-250, 250, 3000)
    out = compile_array(parse(f"x^{k}"), ("x",))(xs)
    normal = 0
    for x, got in zip(xs.tolist(), out.tolist()):
        if math.isfinite(got) and abs(got) >= sys.float_info.min:
            normal += 1
            assert abs(Fraction(got) - Fraction(x) ** k) <= 2 * Fraction(math.ulp(got))
    assert normal > 1000
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e-300])
    got = compile_array(parse(f"x^{k}"), ("x",))(special)
    with np.errstate(over="ignore"):
        want = np.power(special, float(k))
    np.testing.assert_array_equal(got, want)
    assert (np.signbit(got) == np.signbit(want)).all()


def test_compiled_array_square_is_bit_identical_to_np_power():
    import numpy as np

    xs = np.random.default_rng(2).standard_normal(5000) * 1e3
    assert compile_array(parse("x^2"), ("x",))(xs).tobytes() == np.power(xs, 2.0).tobytes()
    # other exponents, literal or not, still go through np.power
    assert "POW(" in compile_array(parse("x^5+x^y+x^0.5"), ("x", "y")).source


def test_compiled_array_yields_nonfinite_instead_of_raising():
    import numpy as np

    fa = compile_array(parse("1/x"), ("x",))
    out = fa(np.array([1.0, 0.0, -2.0]))
    assert out[0] == 1.0
    assert not np.isfinite(out[1])
    assert out[2] == -0.5


def test_compiled_array_broadcasts_constant_expressions():
    import numpy as np

    fa = compile_array(parse("pi"), ("x",))
    out = fa(np.zeros(7))
    assert out.shape == (7,)
    assert (out == math.pi).all()


def test_compiled_array_runs_literal_subtrees_under_errstate():
    # 1/0 and 0/0 with no variable in them still give inf and nan, not ZeroDivisionError
    import numpy as np

    xs = np.array([1.0, -2.0])
    assert (compile_array(parse("x+1/0"), ("x",))(xs) == math.inf).all()
    assert np.isnan(compile_array(parse("x^2+0/0"), ("x",))(xs)).all()


# --- interval bounds of the array lane ---------------------------------------------

_ENDS = st.one_of(
    st.floats(-2.0, 2.0), st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0, 1e-300, -745.0, 700.0, 1e200, -1e200])
)
_WIDTHS = st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 10.0))
_CORNERS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


@given(
    trees(),
    st.lists(st.tuples(_ENDS, _WIDTHS, _ENDS, _WIDTHS), min_size=1, max_size=8),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=2, max_size=2),
)
# an argument below 0 under an unknown node, and one whose upper end is 0.0
@example(parse("sqrt(1/x-2)"), [(-1.0, 2.0, 0.0, 0.0)], [(0.625, 0.0), (0.5, 0.0)])
@example(parse("ln(x)+sqrt(y)"), [(-1.0, 1.0, -1.0, 1.0)], [(0.5, 0.5), (0.0, 0.0)])
# a void ln walked after an unknown sibling
@example(parse("1/x+ln(-1-y^2)"), [(-1.0, 2.0, -1.0, 2.0)], [(0.5, 0.5), (0.25, 0.75)])
# a void base or exponent of a general ^, whose lane is 1 (np.power(nan, 0), np.power(1, nan))
@example(parse("sqrt(-1-x^2)^0"), [(-1.0, 2.0, 0.0, 0.0)], [(0.5, 0.0), (0.25, 0.0)])
@example(parse("1^sqrt(-1-x^2)"), [(-1.0, 2.0, 0.0, 0.0)], [(0.5, 0.0), (0.25, 0.0)])
# tan boxes holding a pole, ending at pi/2 rounded down, and starting at -pi/2
@example(parse("tan(x)+y"), [(1.5, 0.1, 0.0, 0.0), (1.0, math.pi / 2 - 1.0, 0.0, 0.0),
                             (math.pi / 2, 0.0, 0.0, 0.0), (-math.pi / 2, 0.5, 0.0, 1.0)], [(0.5, 0.5), (0.999, 0.0)])
@settings(max_examples=400, deadline=None)
def test_array_bounds_enclose_every_lane_value_inside_the_boxes(tree, boxes, fractions):
    x_lo, x_width, y_lo, y_width = (np.array(column) for column in zip(*boxes))
    x_hi, y_hi = x_lo + x_width, y_lo + y_width
    fn = compile_array(tree, ("x", "y"))
    lo, hi = _array_bounds(tree, {"x": (x_lo, x_hi), "y": (y_lo, y_hi)})
    proven, void = np.isfinite(lo), np.isnan(lo)
    assert (np.isfinite(hi) == proven).all() and (lo <= hi)[proven].all()
    assert (np.isnan(hi) == void).all()
    for u, v in _CORNERS + fractions:
        values = fn(np.clip(x_lo + u * x_width, x_lo, x_hi), np.clip(y_lo + v * y_width, y_lo, y_hi))
        assert np.isfinite(values[proven]).all()
        assert ((lo <= values) & (values <= hi))[proven].all(), (u, v)
        assert np.isnan(values[void]).all(), (u, v)


@given(
    trees(),
    trees(),
    st.sampled_from(["+", "*"]),
    st.lists(st.tuples(_ENDS, _WIDTHS, _ENDS, _WIDTHS), min_size=1, max_size=8),
)
# a void ln beside an unknown sibling: one flag shared by the whole walk would mark it void in one order only
@example(parse("ln(x)"), parse("1e300^2"), "+", [(-2.0, 1.0, 0.0, 0.0)])
@settings(max_examples=300, deadline=None)
def test_array_bounds_do_not_depend_on_operand_order(left, right, op, boxes):
    x_lo, x_width, y_lo, y_width = (np.array(column) for column in zip(*boxes))
    box = {"x": (x_lo, x_lo + x_width), "y": (y_lo, y_lo + y_width)}
    ends = _array_bounds(Binary(op, left, right), box)
    swapped = _array_bounds(Binary(op, right, left), box)
    assert all(np.array_equal(p, q, equal_nan=True) for p, q in zip(ends, swapped))


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "ln", "sqrt"])
def test_array_bounds_leave_room_for_another_librarys_rounding(name):
    # numpy builds and C libraries round these a few ulps apart, so an
    # enclosure of this build's values alone could miss another's
    t = np.random.default_rng(7).uniform(0.01, 3.0, 500)
    lo, hi = _array_bounds(Call(name, Variable("x")), {"x": (t, t)})
    value = getattr(np, "log" if name == "ln" else name)(t)
    room = 4 * np.spacing(value)
    assert (lo <= value - room).all() and (value + room <= hi).all()


def test_array_bounds_refuse_what_they_cannot_enclose():
    box = {"x": (np.array([-1.0, 0.5, 0.5]), np.array([1.0, 0.6, 2.0**21]))}
    # tan of a box holding a pole (pi/2), and a power (np.power) whose base box
    # reaches 0 or whose corner overflows, are unknown; elsewhere their ends are finite
    for text, finite in (("tan(x)", [True, True, False]), ("x^x", [False, True, False])):
        lo, hi = _array_bounds(parse(text), box)
        assert np.where(finite, np.isfinite(lo), lo == -math.inf).all(), text
        assert np.where(finite, np.isfinite(hi), hi == math.inf).all(), text
    lo, hi = _array_bounds(parse("tan(x)+x^x"), box)
    assert lo[1] <= math.tan(0.5) + 0.5**0.6 and math.tan(0.6) + 0.6**0.5 <= hi[1] < 2.0
    # tan of a box holding pi/2 or ending at it, and a power whose base box reaches 0
    for text, ends in (("tan(x)", ([1.5, 1.0], [1.6, math.pi / 2])), ("x^0.5", ([0.0, -1.0], [1.0, 1.0]))):
        lo, hi = _array_bounds(parse(text), {"x": (np.array(ends[0]), np.array(ends[1]))})
        assert lo.tolist() == [-math.inf] * 2 and hi.tolist() == [math.inf] * 2, text
    # a sqrt proven void stays void beside tan, walked before it or after it
    for text in ("sqrt(-1-x^2)+tan(x)", "tan(x)+sqrt(-1-x^2)"):
        lo, hi = _array_bounds(parse(text), box)
        assert np.isnan(lo).all() and np.isnan(hi).all(), text
    lo, hi = _array_bounds(parse("1/x+ln(x)"), box)
    # a divisor holding 0 and an ln box reaching 0
    assert lo[0] == -math.inf and hi[0] == math.inf
    assert np.isfinite(lo[1:]).all() and np.isfinite(hi[1:]).all()
    # wider than pi, or with an end beyond 2^20: the whole of [-1, 1]
    lo, hi = _array_bounds(parse("sin(4*x)"), box)
    assert (lo[[0, 2]] <= -1.0).all() and (hi[[0, 2]] >= 1.0).all()
    assert -1.0 < lo[1] and hi[1] < 1.0
    # shaped like the boxes even for a tree without variables
    assert _array_bounds(parse("2^3"), box)[0].tolist() == [8.0, 8.0, 8.0]


def test_array_bounds_mark_void_only_where_the_lane_is_nan_throughout():
    whole, negative = {"x": (np.array([-1.0]), np.array([1.0]))}, {"x": (np.array([-1.0]), np.array([-0.0]))}
    # 1/x is unknown on a box holding 0, so its ends [-3, -1] say nothing:
    # sqrt(1/x-2) is finite at x = 0.25
    assert not np.isnan(_array_bounds(parse("sqrt(1/x-2)"), whole)[0]).any()
    # ln(-0.0) is -inf and sqrt(-0.0) is -0.0, neither nan
    assert not np.isnan(_array_bounds(parse("ln(x)"), negative)[0]).any()
    assert not np.isnan(_array_bounds(parse("sqrt(x)"), negative)[0]).any()
    # void wins over an unknown 1/x, walked after it, before it or inside the same argument
    for text in ("sqrt(-1-x^2)", "ln(-1-x^2)*2+1/x", "1/x+ln(-1-x^2)*2", "sqrt(1/x+ln(-1-x^2))"):
        lo, hi = _array_bounds(parse(text), whole)
        assert np.isnan(lo).all() and np.isnan(hi).all()
        assert np.isnan(compile_array(parse(text), ("x",))(np.linspace(-1.0, 1.0, 101))).all()


# --- the column walk ------------------------------------------------------------


def _same_error(got, want):
    return type(got) is type(want) and (str(got), got.reason) == (str(want), want.reason) and got.node is want.node


@given(trees(), st.lists(st.tuples(_ENDS, _ENDS), min_size=1, max_size=60))
# the sign of a zero, and points where the walk raises: 1/x at 0 and -0, and an overflow
@example(Unary(Variable("x")), [(0.0, 0.0), (-0.0, 1.0)])
@example(parse("1/x+y"), [(1.0, 2.0), (0.0, 1.0), (-0.0, 1e-300), (2.0, -0.0)])
@example(parse("x*1e300*y"), [(1e200, 1.0), (1.0, 1.0), (-1e200, 1e200)])
@settings(max_examples=300, deadline=None)
def test_the_column_walk_is_evaluate_at_every_point(tree, points):
    _assert_walk_is_evaluate(tree, points)


def _assert_walk_is_evaluate(tree, points):
    columns = {"x": [x for x, _ in points], "y": [y for _, y in points]}
    wants = []
    for x, y in points:
        try:
            wants.append(evaluate(tree, {"x": x, "y": y}))
        except EvalError as err:
            wants.append(err)
    try:
        walked = _walk(tree, columns, len(points))
    except EvalError as err:
        # evaluate's error at the first point where the failing node fails; the redo gives each point's own
        first = next((want for want in wants if isinstance(want, EvalError) and want.node is err.node), None)
        assert first is not None and _same_error(err, first)
        walked = None
    got = _values(tree, columns, len(points))
    assert len(got) == len(wants)
    for i, (value, want) in enumerate(zip(got, wants)):
        if isinstance(want, EvalError):
            assert walked is None and isinstance(value, EvalError) and _same_error(value, want)
        else:
            assert (type(value), value.hex()) == (type(want), want.hex())
            assert walked is None or walked[i].hex() == want.hex()


# one case per way a raw column leaves the doubles, each between finite points:
# the raw operation raises ZeroDivisionError, ValueError or OverflowError, or it
# returns inf, -inf or nan, or a finite value its guard refuses
@pytest.mark.parametrize(
    "tree, points",
    [
        (parse("x/y"), [(1.0, 2.0), (3.0, 0.0), (5.0, 7.0)]),
        (parse("x/y"), [(1.0, 2.0), (3.0, -0.0), (5.0, 7.0)]),
        (parse("x^y"), [(2.0, 3.0), (0.0, -1.0), (1.5, 2.0)]),
        (parse("x^y"), [(2.0, 3.0), (-8.0, 0.5), (1.5, 2.0)]),
        (parse("x^y"), [(2.0, 3.0), (10.0, 400.0), (1.5, 2.0)]),
        (parse("exp(x)"), [(1.0, 0.0), (710.0, 0.0), (2.0, 0.0)]),
        (parse("ln(x)"), [(1.0, 0.0), (0.0, 0.0), (2.0, 0.0)]),
        (parse("ln(x)"), [(1.0, 0.0), (-1.0, 0.0), (2.0, 0.0)]),
        (parse("sqrt(x)"), [(1.0, 0.0), (-1.0, 0.0), (2.0, 0.0)]),
        (parse("x+y"), [(1.0, 2.0), (1e308, 1e308), (3.0, 4.0)]),
        (parse("x-y"), [(1.0, 2.0), (-1e308, 1e308), (3.0, 4.0)]),
        (parse("x*y"), [(1.0, 2.0), (1e200, -1e200), (3.0, 4.0)]),
        (parse("x/y"), [(1.0, 2.0), (1e300, 1e-300), (3.0, 4.0)]),
        (Call("ln", Literal(math.inf)), [(1.0, 2.0), (3.0, 4.0)]),
        # math.pow(-inf, -0.5) is 0.0 where the guard refuses a negative base
        (parse("x^y"), [(2.0, 3.0), (-math.inf, -0.5), (1.5, 2.0)]),
        (Binary("^", Unary(Call("ln", Literal(math.inf))), Variable("y")), [(1.0, -0.5), (3.0, -2.5)]),
    ],
    ids=[
        "div-by-0", "div-by-minus-0", "pow-0-to-negative", "pow-negative-base", "pow-overflow", "exp-overflow",
        "ln-0", "ln-negative", "sqrt-negative", "add-to-inf", "sub-to-minus-inf", "mul-to-minus-inf",
        "div-to-inf", "ln-of-inf", "pow-minus-inf-base", "pow-minus-inf-inside",
    ],
)
def test_a_column_that_leaves_the_doubles_is_redone_by_its_guard(tree, points):
    _assert_walk_is_evaluate(tree, points)
