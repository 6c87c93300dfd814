"""Arithmetic expression language used by all of the diagnostics.

Expressions are parsed from text into a small immutable tree and are
evaluated under strict IEEE-754 double semantics: any operation that
leaves the finite real domain (division by zero, log of a non-positive
value, overflow past the largest double, ...) raises a typed error
instead of silently returning an infinity.  sin, cos and tan of an
infinite value, which only a caller's own overflow can pass in (an RK4
stage, say), raise OverflowDomainError too.  The numerical modules rely
on this to tell "the value became huge" apart from "the formula stopped
making sense here".

Grammar, from loosest to tightest precedence::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?            right associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

'^' binds tighter than '*' and '/', which bind tighter than '+' and
'-'.  Unary minus binds below '^', so "-2^2" means -(2^2) while "2^-2"
is still legal.  NAME is a run of ASCII letters; "pi" is a constant and
sin, cos, tan, exp, ln, sqrt, abs are the built-in functions.  There is
no implicit multiplication.

One regex reads every token before parsing starts, so an unexpected
character is reported ahead of any grammar error.  Whitespace between
tokens is space, tab, CR and LF; any other character outside a token is
an error.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Collection, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Expression",
    "Literal",
    "Variable",
    "Unary",
    "Binary",
    "Call",
    "ExpressionError",
    "ParseError",
    "EvalError",
    "UnboundVariableError",
    "DomainError",
    "OverflowDomainError",
    "FUNCTIONS",
    "CONSTANTS",
    "parse",
    "evaluate",
    "to_text",
    "free_variables",
    "compile_scalar",
    "compile_array",
]

FUNCTIONS = frozenset({"sin", "cos", "tan", "exp", "ln", "sqrt", "abs"})
CONSTANTS: dict[str, float] = {"pi": math.pi}

# Nesting cap keeps the recursive-descent parser total: pathological
# inputs get a ParseError, never a RecursionError.
_MAX_DEPTH = 120


class ExpressionError(Exception):
    """Base class for every error this module raises on purpose."""


class ParseError(ExpressionError):
    """Malformed source text.  `offset` is a byte offset into the UTF-8
    encoding of the source."""

    def __init__(self, message: str, source: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.source = source
        self.offset = offset


class EvalError(ExpressionError):
    """Base class for evaluation failures."""


class UnboundVariableError(EvalError):
    def __init__(self, name: str, node: "Expression | None" = None):
        super().__init__(f"unbound variable {name!r}")
        self.name = name
        self.node = node


class DomainError(EvalError):
    """An operation left the domain of finite real doubles."""

    def __init__(self, reason: str, node: "Expression | None" = None):
        message = reason
        if node is not None:
            try:
                message = f"{reason} in {to_text(node)!r}"
            except ValueError:
                pass
        super().__init__(message)
        self.reason = reason
        self.node = node


class OverflowDomainError(DomainError):
    """A result too large in magnitude for a finite double; the operands were in the domain."""


class Expression:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Literal(Expression):
    value: float


@dataclass(frozen=True, slots=True)
class Variable(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class Unary(Expression):
    """Negation, the only prefix operator."""

    operand: Expression


@dataclass(frozen=True, slots=True)
class Binary(Expression):
    op: str
    left: Expression
    right: Expression


@dataclass(frozen=True, slots=True)
class Call(Expression):
    func: str
    arg: Expression


# --- parsing --------------------------------------------------------------

# One alternative per token kind; the last takes any other character,
# which is an error.
_TOKEN_RE = re.compile(
    r"(?P<space>[ \t\r\n]+)|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z]+)|(?P<op>[-+*/^()])|(?P<bad>.)",
    re.DOTALL,
)


class _Parser:
    """Recursive descent over (kind, text, offset) tokens; an offset counts
    characters until `_fail` turns it into bytes."""

    def __init__(self, source: str):
        self.source = source
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(source):
            kind = m.lastgroup
            if kind == "bad":
                self._fail(f"unexpected character {m.group()!r}", m.start())
            if kind != "space":
                self.tokens.append((kind, m.group(), m.start()))
        self.tokens.append(("end", "", len(source)))
        self.index = 0
        self.depth = 0

    def _fail(self, message: str, pos: int) -> None:
        raise ParseError(message, self.source, len(self.source[:pos].encode("utf-8")))

    def _take(self, ops: str) -> str | None:
        """If the next token is an operator in `ops`, consume it and return its text."""
        kind, text, _ = self.tokens[self.index]
        if kind == "op" and text in ops:
            self.index += 1
            return text
        return None

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self._fail("expression nested too deeply", self.tokens[self.index][2])

    def expr(self) -> Expression:
        self._enter()
        node = self.term()
        while op := self._take("+-"):
            node = Binary(op, node, self.term())
        self.depth -= 1
        return node

    def term(self) -> Expression:
        node = self.unary()
        while op := self._take("*/"):
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Expression:
        self._enter()
        node = Unary(self.unary()) if self._take("-") else self.power()
        self.depth -= 1
        return node

    def power(self) -> Expression:
        base = self.atom()
        return Binary("^", base, self.unary()) if self._take("^") else base

    def atom(self) -> Expression:
        kind, text, pos = self.tokens[self.index]
        self.index += 1
        if kind == "number":
            value = float(text)
            if not math.isfinite(value):
                self._fail("number literal out of double range", pos)
            return Literal(value)
        if kind == "name" and not self._take("("):
            if text in FUNCTIONS:
                self._fail(f"{text!r} is a function and needs a parenthesised argument", pos)
            return Literal(CONSTANTS[text]) if text in CONSTANTS else Variable(text)
        if kind == "name" and text not in FUNCTIONS:
            self._fail(f"unknown function {text!r}", pos)
        if kind == "end":
            self._fail("unexpected end of input; expected a value", pos)
        if kind == "op" and text != "(":
            self._fail(f"expected a number, a name, or '(' but found {text!r}", pos)
        node = self.expr()
        if not self._take(")"):
            self._fail("expected ')'", self.tokens[self.index][2])
        return Call(text, node) if kind == "name" else node


def parse(source: str) -> Expression:
    """Parse `source` into an expression tree.

    Every malformed input raises ParseError carrying a byte offset; no
    other exception escapes, whatever the input string.
    """
    if not isinstance(source, str):
        raise TypeError("expression source must be a string")
    parser = _Parser(source)
    node = parser.expr()
    kind, text, pos = parser.tokens[parser.index]
    if kind != "end":
        parser._fail(f"unexpected {text!r} after a complete expression", pos)
    return node


# --- guarded scalar arithmetic ---------------------------------------------
#
# evaluate(), _walk() and compile_scalar() call these guards in the same
# order, which makes the three paths bit-identical.  Each guard is passed
# the node it evaluates and raises its error with that node.


def _add(a: float, b: float, node: Expression) -> float:
    r = a + b
    if math.isfinite(r):
        return r
    raise OverflowDomainError("overflow in addition", node)


def _sub(a: float, b: float, node: Expression) -> float:
    r = a - b
    if math.isfinite(r):
        return r
    raise OverflowDomainError("overflow in subtraction", node)


def _mul(a: float, b: float, node: Expression) -> float:
    r = a * b
    if math.isfinite(r):
        return r
    raise OverflowDomainError("overflow in multiplication", node)


def _div(a: float, b: float, node: Expression) -> float:
    if b == 0.0:
        raise DomainError("division by zero", node)
    r = a / b
    if math.isfinite(r):
        return r
    raise OverflowDomainError("overflow in division", node)


def _pow(a: float, b: float, node: Expression) -> float:
    if a == 0.0 and b < 0.0:
        raise DomainError("zero raised to a negative power", node)
    if a < 0.0 and math.isfinite(b) and b != math.floor(b):
        raise DomainError("negative base with a non-integer exponent", node)
    try:
        r = math.pow(a, b)
    except (OverflowError, ValueError):
        raise OverflowDomainError("overflow in power", node) from None
    if math.isfinite(r):
        return r
    raise OverflowDomainError("overflow in power", node)


def _exp(a: float, node: Expression) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        raise OverflowDomainError("overflow in exp", node) from None


def _ln(a: float, node: Expression) -> float:
    if a <= 0.0:
        raise DomainError("log of a non-positive value", node)
    return math.log(a)


def _sqrt(a: float, node: Expression) -> float:
    if a < 0.0:
        raise DomainError("square root of a negative value", node)
    return math.sqrt(a)


def _periodic(fn: Callable[[float], float]) -> Callable[[float, Expression], float]:
    # sin, cos and tan of a finite double are finite; math raises ValueError
    # only on an infinite argument, which an overflow upstream produced
    def guard(a: float, node: Expression) -> float:
        try:
            return fn(a)
        except ValueError:
            raise OverflowDomainError(f"overflow in {fn.__name__}", node) from None

    return guard


_BINARY_OPS: dict[str, Callable[[float, float, Expression], float]] = {
    "+": _add,
    "-": _sub,
    "*": _mul,
    "/": _div,
    "^": _pow,
}

_FUNCTION_OPS: dict[str, Callable[[float, Expression], float]] = {
    "sin": _periodic(math.sin),
    "cos": _periodic(math.cos),
    "tan": _periodic(math.tan),
    "exp": _exp,
    "ln": _ln,
    "sqrt": _sqrt,
    "abs": lambda a, node: abs(a),
}


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate a tree under `bindings`, strictly.

    Raises UnboundVariableError for a variable missing from `bindings`
    and DomainError (carrying the offending subtree) whenever a step
    leaves the finite real doubles.
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Variable):
        if expr.name not in bindings:
            raise UnboundVariableError(expr.name, expr)
        return float(bindings[expr.name])
    if isinstance(expr, Unary):
        return -evaluate(expr.operand, bindings)
    if isinstance(expr, Binary):
        return _BINARY_OPS[expr.op](evaluate(expr.left, bindings), evaluate(expr.right, bindings), expr)
    if isinstance(expr, Call):
        return _FUNCTION_OPS[expr.func](evaluate(expr.arg, bindings), expr)
    raise TypeError(f"not an expression node: {expr!r}")


def _walk(expr: Expression, columns: Mapping[str, Sequence[float]], n: int) -> list[float]:
    """`evaluate` at n points, `columns` holding each variable's values: a node maps its guard over them.

    Guards and operand order are evaluate's, so each value is evaluate's
    bit for bit; an error is evaluate's at the first point its node fails.
    """
    if isinstance(expr, Literal):
        return [expr.value] * n
    if isinstance(expr, Variable):
        if expr.name not in columns:
            raise UnboundVariableError(expr.name, expr)
        return list(map(float, columns[expr.name]))
    if isinstance(expr, Unary):
        return [-a for a in _walk(expr.operand, columns, n)]
    if isinstance(expr, Binary):
        return list(map(_BINARY_OPS[expr.op], _walk(expr.left, columns, n), _walk(expr.right, columns, n), repeat(expr, n)))
    if isinstance(expr, Call):
        return list(map(_FUNCTION_OPS[expr.func], _walk(expr.arg, columns, n), repeat(expr, n)))
    raise TypeError(f"not an expression node: {expr!r}")


def free_variables(expr: Expression) -> frozenset[str]:
    """Names of the variables occurring in `expr`."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            out.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Call):
            stack.append(node.arg)
    return frozenset(out)


# --- printing ---------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _prec(expr: Expression) -> int:
    if isinstance(expr, Binary):
        if expr.op in "+-":
            return _PREC_ADD
        if expr.op in "*/":
            return _PREC_MUL
        return _PREC_POW
    if isinstance(expr, Unary):
        return _PREC_MUL
    return _PREC_ATOM


def _literal_text(value: float) -> str:
    # repr() of a double is round-trip exact; negative or non-finite
    # literals cannot reparse to a Literal node, so refuse them (parse()
    # never builds such trees, only hand-built ones can).
    if not math.isfinite(value) or math.copysign(1.0, value) < 0:
        raise ValueError(f"literal {value!r} has no lossless rendering; wrap negatives in Unary")
    return repr(float(value))


def to_text(expr: Expression) -> str:
    """Render a tree to text that reparses to an identical tree."""
    if isinstance(expr, Literal):
        return _literal_text(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Unary):
        inner = to_text(expr.operand)
        if _prec(expr.operand) <= _PREC_MUL:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Binary):
        me = _prec(expr)
        left = to_text(expr.left)
        right = to_text(expr.right)
        if expr.op == "^":
            # right associative: parenthesise the left side on ties
            if _prec(expr.left) <= me:
                left = f"({left})"
            if _prec(expr.right) < me:
                right = f"({right})"
        else:
            if _prec(expr.left) < me:
                left = f"({left})"
            if _prec(expr.right) <= me:
                right = f"({right})"
        return f"{left}{expr.op}{right}"
    if isinstance(expr, Call):
        return f"{expr.func}({to_text(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


# --- compilation ------------------------------------------------------------


@functools.cache
def _array_namespace() -> dict[str, object]:
    # built by the first compile_array, so that only the array lane imports numpy
    import numpy as np

    return {
        "__builtins__": {},
        "F64": np.float64,
        "POW": np.power,
        "POW2": np.square,
        "POW3": lambda a: a * a * a,
        "POW4": lambda a: np.square(np.square(a)),
        "Fsin": np.sin,
        "Fcos": np.cos,
        "Ftan": np.tan,
        "Fexp": np.exp,
        "Fln": np.log,
        "Fsqrt": np.sqrt,
        "Fabs": np.abs,
    }


def _check_params(expr: Expression, params: Sequence[str]) -> tuple[str, ...]:
    names = tuple(params)
    for name in names:
        if not name.isascii() or not name.isalpha() or not name.islower():
            raise ValueError(f"parameter name {name!r} must be lowercase ASCII letters")
        if name in FUNCTIONS or name in CONSTANTS:
            raise ValueError(f"parameter name {name!r} shadows a built-in")
    missing = sorted(free_variables(expr) - set(names))
    if missing:
        raise UnboundVariableError(missing[0])
    return names


def _token(node: Expression, text: object, allowed: Collection[str]) -> str:
    # the only text a tree puts into generated source: exactly one of `allowed`
    if type(text) is str and text in allowed:
        return text
    raise TypeError(f"cannot compile {node!r}")


def _literal_code(node: Literal) -> str:
    # repr spells a finite float as a number; inf and nan would be bare names
    if type(node.value) is float and math.isfinite(node.value):
        return repr(node.value)
    raise TypeError(f"cannot compile {node!r}")


def _scalar_code(expr: Expression, names: tuple[str, ...], consts: dict[str, object]) -> str:
    """Source of `expr`; operation k's guard and node enter `consts` as O<k> and N<k>."""
    if isinstance(expr, Literal):
        return _literal_code(expr)
    if isinstance(expr, Variable):
        return _token(expr, expr.name, names)
    if isinstance(expr, Unary):
        return f"(- {_scalar_code(expr.operand, names, consts)})"
    if isinstance(expr, Binary):
        guard = _BINARY_OPS[_token(expr, expr.op, _BINARY_OPS)]
        args = f"{_scalar_code(expr.left, names, consts)}, {_scalar_code(expr.right, names, consts)}"
    elif isinstance(expr, Call):
        guard = _FUNCTION_OPS[_token(expr, expr.func, _FUNCTION_OPS)]
        args = _scalar_code(expr.arg, names, consts)
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    k = len(consts) // 2
    consts[f"O{k}"], consts[f"N{k}"] = guard, expr
    return f"O{k}({args}, N{k})"


def compile_scalar(expr: Expression, params: Sequence[str] = ("x", "y")) -> Callable[..., float]:
    """Compile a tree to a fast positional-argument callable.

    The result takes one float per name in `params` and is bit-identical
    to `evaluate`: same values on success, same typed errors on failure.
    It calls the guards `evaluate` calls, each with its node, so an
    error names the offending subtree without a second pass through the
    tree.  Its `.source` is the generated lambda.
    """
    names = _check_params(expr, params)
    consts: dict[str, object] = {}
    source = f"lambda {', '.join(names)}: {_scalar_code(expr, names, consts)}"
    fn = eval(source, {"__builtins__": {}, **consts})
    fn.source = source  # type: ignore[attr-defined]
    return fn


def _small_power(expr: Binary) -> int | None:
    # small integer literal exponents multiply; decided from the tree, never per element
    if isinstance(expr.right, Literal) and expr.right.value in (2.0, 3.0, 4.0):
        return int(expr.right.value)
    return None


def _array_code(expr: Expression, names: tuple[str, ...]) -> str:
    if isinstance(expr, Literal):
        # a numpy scalar, so literal-only subtrees such as 1/0 also run under errstate
        return f"F64({_literal_code(expr)})"
    if isinstance(expr, Variable):
        return _token(expr, expr.name, names)
    if isinstance(expr, Unary):
        return f"(- {_array_code(expr.operand, names)})"
    if isinstance(expr, Binary):
        op = _token(expr, expr.op, _BINARY_OPS)
        if op == "^":
            power = _small_power(expr)
            if power:
                return f"POW{power}({_array_code(expr.left, names)})"
            return f"POW({_array_code(expr.left, names)}, {_array_code(expr.right, names)})"
        return f"({_array_code(expr.left, names)} {op} {_array_code(expr.right, names)})"
    if isinstance(expr, Call):
        return f"F{_token(expr, expr.func, FUNCTIONS)}({_array_code(expr.arg, names)})"
    raise TypeError(f"not an expression node: {expr!r}")


# sin, cos, tan, exp, ln, sqrt and ^ enclosures are widened at both ends by this
# relative amount plus 2^-1022: numpy builds and C libraries round them a
# few ulps (about 1e-16 relative) apart, and subnormal results a few
# subnormal steps apart.
_SLACK = 1e-12
_TINY = 2.0**-1022


def _array_bounds(
    expr: Expression, boxes: Mapping[str, tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Enclosures [lo, hi] of every value compile_array's lane gives on the boxes.

    `boxes` maps each variable to numpy arrays of lower and upper ends,
    which broadcast together.  The walk repeats the lane's operations on
    the ends, in its order and with the lane's own functions: + - * /
    left to right, ^2, ^3 and ^4 by multiplication.  IEEE
    round-to-nearest is monotone, so ends computed in floats enclose the
    float result at every point inside the boxes.  sin and cos of a box
    wider than pi, or with an end beyond 2^20 in magnitude, are [-1, 1].
    t^n for a positive integer literal n is odd or even like n and
    increasing in |t|; any other ^ takes the extremes of its corners.

    Each node returns its ends and two flags of its own subtree, built
    from its operands' alone.  It is unknown where some node of the
    subtree has an end that is not finite (as ln and sqrt have past
    their domain), a divisor box holding 0, a tan box holding a pole,
    or a base box reaching 0 under an exponent that is not a positive
    integer literal.  It is void where the lane is nan at every point
    of the boxes: an ln or sqrt argument's upper end is < 0 (strictly:
    both are defined at -0.0) while the argument is not unknown (the
    ends of a node computed from an unknown one can be anything).  nan
    survives every node except a general ^ (np.power(nan, 0) and
    np.power(1, nan) are 1), which drops its operands' void.  At the
    root an element is (nan, nan) where void, else (-inf, inf) where
    unknown.
    """
    import numpy as np

    ns = _array_namespace()

    def node(lo, hi, unknown, void):
        # a node is unknown where an operand is or where its own ends are not finite
        return lo, hi, unknown | ~(np.isfinite(lo) & np.isfinite(hi)), void

    def widen(lo, hi, unknown, void):
        return node(lo - (np.abs(lo) * _SLACK + _TINY), hi + (np.abs(hi) * _SLACK + _TINY), unknown, void)

    def corners(op, a, b):
        ends = [op(p, q) for p in a[:2] for q in b[:2]]
        return (np.minimum(np.minimum(*ends[:2]), np.minimum(*ends[2:])),
                np.maximum(np.maximum(*ends[:2]), np.maximum(*ends[2:])))

    def even(fn, lo, hi):
        # an even function increasing in |t|: zero is its least value
        a, b = fn(lo), fn(hi)
        return np.where((lo > 0) | (hi < 0), np.minimum(a, b), 0.0), np.maximum(a, b)

    def trig(name, lo, hi):
        # the extremes lie where q = t/pi - shift is an integer m, valued (-1)^m;
        # a box no wider than pi holds at most the first two at or after lo
        shift = 0.0 if name == "cos" else 0.5
        qlo, qhi = lo / np.pi - shift - 1e-6, hi / np.pi - shift + 1e-6
        m = np.ceil(qlo)
        odd = m % 2 == 1
        holds, holds_next = m <= qhi, m + 1 <= qhi
        a, b = ns[f"F{name}"](lo), ns[f"F{name}"](hi)
        whole = ~((hi - lo <= np.pi) & (np.maximum(np.abs(lo), np.abs(hi)) <= 2.0**20))
        if name == "tan":
            # tan increases between its poles, which lie where sin peaks
            return np.where(whole | holds, -np.inf, a), np.where(whole | holds, np.inf, b)
        low = np.where(holds & odd | holds_next & ~odd, -1.0, np.minimum(a, b))
        high = np.where(holds & ~odd | holds_next & odd, 1.0, np.maximum(a, b))
        return np.where(whole, -1.0, low), np.where(whole, 1.0, high)

    def walk(expr: Expression):
        if isinstance(expr, Literal):
            value = np.float64(expr.value)
            return node(value, value, np.False_, np.False_)
        if isinstance(expr, Variable):
            return node(*boxes[expr.name], np.False_, np.False_)
        if isinstance(expr, Unary):
            lo, hi, unknown, void = walk(expr.operand)
            return -hi, -lo, unknown, void
        if isinstance(expr, Call):
            lo, hi, unknown, void = walk(expr.arg)
            fn = ns[f"F{expr.func}"]
            if expr.func == "abs":
                return node(*even(fn, lo, hi), unknown, void)
            if expr.func in ("ln", "sqrt"):
                # an argument proven below 0 leaves the lane nan at every point
                void = void | (hi < 0) & ~unknown
            if expr.func in ("exp", "ln", "sqrt"):
                # increasing; past their domain ln and sqrt give -inf or nan, which node() flags
                return widen(fn(lo), fn(hi), unknown, void)
            return widen(*trig(expr.func, lo, hi), unknown, void)
        if not isinstance(expr, Binary):
            raise TypeError(f"not an expression node: {expr!r}")
        n = expr.right.value if expr.op == "^" and isinstance(expr.right, Literal) else 0.0
        if n >= 1 and float(n).is_integer():
            # t^n is odd or even like n and increasing in |t|: ^2, ^3 and ^4 multiply, which
            # round-to-nearest keeps monotone, and np.power is widened like the general ^
            lo, hi, unknown, void = walk(expr.left)
            power = _small_power(expr)
            P = ns[f"POW{power}"] if power else lambda t: ns["POW"](t, np.float64(n))
            return (node if power else widen)(*(even(P, lo, hi) if n % 2 == 0 else (P(lo), P(hi))), unknown, void)
        a, b = walk(expr.left), walk(expr.right)
        unknown, void = a[2] | b[2], a[3] | b[3]
        if expr.op == "+":
            return node(a[0] + b[0], a[1] + b[1], unknown, void)
        if expr.op == "-":
            return node(a[0] - b[1], a[1] - b[0], unknown, void)
        if expr.op == "*":
            return node(*corners(np.multiply, a, b), unknown, void)
        if expr.op == "/":
            return node(*corners(np.divide, a, b), unknown | (b[0] <= 0) & (b[1] >= 0), void)
        # a^b = exp(b*ln a) is monotone in a and in b: its extremes lie at the corners.
        # It is never void, as np.power(nan, 0) and np.power(1, nan) are 1
        return widen(*corners(ns["POW"], a, b), unknown | (a[0] <= 0), np.False_)

    with np.errstate(all="ignore"):
        lo, hi, unknown, void = walk(expr)
    # shaped like the boxes, as compile_array's result is shaped like its arguments
    shape = np.broadcast_shapes(*(np.shape(end) for box in boxes.values() for end in box))
    lo, hi = np.where(unknown, -np.inf, lo), np.where(unknown, np.inf, hi)
    return np.broadcast_to(np.where(void, np.nan, lo), shape), np.broadcast_to(np.where(void, np.nan, hi), shape)


def compile_array(expr: Expression, params: Sequence[str] = ("x", "y")) -> Callable[..., np.ndarray]:
    """Compile a tree to a numpy-vectorised callable for dense scans.

    Unlike the scalar paths, out-of-domain points do not raise: they
    come back as nan or inf entries, which the scan modules treat as
    evidence in their own right.
    """
    import numpy as np

    names = _check_params(expr, params)
    source = f"lambda {', '.join(names)}: {_array_code(expr, names)}"
    fn = eval(source, dict(_array_namespace()))

    def compiled(*args) -> np.ndarray:
        arrays = [np.asarray(a, dtype=float) for a in args]
        with np.errstate(all="ignore"):
            out = fn(*arrays)
        out = np.asarray(out, dtype=float)
        shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else ()
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out

    compiled.source = source  # type: ignore[attr-defined]
    return compiled
