"""Expression trees for binary cost functions.

A cost function over two variables is stored as a small arithmetic tree
whose leaves are constants or one of the two scope slots (``x0``, ``x1``).
Trees serialize to prefix s-expressions, e.g. ``(- (^ x0 2) (^ x1 2))``.

Grammar (atoms and binary operators only)::

    expr    := number | 'x0' | 'x1'
             | '(' op expr expr ')'          op in + - * /
             | '(' '^' expr integer ')'      integer exponent >= 0
             | '(' 'neg' expr ')'

Evaluation works on scalars or numpy arrays (elementwise).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Expression",
    "Constant",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "DivisionByZero",
    "ExpressionSyntaxError",
    "eval_expr",
    "parse_expr",
    "format_expr",
    "referenced_slots",
    "compile_expr",
    "compile_skeleton",
]


class DivisionByZero(ArithmeticError):
    """A division node hit a zero denominator during evaluation."""


class ExpressionSyntaxError(ValueError):
    """The s-expression text could not be parsed."""


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Var:
    slot: int  # 0 or 1, the position inside the function scope

    def __post_init__(self):
        if self.slot not in (0, 1):
            raise ValueError(f"variable slot must be 0 or 1, got {self.slot}")


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Div:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Pow:
    base: "Expression"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {self.exponent!r}")


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


Expression = Constant | Var | Add | Sub | Mul | Div | Pow | Neg


def eval_expr(expr: Expression, a, b):
    """Evaluate ``expr`` with slot 0 bound to ``a`` and slot 1 to ``b``.

    Accepts scalars or numpy arrays (broadcast elementwise). Raises
    DivisionByZero if any denominator is exactly zero.
    """
    match expr:
        case Constant(value=v):
            return v
        case Var(slot=s):
            return a if s == 0 else b
        case Add(left=l, right=r):
            return eval_expr(l, a, b) + eval_expr(r, a, b)
        case Sub(left=l, right=r):
            return eval_expr(l, a, b) - eval_expr(r, a, b)
        case Mul(left=l, right=r):
            return eval_expr(l, a, b) * eval_expr(r, a, b)
        case Div(left=l, right=r):
            den = eval_expr(r, a, b)
            if np.any(den == 0):
                raise DivisionByZero("zero denominator in cost expression")
            return eval_expr(l, a, b) / den
        case Pow(base=base, exponent=n):
            return eval_expr(base, a, b) ** n
        case Neg(operand=o):
            return -eval_expr(o, a, b)
    raise TypeError(f"not an expression node: {expr!r}")


def referenced_slots(expr: Expression) -> set[int]:
    """Set of scope slots (0/1) the expression actually reads."""
    match expr:
        case Constant():
            return set()
        case Var(slot=s):
            return {s}
        case Pow(base=base):
            return referenced_slots(base)
        case Neg(operand=o):
            return referenced_slots(o)
        case Add(left=l, right=r) | Sub(left=l, right=r) | Mul(left=l, right=r) | Div(left=l, right=r):
            return referenced_slots(l) | referenced_slots(r)
    raise TypeError(f"not an expression node: {expr!r}")


# --- s-expression text format ------------------------------------------------

_BINARY_OPS = {"+": Add, "-": Sub, "*": Mul, "/": Div}


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_expr(text: str) -> Expression:
    """Parse a prefix s-expression string into an expression tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionSyntaxError("empty expression")
    expr, rest = _parse_tokens(tokens)
    if rest:
        raise ExpressionSyntaxError(f"trailing tokens after expression: {' '.join(rest)}")
    return expr


def _parse_tokens(tokens: list[str]) -> tuple[Expression, list[str]]:
    head, rest = tokens[0], tokens[1:]
    if head == ")":
        raise ExpressionSyntaxError("unexpected ')'")
    if head != "(":
        return _parse_atom(head), rest
    if not rest:
        raise ExpressionSyntaxError("unterminated '('")
    op, rest = rest[0], rest[1:]
    if op in _BINARY_OPS:
        left, rest = _parse_tokens(rest)
        right, rest = _parse_tokens(rest)
        node = _BINARY_OPS[op](left, right)
    elif op == "^":
        base, rest = _parse_tokens(rest)
        if not rest:
            raise ExpressionSyntaxError("'^' missing exponent")
        exp_tok, rest = rest[0], rest[1:]
        try:
            exponent = int(exp_tok)
        except ValueError:
            raise ExpressionSyntaxError(f"'^' exponent must be an integer, got {exp_tok!r}") from None
        node = Pow(base, exponent)
    elif op == "neg":
        operand, rest = _parse_tokens(rest)
        node = Neg(operand)
    else:
        raise ExpressionSyntaxError(f"unknown operator {op!r}")
    if not rest or rest[0] != ")":
        raise ExpressionSyntaxError(f"expected ')' to close '{op}'")
    return node, rest[1:]


def _parse_atom(token: str) -> Expression:
    if token == "x0":
        return Var(0)
    if token == "x1":
        return Var(1)
    try:
        return Constant(float(token))
    except ValueError:
        raise ExpressionSyntaxError(f"bad atom {token!r}") from None


def format_expr(expr: Expression) -> str:
    """Render an expression tree back to its s-expression string."""
    match expr:
        case Constant(value=v):
            return repr(float(v))
        case Var(slot=s):
            return f"x{s}"
        case Add(left=l, right=r):
            return f"(+ {format_expr(l)} {format_expr(r)})"
        case Sub(left=l, right=r):
            return f"(- {format_expr(l)} {format_expr(r)})"
        case Mul(left=l, right=r):
            return f"(* {format_expr(l)} {format_expr(r)})"
        case Div(left=l, right=r):
            return f"(/ {format_expr(l)} {format_expr(r)})"
        case Pow(base=base, exponent=n):
            return f"(^ {format_expr(base)} {n})"
        case Neg(operand=o):
            return f"(neg {format_expr(o)})"
    raise TypeError(f"not an expression node: {expr!r}")


# --- compilation -------------------------------------------------------------

def _checked_div(num, den):
    if np.any(den == 0):
        raise DivisionByZero("zero denominator in cost expression")
    return num / den


def _emit(expr: Expression, consts: list | None = None) -> str:
    """Python source for ``expr`` over ``a``/``b``.

    With ``consts`` given, each maximal subtree that reads no variable is
    emitted as a parameter ``c0``, ``c1``, ... and its value is appended to
    ``consts``; the value comes from evaluating that subtree's own source,
    so it is the exact number the inlined form computes.
    """
    if consts is not None and not referenced_slots(expr):
        # a literal is its own value; a larger subtree is folded by evaluation
        value = float(expr.value) if isinstance(expr, Constant) else eval(_emit(expr), _GLOBALS)
        consts.append(value)
        return f"c{len(consts) - 1}"
    match expr:
        case Constant(value=v):
            # parenthesized so a negative literal cannot bind under ** wrongly
            return f"({float(v)!r})"
        case Var(slot=s):
            return "a" if s == 0 else "b"
        case Add(left=l, right=r):
            return f"({_emit(l, consts)} + {_emit(r, consts)})"
        case Sub(left=l, right=r):
            return f"({_emit(l, consts)} - {_emit(r, consts)})"
        case Mul(left=l, right=r):
            return f"({_emit(l, consts)} * {_emit(r, consts)})"
        case Div(left=l, right=r):
            return f"_div({_emit(l, consts)}, {_emit(r, consts)})"
        case Pow(base=base, exponent=n):
            return f"({_emit(base, consts)} ** {n})"
        case Neg(operand=o):
            return f"(-{_emit(o, consts)})"
    raise TypeError(f"not an expression node: {expr!r}")


# repr() writes non-finite constants as inf and nan
_GLOBALS = {"_div": _checked_div, "inf": float("inf"), "nan": float("nan"), "__builtins__": {}}


@lru_cache(maxsize=4096)
def _compile_source(params: str, body: str):
    return eval(f"lambda {params}: {body}", _GLOBALS)


def compile_expr(expr: Expression):
    """Compile a tree into a fast ``f(a, b)`` callable.

    The compiled function is semantically identical to ``eval_expr`` and is
    what each ``SwarmAgent`` evaluates; ``eval_expr`` remains the independent
    reference used by the centralized oracle. Results are cached per source
    text, not per tree: trees compare equal when their constants differ only
    in the sign of a zero, and their compiled forms must not be shared.
    """
    return _compile_source("a, b", _emit(expr))


def compile_skeleton(expr: Expression):
    """Split a tree into a shared callable and its own constants.

    Returns ``(fn, consts)`` with ``fn(a, b, *consts)`` equal, element for
    element and bit for bit, to ``compile_expr(expr)(a, b)``. Trees that
    differ only in their variable-free subtrees get the same ``fn`` object,
    so edges can be grouped by it and evaluated together, with each constant
    passed as a column of per-edge values.
    """
    consts: list[float] = []
    body = _emit(expr, consts)
    params = ", ".join(["a", "b"] + [f"c{i}" for i in range(len(consts))])
    return _compile_source(params, body), tuple(consts)
