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

import math
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


def _pow(x, n: int):
    """``x ** n``; a float result too large overflows to a signed infinity, as
    numpy's does, instead of raising OverflowError."""
    try:
        return x ** n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


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
            return _pow(eval_expr(base, a, b), n)
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

def _check_nonzero(den) -> None:
    if not np.all(den):
        raise DivisionByZero("zero denominator in cost expression")


def _checked_div(num, den):
    _check_nonzero(den)
    return num / den


_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
# repr() writes non-finite constants as inf and nan
_NAN = float("nan")
_GLOBALS = {"_div": _checked_div, "_pow": _pow, "inf": float("inf"), "nan": _NAN, "__builtins__": {}}


def _emit(expr: Expression, steps: list, consts: list | None = None):
    """Append to ``steps`` what computes ``expr`` over ``a``/``b``; return the
    operand that holds its value.

    Each operator node is one step ``(op, x, y)``, appended after the steps of
    its operands, so the steps run in the order the tree evaluates and no
    step nests another: any depth compiles. Step i's value is named ``_i``;
    ``op`` is ``+ - * /``, ``**`` (``y`` the exponent) or ``neg``. With
    ``consts`` given, a subtree that reads no variable emits no step and
    returns its value as a float, folded as the compiled code computes it;
    where such a subtree meets one that reads a variable it becomes a
    parameter ``c0``, ``c1``, ..., and its value is appended to ``consts``.
    """
    match expr:
        case Constant(value=v):
            if consts is None:
                # parenthesized so a negative literal stays one operand
                return f"({float(v)!r})"
            value = float(v)
            return value if value == value else _NAN  # the NaN the literal ``nan`` gives
        case Var(slot=s):
            return "a" if s == 0 else "b"
        case Pow(base=base, exponent=n):
            op, x, y = "**", _emit(base, steps, consts), n
        case Neg(operand=o):
            op, x, y = "neg", _emit(o, steps, consts), None
        case Add(left=l, right=r) | Sub(left=l, right=r) | Mul(left=l, right=r) | Div(left=l, right=r):
            op, x, y = _BINARY[type(expr)], _emit(l, steps, consts), _emit(r, steps, consts)
        case _:
            raise TypeError(f"not an expression node: {expr!r}")
    if consts is not None and isinstance(x, float):
        if op in ("**", "neg") or isinstance(y, float):
            return _fold(op, x, y)
        x = _lift(x, consts)
    elif consts is not None and isinstance(y, float):
        y = _lift(y, consts)
    steps.append((op, x, y))
    return f"_{len(steps) - 1}"


def _fold(op: str, x: float, y):
    """A step on constants, computed by the source the compiled code runs for it."""
    return eval(_source(op, "x", "y"), _GLOBALS, {"x": x, "y": y})


def _lift(value: float, consts: list) -> str:
    consts.append(value)
    return f"c{len(consts) - 1}"


def _source(op: str, x: str, y) -> str:
    """One step as a Python expression."""
    match op:
        case "**":
            return f"_pow({x}, {y})"
        case "neg":
            return f"(-{x})"
        case "/":
            return f"_div({x}, {y})"
    return f"({x} {op} {y})"


# nested parentheses per assignment, well below the 200 Python's parser allows
_MAX_NESTING = 50


@lru_cache(maxsize=4096)
def _compile_source(body: str):
    return eval(f"lambda a, b: {body}", _GLOBALS)


def compile_expr(expr: Expression):
    """Compile a tree into a fast ``f(a, b)`` callable.

    The compiled function is semantically identical to ``eval_expr`` and is
    what each ``SwarmAgent`` evaluates; ``eval_expr`` remains the independent
    reference used by the centralized oracle. Results are cached per source
    text, not per tree: trees compare equal when their constants differ only
    in the sign of a zero, and their compiled forms must not be shared.
    """
    steps: list = []
    result = _emit(expr, steps)
    # each step's source is inlined into the step that reads it, except where
    # its nesting reaches _MAX_NESTING: then it is assigned to its name first
    assigned, source, nesting = [], {}, {}
    for i, (op, x, y) in enumerate(steps):
        depth = 1 + max(nesting.pop(x, 0), nesting.pop(y, 0))
        text = _source(op, source.pop(x, x), source.pop(y, y))
        if depth < _MAX_NESTING:
            source[f"_{i}"], nesting[f"_{i}"] = text, depth
        else:
            assigned.append(f"(_{i} := {text}), ")
    body = source.pop(result, result)
    return _compile_source(f"({''.join(assigned)}{body})[-1]" if assigned else body)


# --- in-place compilation ----------------------------------------------------

_UFUNCS = {"+": "_add", "-": "_subtract", "*": "_multiply", "/": "_divide"}
_INPLACE_GLOBALS = {"_add": np.add, "_subtract": np.subtract, "_multiply": np.multiply,
                    "_divide": np.divide, "_power": np.power, "_negative": np.negative,
                    "_copyto": np.copyto, "_check_nonzero": _check_nonzero, "__builtins__": {}}


class _Registers:
    """Temporary buffers of an in-place function, reused once consumed.

    Buffer ``i`` is written ``{i}`` in the emitted lines, which are
    formatted with the buffers' names once the root's buffer is known.
    """

    def __init__(self):
        self.count = 0
        self.free: list[str] = []

    def take(self, *operands: str) -> str:
        """Where a result goes: the first operand held in a buffer, else a free buffer."""
        held = [op for op in operands if op[0] == "{"]
        self.free.extend(held[1:])
        if held:
            return held[0]
        if self.free:
            return self.free.pop()
        self.count += 1
        return f"{{{self.count - 1}}}"


@lru_cache(maxsize=4096)
def _compile_inplace(steps: tuple, result: str, num_consts: int):
    """``(fn, num_temps)``: ``steps`` (see ``_emit``) as ufunc calls with ``out=``,
    leaving ``result`` in ``out``.

    Each call is the elementwise operation the compiled source runs for that
    step, so every element gets the same bits.
    """
    lines: list[str] = []
    regs = _Registers()
    held: dict[str, str] = {}  # step value -> the buffer holding it
    for i, (op, x, y) in enumerate(steps):
        x = held.pop(x, x)
        if op == "**":
            dest = regs.take(x)
            # x ** 2 runs numpy's square, whose bits are x * x
            lines.append(f"_multiply({x}, {x}, out={dest})" if y == 2 else
                         f"_power({x}, {y}, out={dest})")
        elif op == "neg":
            dest = regs.take(x)
            lines.append(f"_negative({x}, out={dest})")
        else:
            y = held.pop(y, y)
            if op == "/":
                lines.append(f"_check_nonzero({y})")
            dest = regs.take(x, y)
            lines.append(f"{_UFUNCS[op]}({x}, {y}, out={dest})")
        held[f"_{i}"] = dest
    result = held.get(result, result)
    temps = [f"t{i}" for i in range(regs.count)]
    names = list(temps)
    if result[0] == "{":  # the root's buffer is ``out`` itself
        root = int(result[1:-1])
        temps.pop()
        names = temps[:root] + ["out"] + temps[root:]
    else:
        lines.append(f"_copyto(out, {result})")
    source = "\n    ".join(([f"{', '.join(temps)}, = temps"] if temps else []) + lines)
    params = ", ".join(["a", "b", "out", "temps"] + [f"c{i}" for i in range(num_consts)])
    namespace = {}
    exec(f"def skeleton({params}):\n    {source.format(*names)}\n", _INPLACE_GLOBALS, namespace)
    return namespace["skeleton"], len(temps)


def compile_skeleton(expr: Expression):
    """Split a tree into a shared in-place callable and its own constants.

    Returns ``(fn, consts, num_temps)``. ``fn(a, b, out, temps, *consts)``
    writes into ``out`` what ``compile_expr(expr)(a, b)`` returns, element
    for element and bit for bit, as a sequence of ufunc calls with ``out=``,
    one per step of the same ``_emit`` output: ``temps`` holds ``num_temps`` scratch
    arrays of ``out``'s shape, which it overwrites, and nothing else is
    allocated. ``out`` and ``temps`` must not overlap ``a``, ``b`` or the
    constants. Trees that differ only in their variable-free subtrees get
    the same ``fn`` object, so edges can be grouped by it and evaluated
    together, with each constant passed as per-edge values that broadcast
    against ``out``.
    """
    consts: list[float] = []
    steps: list = []
    result = _emit(expr, steps, consts)
    if isinstance(result, float):
        result = _lift(result, consts)
    fn, num_temps = _compile_inplace(tuple(steps), result, len(consts))
    return fn, tuple(consts), num_temps
