"""Expression trees for binary cost functions.

A cost function over two variables is stored as a small arithmetic tree
whose leaves are constants or one of the two scope slots (``x0``, ``x1``).
Trees serialize to prefix s-expressions, e.g. ``(- (^ x0 2) (^ x1 2))``.

Grammar (atoms and binary operators only)::

    expr    := number | 'x0' | 'x1'
             | '(' op expr expr ')'          op in + - * /
             | '(' '^' expr integer ')'      integer exponent >= 0
             | '(' 'neg' expr ')'

Evaluation works on scalars or numpy arrays (elementwise). ``eval_expr``
walks a tree; ``compile_skeleton`` is the one compiler, and ``compile_expr``
wraps it. No function here recurses, so a tree of any depth parses,
formats, evaluates and compiles.
"""

import math
import operator
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

# each operator node's s-expression symbol, which also names its compiled step
_SYMBOLS = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^", Neg: "neg"}


def _pow(x, n: int):
    """``x ** n``; a float result too large overflows to a signed infinity, as
    numpy's does, instead of raising OverflowError."""
    try:
        return x ** n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def _check_nonzero(den) -> None:
    if not np.all(den):
        raise DivisionByZero("zero denominator in cost expression")


_OPERATIONS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def _apply(node, x, y=None):
    """``node``'s value from its operands' values, with Python's operators.

    This is ``eval_expr``'s arithmetic. The compiler folds variable-free
    subtrees with it too, so a folded constant has ``eval_expr``'s bits.
    """
    kind = type(node)
    if kind is Pow:
        return _pow(x, node.exponent)
    if kind is Neg:
        return -x
    if kind is Div:
        _check_nonzero(y)
    return _OPERATIONS[kind](x, y)


def _operands(node) -> tuple:
    kind = type(node)
    if kind is Pow:
        return (node.base,)
    if kind is Neg:
        return (node.operand,)
    if kind in _SYMBOLS:
        return node.left, node.right
    if kind is Constant or kind is Var:
        return ()
    raise TypeError(f"not an expression node: {node!r}")


def _postorder(expr: Expression) -> list:
    """The nodes of ``expr``, each after its operands, left before right.

    A stack visits each node before its right, then its left operand; that
    order reversed is the post-order, for a tree of any depth.
    """
    order = []
    stack = [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(_operands(node))
    order.reverse()
    return order


def eval_expr(expr: Expression, a, b):
    """Evaluate ``expr`` with slot 0 bound to ``a`` and slot 1 to ``b``.

    Accepts scalars or numpy arrays (broadcast elementwise). Raises
    DivisionByZero if any denominator is exactly zero. This walk is kept
    apart from the compiler's ufunc calls: it is the reference the oracle
    uses and the tests check compiled functions against.
    """
    values = []
    for node in _postorder(expr):
        kind = type(node)
        if kind is Constant:
            values.append(node.value)
        elif kind is Var:
            values.append(a if node.slot == 0 else b)
        elif kind is Pow or kind is Neg:
            values.append(_apply(node, values.pop()))
        else:
            y = values.pop()
            values.append(_apply(node, values.pop(), y))
    return values.pop()


def referenced_slots(expr: Expression) -> set[int]:
    """Set of scope slots (0/1) the expression actually reads."""
    return {node.slot for node in _postorder(expr) if type(node) is Var}


# --- s-expression text format ------------------------------------------------

# an operator's node type and operand count
_OPERATORS = {symbol: (kind, 1 if kind in (Pow, Neg) else 2) for kind, symbol in _SYMBOLS.items()}
_VARS = {"x0": Var(0), "x1": Var(1)}  # nodes are immutable: every leaf can share these


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_expr(text: str) -> Expression:
    """Parse a prefix s-expression string into an expression tree.

    Each open ``(`` is a frame on a stack that holds its operator and the
    operands parsed so far; an operand that completes its frame closes it,
    and the node it builds becomes an operand of the frame below. Each
    token is read once, and any depth parses.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionSyntaxError("empty expression")
    tokens.append(None)  # reading past the last token gives None
    frames: list[tuple[type, int, list]] = []
    i = 0
    while True:
        token = tokens[i]
        i += 1
        if token == "(":
            op = tokens[i]
            i += 1
            if op not in _OPERATORS:
                raise ExpressionSyntaxError(
                    "unterminated '('" if op is None else f"unknown operator {op!r}")
            frames.append((*_OPERATORS[op], []))
            continue
        if token == ")":
            raise ExpressionSyntaxError("unexpected ')'")
        if token is None:
            raise ExpressionSyntaxError("unterminated '('")
        node = _parse_atom(token)
        while frames:
            kind, arity, operands = frames[-1]
            operands.append(node)
            if len(operands) < arity:
                break
            frames.pop()
            if kind is Pow:
                try:
                    node = Pow(operands[0], int(tokens[i]))
                except (TypeError, ValueError):  # no token left, or not an integer >= 0
                    raise ExpressionSyntaxError(
                        f"'^' needs an integer exponent >= 0, got {tokens[i]!r}") from None
                i += 1
            else:
                node = kind(*operands)
            if tokens[i] != ")":
                raise ExpressionSyntaxError(f"expected ')' to close '{_SYMBOLS[kind]}'")
            i += 1
        else:  # no frame is open: ``node`` is the whole expression
            if tokens[i] is not None:
                raise ExpressionSyntaxError(
                    f"trailing tokens after expression: {' '.join(tokens[i:-1])}")
            return node


def _parse_atom(token: str) -> Expression:
    var = _VARS.get(token)
    if var is not None:
        return var
    try:
        return Constant(float(token))
    except ValueError:
        raise ExpressionSyntaxError(f"bad atom {token!r}") from None


def format_expr(expr: Expression) -> str:
    """Render an expression tree back to its s-expression string.

    A pre-order walk with a stack of the nodes still to render and the text
    that follows them, so the output is built once, at any depth.
    """
    parts: list[str] = []
    stack: list = [expr]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is str:
            parts.append(item)
        elif kind is Constant:
            parts.append(repr(float(item.value)))
        elif kind is Var:
            parts.append(f"x{item.slot}")
        else:
            operands = _operands(item)
            parts.append(f"({_SYMBOLS[kind]} ")
            stack.append(f" {item.exponent})" if kind is Pow else ")")
            if len(operands) == 2:
                stack += (operands[1], " ")
            stack.append(operands[0])
    return "".join(parts)


# --- compilation -------------------------------------------------------------

def _emit(expr: Expression, consts: list) -> tuple[list, object]:
    """The steps that compute ``expr`` over ``a``/``b``, and the operand that
    holds its value.

    Each operator node is one step ``(op, x, y)``, appended in post-order, so
    the steps run in the order the tree evaluates and no step nests another.
    Step i's value is named ``_i``; ``op`` is the node's symbol, and for
    ``^`` ``y`` is the exponent. A subtree that reads no variable emits no
    step: its value is folded to a float, and where it meets a subtree that
    reads a variable it becomes a parameter ``c0``, ``c1``, ..., its value
    appended to ``consts``.
    """
    steps: list = []
    values: list = []  # the operand of each subtree walked and not yet consumed
    for node in _postorder(expr):
        kind = type(node)
        if kind is Constant:
            values.append(float(node.value))
            continue
        if kind is Var:
            values.append("a" if node.slot == 0 else "b")
            continue
        y = None if kind is Pow or kind is Neg else values.pop()
        x = values.pop()
        if isinstance(x, float) and (y is None or isinstance(y, float)):
            values.append(_apply(node, x, y))
            continue
        if isinstance(x, float):
            x = _lift(x, consts)
        elif isinstance(y, float):
            y = _lift(y, consts)
        steps.append((_SYMBOLS[kind], x, node.exponent if kind is Pow else y))
        values.append(f"_{len(steps) - 1}")
    return steps, values.pop()


def _lift(value: float, consts: list) -> str:
    consts.append(value)
    return f"c{len(consts) - 1}"


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

    Each call is the elementwise operation ``eval_expr`` runs for that step
    on arrays, so every element gets the same bits.
    """
    lines: list[str] = []
    regs = _Registers()
    held: dict[str, str] = {}  # step value -> the buffer holding it
    for i, (op, x, y) in enumerate(steps):
        x = held.pop(x, x)
        if op == "^":
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
    writes into ``out`` what ``eval_expr(expr, a, b)`` gives on arrays,
    element for element and bit for bit, as a sequence of ufunc calls with
    ``out=``, one per step of ``_emit``'s output: ``temps`` holds
    ``num_temps`` scratch arrays of ``out``'s shape, which it overwrites,
    and nothing else is allocated. ``out`` and ``temps`` must not overlap
    ``a``, ``b`` or the constants. Trees that differ only in their
    variable-free subtrees get the same ``fn`` object, so edges can be
    grouped by it and evaluated together, with each constant passed as
    per-edge values that broadcast against ``out``.
    """
    consts: list[float] = []
    steps, result = _emit(expr, consts)
    if isinstance(result, float):
        result = _lift(result, consts)
    fn, num_temps = _compile_inplace(tuple(steps), result, len(consts))
    return fn, tuple(consts), num_temps


def compile_expr(expr: Expression):
    """``f(a, b)``: ``compile_skeleton(expr)``'s function run with its constants.

    Each call evaluates into a new array of the broadcast shape of ``a`` and
    ``b``, 0-d for scalars, and returns it. This is what each
    ``SwarmAgent`` evaluates.
    """
    fn, consts, num_temps = compile_skeleton(expr)

    def evaluate(a, b):
        shape = np.broadcast(a, b).shape
        out = np.empty(shape)
        fn(a, b, out, [np.empty(shape) for _ in range(num_temps)], *consts)
        return out

    return evaluate
