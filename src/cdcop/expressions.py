"""Expression trees for binary cost functions.

A cost function over two variables is stored as a small arithmetic tree
whose leaves are constants or one of the two scope slots (``x0``, ``x1``).
Trees serialize to prefix s-expressions, e.g. ``(- (^ x0 2) (^ x1 2))``.

Grammar (atoms and binary operators only)::

    expr    := number | 'x0' | 'x1'
             | '(' op expr expr ')'          op in + - * /
             | '(' '^' expr integer ')'      integer exponent >= 0 that fits a float
             | '(' 'neg' expr ')'

Evaluation works on scalars or numpy arrays (elementwise). ``eval_expr``
walks a tree and is the reference. ``compile_skeleton`` is the one
compiler: it turns a tree into a program, a tuple of ufunc calls over
numbered registers, and its constants. ``bind`` resolves the registers to
arrays once, so a bound program runs as a plain loop of ``fn(*args)``;
``compile_expr`` binds one once and runs it per call. No function here
recurses, so a tree of any depth parses, formats, evaluates, compiles and compares.
"""

import math
import operator
from dataclasses import dataclass, fields

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
    "X0",
    "X1",
    "DivisionByZero",
    "ExpressionSyntaxError",
    "eval_expr",
    "parse_expr",
    "format_expr",
    "inspect_expr",
    "bind",
    "compile_expr",
    "compile_skeleton",
]


class DivisionByZero(ArithmeticError):
    """A division node hit a zero denominator during evaluation."""


class ExpressionSyntaxError(ValueError):
    """The s-expression text could not be parsed."""


class _Node:
    """The ``==``, ``hash`` and ``repr`` that dataclasses generate for a node,
    built without recursing, so a tree of any depth has them.

    ``==`` and ``hash`` compare the trees' keys: each node in post-order as
    ``(type, leaf field)``, where the leaf field is a Constant's value, a
    Var's slot or a Pow's exponent, and None for the other nodes. Each type
    fixes its number of operands, so the key determines the tree. As in the
    generated ``==``, fields compare as in a tuple, the same object or
    ``==``: ``Constant(-0.0) == Constant(0.0)``, and two ``Constant(nan)``
    differ unless they hold the same float object.

    Nodes are slotted and immutable, so trees may share subtrees: compare
    them with ``==``, never ``is``.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        key = []
        for node in _postorder(self):
            leaf = _LEAVES.get(type(node))
            key.append((type(node), leaf and getattr(node, leaf)))
        return tuple(key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = []
        stack = [(self,)]  # text to append as it is, or a 1-tuple holding a value to render
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            (value,) = item
            names = _FIELDS.get(value.__class__)
            if names is None:
                parts.append(repr(value))
                continue
            parts.append(f"{value.__class__.__qualname__}(")
            stack.append(")")
            for i in reversed(range(len(names))):
                stack += ((getattr(value, names[i]),), f"{', ' if i else ''}{names[i]}=")
        return "".join(parts)


# the generated __eq__ and __repr__ recurse; _Node's are used instead
_node = dataclass(frozen=True, eq=False, repr=False, slots=True)


@_node
class Constant(_Node):
    value: float


@_node
class Var(_Node):
    slot: int  # 0 or 1, the position inside the function scope

    def __post_init__(self):
        if self.slot not in (0, 1):
            raise ValueError(f"variable slot must be 0 or 1, got {self.slot}")


@_node
class Add(_Node):
    left: "Expression"
    right: "Expression"


@_node
class Sub(_Node):
    left: "Expression"
    right: "Expression"


@_node
class Mul(_Node):
    left: "Expression"
    right: "Expression"


@_node
class Div(_Node):
    left: "Expression"
    right: "Expression"


@_node
class Pow(_Node):
    base: "Expression"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {self.exponent!r}")
        try:
            float(self.exponent)  # the compiled program raises to it as a float
        except OverflowError:
            raise ValueError(f"exponent must fit a float, got a {self.exponent.bit_length()}-bit "
                             "integer") from None


@_node
class Neg(_Node):
    operand: "Expression"


Expression = Constant | Var | Add | Sub | Mul | Div | Pow | Neg

# the two variable leaves, which the parser and the generators put in every tree
X0, X1 = Var(0), Var(1)

# each node class's fields, in declaration order
_FIELDS = {kind: tuple(f.name for f in fields(kind))
           for kind in (Constant, Var, Add, Sub, Mul, Div, Pow, Neg)}

# the field that tells apart two nodes of one type with equal operands
_LEAVES = {Constant: "value", Var: "slot", Pow: "exponent"}

# each operator node's s-expression symbol
_SYMBOLS = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^", Neg: "neg"}


def _pow(x, n: int):
    """``x ** n``; a float result too large overflows to a signed infinity, as
    numpy's does, instead of raising OverflowError."""
    try:
        return x ** n
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def _check_nonzero(den) -> None:
    # ndarray.all skips np.all's dispatch; a scalar is tested as itself
    if not (den.all() if isinstance(den, np.ndarray) else den):
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


def inspect_expr(expr: Expression) -> tuple[set[int], bool]:
    """One walk of ``expr``: the scope slots it reads, and whether one of its
    divisions has a denominator that reads no slot and folds to zero, so that
    every evaluation raises DivisionByZero.

    The fold is ``compile_skeleton``'s, which leaves such a division to raise
    when its program runs.
    """
    slots: set[int] = set()
    zero_denominator = False
    values: list = []  # each walked subtree not yet consumed: its float, or None if it reads a slot
    for node in _postorder(expr):
        kind = type(node)
        if kind is Constant:
            values.append(float(node.value))
        elif kind is Var:
            slots.add(node.slot)
            values.append(None)
        elif kind is Pow or kind is Neg:
            x = values.pop()
            values.append(None if x is None else _apply(node, x))
        else:
            y, x = values.pop(), values.pop()
            if kind is Div and y == 0:
                zero_denominator = True
                y = None  # unfolded, as compile_skeleton leaves it
            values.append(None if x is None or y is None else _apply(node, x, y))
    return slots, zero_denominator


# --- s-expression text format ------------------------------------------------

# an operator's node type and operand count
_OPERATORS = {symbol: (kind, 1 if kind in (Pow, Neg) else 2) for kind, symbol in _SYMBOLS.items()}
_VARS = {"x0": X0, "x1": X1}


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
                token = tokens[i]
                try:
                    node = Pow(operands[0], int(token))
                except (TypeError, ValueError):  # no token left, or not an integer >= 0 that fits a float
                    got = f"a {len(token)}-character token" if len(token or "") > 20 else repr(token)
                    raise ExpressionSyntaxError(
                        f"'^' needs an integer exponent >= 0 that fits a float, got {got}") from None
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

# the registers of ``out`` and of the first temp; ``a`` and ``b`` are 0 and 1, a slot's number
_OUT, _TEMP = 2, 3
_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}


def _lift(value: float, consts: list) -> int:
    """Constant j's register until the temps are counted: -1 - j."""
    consts.append(value)
    return -len(consts)


def compile_skeleton(expr: Expression):
    """Split a tree into a program of ufunc calls and its own constants.

    Returns ``(program, consts, num_temps)``. ``program`` is a tuple of calls
    ``(fn, operands)`` in post-order. Each operand is an index into the
    registers ``[a, b, out, *temps, *consts]``, with ``num_temps`` temps of
    ``out``'s shape, or the exponent of an ``np.power`` call, which is kept
    as a float so it is not read as an index. Bound with ``bind``, the calls
    write into ``out`` what ``eval_expr(expr, a, b)`` gives on arrays,
    element for element and bit for bit, and allocate no array; they
    overwrite the temps, which with ``out`` must not overlap ``a``, ``b`` or
    the constants.

    A subtree that reads no variable is folded to a float with
    ``eval_expr``'s arithmetic; where it meets one that does, it becomes a
    constant. A variable-free division by zero is not folded: it raises
    DivisionByZero when the program runs, as any other zero denominator
    does. Otherwise trees that differ only in their variable-free subtrees
    get equal programs, so edges can be grouped by program and evaluated
    together, with each constant passed as per-edge values that broadcast
    against ``out``.
    """
    consts: list[float] = []
    calls: list = []
    values: list = []  # each walked subtree not yet consumed: its float, or its register
    free: list[int] = []  # temps whose value was consumed
    num_temps = 0
    for node in _postorder(expr):
        kind = type(node)
        if kind is Constant:
            values.append(float(node.value))
            continue
        if kind is Var:
            values.append(node.slot)
            continue
        y = None if kind is Pow or kind is Neg else values.pop()
        x = values.pop()
        if type(x) is float and (y is None or type(y) is float) and not (kind is Div and y == 0):
            values.append(_apply(node, x, y))
            continue
        x, y = (_lift(v, consts) if type(v) is float else v for v in (x, y))
        # the result goes into the first operand's temp, else a free or a new temp
        held = [v for v in (x, y) if v is not None and v >= _TEMP]
        free += held[1:]
        if held:
            dest = held[0]
        elif free:
            dest = free.pop()
        else:
            dest = _TEMP + num_temps
            num_temps += 1
        if kind is Pow:
            # x ** 2 runs numpy's square, whose bits are x * x
            calls.append((np.multiply, (x, x, dest)) if node.exponent == 2 else
                         (np.power, (x, float(node.exponent), dest)))
        elif kind is Neg:
            calls.append((np.negative, (x, dest)))
        else:
            if kind is Div:
                calls.append((_check_nonzero, (y,)))
            calls.append((_UFUNCS[kind], (x, y, dest)))
        values.append(dest)

    result = values.pop()
    if type(result) is float:
        result = _lift(result, consts)
    if result >= _TEMP:  # the temp that holds the root's value is ``out`` itself
        num_temps -= 1
    else:
        calls.append((np.copyto, (_OUT, result)))
        result = _TEMP + num_temps  # no temp is above it

    def register(op):
        if type(op) is float or 0 <= op < _TEMP:  # an exponent, a, b or out
            return op
        if op < 0:
            return _TEMP + num_temps - 1 - op
        return _OUT if op == result else op - (op > result)

    program = tuple((fn, tuple(map(register, operands))) for fn, operands in calls)
    return program, tuple(consts), num_temps


def bind(program: tuple, registers: list) -> tuple:
    """``program``'s calls as ``(fn, args)``, each run by ``fn(*args)``: every
    register index replaced by ``registers[index]``, the ufunc's ``out`` last."""
    return tuple((fn, tuple(registers[op] if type(op) is int else op for op in operands))
                 for fn, operands in program)


def compile_expr(expr: Expression, a, b):
    """``evaluate()``: ``compile_skeleton(expr)``'s program bound once to
    ``a``, ``b``, its constants and an ``out`` and temps of ``a`` and ``b``'s
    broadcast shape. A call reads what ``a`` and ``b`` hold then, allocates
    no array and returns ``out``, which the next call overwrites. This is
    what each ``SwarmAgent`` evaluates.
    """
    program, consts, num_temps = compile_skeleton(expr)
    shape = np.broadcast(a, b).shape
    out, *temps = (np.empty(shape) for _ in range(1 + num_temps))
    calls = bind(program, [a, b, out, *temps, *consts])

    def evaluate():
        for fn, args in calls:
            fn(*args)
        return out

    return evaluate
