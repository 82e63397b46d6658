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
walks a tree and is the reference. ``fold`` is the one walk that folds a
tree, for validation and compilation alike; ``assemble`` turns its shape
into a program of ufunc calls over numbered registers. ``bind`` resolves
the registers to arrays once, so a bound program runs as a plain loop of
``fn(*args)``; ``compile_expr`` binds one once and runs it per call. No
function here recurses: trees of any depth parse, format, evaluate,
compile, compare, print and pickle.
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
    "fold",
    "assemble",
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
    them with ``==``, never ``is``. A node pickles and copies as its key.
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

    def __reduce__(self):
        # pickle and copy the flat key: the default reduction recurses per level
        return _from_key, (self._key(),)

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

    def _repr_pretty_(self, p, cycle):  # Hypothesis's printer recurses through dataclass fields
        p.text(repr(self))


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


def _from_key(key: tuple) -> Expression:
    """The tree whose ``_key()`` is ``key``, built from its post-order with a
    stack of finished subtrees. Its variable leaves are ``X0`` and ``X1``."""
    stack: list = []
    for kind, leaf in key:
        if kind is Constant:
            stack.append(Constant(leaf))
        elif kind is Var:
            stack.append((X0, X1)[leaf])
        elif kind is Pow:
            stack.append(Pow(stack.pop(), leaf))
        elif kind is Neg:
            stack.append(Neg(stack.pop()))
        else:
            right = stack.pop()
            stack.append(kind(stack.pop(), right))
    (expr,) = stack
    return expr


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

    This is ``eval_expr``'s arithmetic. ``fold`` folds variable-free
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
        kind = type(node)
        if kind is Pow:
            stack.append(node.base)
        elif kind is Neg:
            stack.append(node.operand)
        elif kind in _OPERATIONS:
            stack.append(node.left)
            stack.append(node.right)
        elif kind is not Constant and kind is not Var:
            raise TypeError(f"not an expression node: {node!r}")
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
    """The scope slots ``expr`` reads, and whether one of its divisions has a
    denominator that reads no slot and folds to zero, so that every
    evaluation raises DivisionByZero.

    A tree with no division has no such denominator, so one walk reads its
    slots without folding. At the first division, it returns ``fold``'s.
    """
    slots: set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            slots.add(node.slot)
        elif kind is Pow:
            stack.append(node.base)
        elif kind is Neg:
            stack.append(node.operand)
        elif kind is Div:
            return fold(expr)[2:]
        elif kind is not Constant:
            stack.append(node.left)
            stack.append(node.right)
    return slots, False


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
        elif kind is Pow:
            parts.append("(^ ")
            stack.append(f" {item.exponent})")
            stack.append(item.base)
        elif kind is Neg:
            parts.append("(neg ")
            stack.append(")")
            stack.append(item.operand)
        else:
            parts.append(f"({_SYMBOLS[kind]} ")
            stack.append(")")
            stack.append(item.right)
            stack.append(" ")
            stack.append(item.left)
    return "".join(parts)


# --- compilation -------------------------------------------------------------

# the registers of ``out`` and of the first temp; ``a`` and ``b`` are 0 and 1, a slot's number
_OUT, _TEMP = 2, 3
_UFUNCS = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide, Neg: np.negative}


def _lift(value: float, consts: list) -> int:
    """Constant j's tag: -1 - j."""
    consts.append(value)
    return -len(consts)


def fold(expr: Expression):
    """The one walk that folds ``expr``: ``(shape, consts, slots, zero_denominator)``.

    Each subtree that reads no variable is folded to a float with
    ``eval_expr``'s arithmetic, and lifted into ``consts`` where it meets one
    that does. A variable-free division by zero is not folded, so it raises
    DivisionByZero when the program runs; ``zero_denominator`` says the tree
    holds one, and ``slots`` holds the slots it reads. ``shape`` is ``(calls,
    root)``: each unfolded node in post-order as ``(kind, *tags)``, with
    ``(Pow, exponent)`` as a power's kind, and the root's tag. A tag is a
    slot, constant j as ``-1 - j``, or call i's result as ``2 + i``. Trees
    that differ only in their variable-free subtrees have one shape.
    """
    consts: list[float] = []
    calls: list = []
    slots: set[int] = set()
    zero_denominator = False
    values: list = []  # each walked subtree not yet consumed: its float, or its tag
    for node in _postorder(expr):
        kind = type(node)
        if kind is Constant:
            values.append(float(node.value))
            continue
        if kind is Var:
            slots.add(node.slot)
            values.append(node.slot)
            continue
        y = None if kind is Pow or kind is Neg else values.pop()
        x = values.pop()
        if kind is Div and type(y) is float and y == 0:
            zero_denominator = True
        elif type(x) is float and (y is None or type(y) is float):
            values.append(_apply(node, x, y))
            continue
        x = _lift(x, consts) if type(x) is float else x
        if y is None:
            calls.append(((Pow, node.exponent) if kind is Pow else kind, x))
        else:
            calls.append((kind, x, _lift(y, consts) if type(y) is float else y))
        values.append(1 + len(calls))
    (root,) = values
    root = _lift(root, consts) if type(root) is float else root
    return (tuple(calls), root), tuple(consts), slots, zero_denominator


def assemble(shape) -> tuple:
    """``(program, num_temps)``: ``shape``'s calls as ufunc calls ``(fn,
    operands)``, in post-order. An operand indexes the registers ``[a, b,
    out, *temps, *consts]``, with ``num_temps`` temps of ``out``'s shape, or
    is an ``np.power`` exponent, kept a float so it is not read as an index.
    A result goes into its first operand's temp, else a consumed or a new
    one; the root's is ``out``. Bound with ``bind``, the calls write into
    ``out`` what ``eval_expr`` gives on arrays, bit for bit, and allocate no
    array; they overwrite the temps, which with ``out`` must not overlap
    ``a``, ``b`` or the constants.
    """
    calls, root = shape
    program: list = []
    dest_of: list[int] = []  # each call's result's temp
    free: list[int] = []  # temps whose value was consumed
    num_temps = 0
    for kind, *tags in calls:
        operands = [dest_of[t - 2] if t >= 2 else t for t in tags]
        held = [r for r in operands if r >= _TEMP]
        free += held[1:]
        dest = held[0] if held else free.pop() if free else _TEMP + num_temps
        num_temps = max(num_temps, dest + 1 - _TEMP)
        dest_of.append(dest)
        if type(kind) is tuple:  # x ** 2 runs numpy's square, whose bits are x * x
            program.append((np.multiply, (*operands, *operands, dest)) if kind[1] == 2 else
                           (np.power, (*operands, float(kind[1]), dest)))
            continue
        if kind is Div:
            program.append((_check_nonzero, operands[1:]))
        program.append((_UFUNCS[kind], (*operands, dest)))

    result = dest_of[root - 2] if root >= 2 else root
    if result >= _TEMP:  # the temp that holds the root's value is ``out`` itself
        num_temps -= 1
    else:
        program.append((np.copyto, (_OUT, result)))
        result = _TEMP + num_temps  # no temp is above it

    def register(op):
        if type(op) is float or 0 <= op < _TEMP:  # an exponent, a, b or out
            return op
        if op < 0:
            return _TEMP + num_temps - 1 - op
        return _OUT if op == result else op - (op > result)

    return tuple((fn, tuple(map(register, operands))) for fn, operands in program), num_temps


def compile_skeleton(expr: Expression):
    """``(program, consts, num_temps)``: ``fold(expr)``'s shape assembled, and its constants."""
    shape, consts, _, _ = fold(expr)
    program, num_temps = assemble(shape)
    return program, consts, num_temps


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
