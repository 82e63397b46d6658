import copy
import dataclasses
import inspect
import pickle
import re
import struct
import time
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.vendor.pretty import pretty

from cdcop.expressions import (
    Add,
    Constant,
    Div,
    DivisionByZero,
    ExpressionSyntaxError,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    X0,
    X1,
    bind,
    compile_expr,
    compile_skeleton,
    eval_expr,
    fold,
    _apply,
    _check_nonzero,
    _postorder,
    format_expr,
    inspect_expr,
    parse_expr,
)

from cdcop.model import CdcopInstance, CostFunction, Domain, validate_instance

from conftest import _trees, neg_pow_chain, sum_chain


def test_difference_of_squares():
    expr = parse_expr("(- (^ x0 2) (^ x1 2))")
    assert eval_expr(expr, -1.0, 1.2) == pytest.approx(-0.44)


def test_zero_at_origin():
    expr = parse_expr("(+ (^ x0 2) (* 3 (^ x1 2)))")
    assert eval_expr(expr, 0.0, 0.0) == 0.0


def test_cross_term_by_hand():
    expr = parse_expr("(+ (^ x0 2) (* 2 (* x0 x1)))")
    assert eval_expr(expr, -2.0, -1.0) == pytest.approx(8.0)  # 4 + 4


def test_division_by_zero_scalar():
    expr = Div(Constant(1.0), Var(0))
    with pytest.raises(DivisionByZero):
        eval_expr(expr, 0.0, 5.0)


def test_division_by_zero_in_array():
    expr = Div(Constant(1.0), Var(1))
    with pytest.raises(DivisionByZero):
        eval_expr(expr, np.zeros(3), np.array([1.0, 0.0, 2.0]))


def test_zero_exponent_gives_one():
    expr = Pow(Var(0), 0)
    assert eval_expr(expr, 7.5, 0.0) == 1.0


def test_exponent_must_fit_a_float():
    largest = 2 ** 1024 - 2 ** 970 - 1  # the next integer rounds up to 2**1024
    assert Pow(Var(0), largest).exponent == largest
    for exponent in (largest + 1, 2 ** 1024, 10 ** 400):
        with pytest.raises(ValueError, match="must fit a float"):
            Pow(Var(0), exponent)
        with pytest.raises(ExpressionSyntaxError, match="that fits a float"):
            parse_expr(f"(^ x0 {exponent})")


@given(_trees)
def test_inspect_expr_agrees_with_the_compiler(expr):
    """A division's denominator is a constant zero exactly when the compiled
    program checks a zero constant."""
    program, consts, num_temps = compile_skeleton(expr)
    registers = [None] * (3 + num_temps) + list(consts)  # a, b, out, temps, then constants
    checked = [registers[args[0]] for fn, args in program if fn is _check_nonzero]
    slots = {node.slot for node in _postorder(expr) if isinstance(node, Var)}
    assert inspect_expr(expr) == (slots, 0.0 in checked)


def _folding_walk(expr):
    """``inspect_expr`` as one post-order walk that folds every variable-free
    subtree and leaves a division by a constant zero unfolded: the reference."""
    slots, zero_denominator = set(), False
    values = []  # each walked subtree not yet consumed: its float, or None if it reads a slot
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
                y = None
            values.append(None if x is None or y is None else _apply(node, x, y))
    return slots, zero_denominator


# trees rich in variable-free subtrees that fold to zero, with and without divisions
_zero_leaf = st.sampled_from([Constant(0.0), Constant(-0.0), Constant(2.0), Constant(-2.0), X0, X1])


def _div_free_branch(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: Add(*p)),
        pairs.map(lambda p: Sub(*p)),
        pairs.map(lambda p: Mul(*p)),
        st.tuples(children, st.integers(0, 3)).map(lambda p: Pow(*p)),
        children.map(Neg),
    )


def _zero_branch(children):
    return st.one_of(_div_free_branch(children), st.tuples(children, children).map(lambda p: Div(*p)))


@given(st.one_of(_trees, st.recursive(_zero_leaf, _div_free_branch, max_leaves=12),
                 st.recursive(_zero_leaf, _zero_branch, max_leaves=12)))
@example(parse_expr("(+ (* x0 x1) (- 2 2))"))  # no division, a zero subtree
@example(parse_expr("(* x1 (/ x0 (- 2 2)))"))  # a zero denominator under no other
@example(parse_expr("(/ x0 (/ x1 (/ 1 -0.0)))"))  # one inside two other denominators
@example(parse_expr("(/ x0 (+ x1 (/ 1 (- 2 2))))"))  # one inside a denominator that reads x1
@example(parse_expr("(/ (/ x0 0) x1)"))  # one inside a numerator
@example(parse_expr("(+ (* x0 x1) (/ x0 (* x1 0)))"))  # zero times a slot is no constant
def test_inspect_expr_matches_the_folding_walk(expr):
    assert inspect_expr(expr) == _folding_walk(expr)


def _div_chain(depth):
    """``x0`` under ``depth`` divisions, alternately as numerator and as
    denominator, over a variable-free zero at the bottom."""
    expr = Div(X0, Sub(Constant(2.0), Constant(2.0)))
    for level in range(depth):
        expr = Div(Constant(1.5), expr) if level % 2 else Div(expr, X1)
    return expr


@pytest.mark.parametrize("make_chain", [sum_chain, neg_pow_chain, _div_chain],
                         ids=["sum", "neg_pow", "div"])
def test_deep_chains_validate_in_linear_time(make_chain):
    """A chain 5000 deep validates in about four times the time of one 1250
    deep, far from the sixteen of a walk that restarts at each level. Each
    round times both; the best times so far must keep that ratio under 8."""
    def timed(expr):
        inst = CdcopInstance(2, (Domain(-1.0, 1.0),) * 2, (CostFunction(0, (0, 1), expr),), "min")
        start = time.perf_counter()
        violations = validate_instance(inst)
        seconds = time.perf_counter() - start
        assert violations == (["function 0 divides by a constant zero"]
                              if make_chain is _div_chain else [])
        return seconds

    small, large = make_chain(1250), make_chain(5000)
    assert inspect_expr(large) == _folding_walk(large)
    best_small = best_large = float("inf")
    for _ in range(5):
        best_small = min(best_small, timed(small))
        best_large = min(best_large, timed(large))
        if best_large < 8 * best_small:
            break
    assert best_large < 8 * best_small


def test_neg_node():
    assert eval_expr(parse_expr("(neg x1)"), 0.0, 3.0) == -3.0


def test_referenced_slots():
    assert inspect_expr(parse_expr("(- (^ x0 2) (^ x1 2))"))[0] == {0, 1}
    assert inspect_expr(parse_expr("(^ x0 2)"))[0] == {0}
    assert inspect_expr(Constant(4.0))[0] == set()


@pytest.mark.parametrize("text", [
    "(- (^ x0 2) (^ x1 2))",
    "(+ (+ (* -3.5 (^ x0 2)) (* 0.25 (* x0 x1))) (* 4.0 (^ x1 2)))",
    "(/ 10000.0 (* (+ (^ (- x0 x1) 2) 101.0) (+ (^ (- 2.5 x0) 2) 1.0)))",
    "(neg (^ x1 3))",
])
def test_parse_format_round_trip(text):
    expr = parse_expr(text)
    assert parse_expr(format_expr(expr)) == expr


@pytest.mark.parametrize("bad", [
    "", "(", ")", "(+ x0)", "(+ x0 x1", "(? x0 x1)", "(^ x0 x1)",
    "(^ x0 2.5)", "x2", "(+ x0 x1) junk", "(+ x0", "(neg", "(^ x0", "(^ x0 -1)", "(neg x0 x1)",
])
def test_parse_errors(bad):
    with pytest.raises(ExpressionSyntaxError):
        parse_expr(bad)


# each node kind's constructor parameters, and arguments its checks reject with their message
_CONSTRUCTORS = {
    Constant: (("value",), []),
    Var: (("slot",), [((2,), "variable slot must be 0 or 1, got 2")]),
    Add: (("left", "right"), []),
    Sub: (("left", "right"), []),
    Mul: (("left", "right"), []),
    Div: (("left", "right"), []),
    Pow: (("base", "exponent"), [
        ((X0, -1), "exponent must be a non-negative integer, got -1"),
        ((X0, 10 ** 400), "exponent must fit a float, got a 1329-bit integer"),
    ]),
    Neg: (("operand",), []),
}


@pytest.mark.parametrize("node", [
    Constant(1.5), X1, Add(X0, X1), Sub(X0, X1), Mul(X0, X1), Div(X0, X1), Pow(X0, 2), Neg(X1),
], ids=lambda node: type(node).__name__)
def test_node_constructors_keep_the_dataclass_contract(node):
    """Each node's constructor takes its fields by position or keyword, and
    runs the kind's checks, also through ``replace``; copies compare, hash and
    print as the original."""
    kind = type(node)
    names, rejected = _CONSTRUCTORS[kind]
    assert tuple(inspect.signature(kind).parameters) == names
    assert tuple(f.name for f in dataclasses.fields(kind)) == names
    values = [getattr(node, name) for name in names]
    assert kind(*values) == kind(**dict(zip(names, values))) == node
    assert dataclasses.replace(node) == node
    for twin in (pickle.loads(pickle.dumps(node)), copy.deepcopy(node)):
        assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)
    for args, message in rejected:
        for build in (lambda: kind(*args), lambda: kind(**dict(zip(names, args))),
                      lambda: dataclasses.replace(node, **dict(zip(names, args)))):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()


def test_vectorized_matches_scalar():
    expr = parse_expr("(+ (+ (* 2.0 (^ x0 2)) (* -1.5 (* x0 x1))) (^ x1 2))")
    a = np.array([-1.0, 0.0, 2.5])
    b = np.array([1.2, 0.0, -4.0])
    vec = eval_expr(expr, a, b)
    for i in range(3):
        assert vec[i] == pytest.approx(eval_expr(expr, a[i], b[i]))


# 1/a squared overflows a float: a power must give inf, as + and * do, not raise
_OVERFLOWING = (Pow(Neg(Div(Constant(1.0), Var(0))), 2), 1.8584325085444321e-267, 0.0)


_floats = st.floats(-3, 3, allow_nan=False)


@given(_trees, _floats, _floats, st.tuples(_floats, _floats))
@example(*_OVERFLOWING, (0.5, -2.0))
def test_compiled_agrees_with_tree_walk(expr, a, b, second):
    """One program bound to 1-element operands, evaluated on ``(a, b)`` and
    again after ``second`` is written into the operands in place, agrees with
    the tree walk both times and returns the same ``out``."""
    x0, x1 = np.empty(1), np.empty(1)
    evaluate = compile_expr(expr, x0, x1)
    outs = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow-territory trees warn
        for pair in ((a, b), second):
            x0[0], x1[0] = pair
            try:
                expected = eval_expr(expr, *pair)
            except DivisionByZero:
                with pytest.raises(DivisionByZero):
                    evaluate()
                continue
            out = evaluate()
            outs.append(out)
            got = out[0]
            if np.isfinite(expected) and abs(expected) < 1e12:
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
            else:
                # overflow-territory trees: both routes must agree bit-for-bit anyway
                assert np.isnan(got) and np.isnan(expected) or got == expected
    assert all(out is outs[0] for out in outs)


# 1/b overflows to inf, and inf - inf is NaN
_NAN_RESULT = (Sub(Div(Constant(1.0), Var(1)), Div(Constant(1.0), Var(1))), 0.0, 2.225073858507e-311)


@given(_trees, st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
@example(*_OVERFLOWING)
@example(*_NAN_RESULT)
def test_eval_is_pure(expr, a, b):
    try:
        first = eval_expr(expr, a, b)
    except DivisionByZero:
        return
    # compared as bits, so a NaN result equals itself
    assert np.float64(eval_expr(expr, a, b)).tobytes() == np.float64(first).tobytes()


def _run_skeleton(expr, x0, x1):
    """``compile_skeleton(expr)`` run on ``x0``, ``x1`` with each constant as a
    per-row column, into a NaN-filled ``out`` with garbage in the temps."""
    program, consts, num_temps = compile_skeleton(expr)
    out = np.full(x0.shape, np.nan)
    temps = [np.full(x0.shape, -7.25) for _ in range(num_temps)]
    for fn, args in bind(program, [x0, x1, out, *temps,
                                   *(np.full((len(x0), 1), c) for c in consts)]):
        fn(*args)
    return out


@given(_trees, st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
@example(Var(0), 1.5, -2.0)
@example(Var(1), 1.5, -2.0)
@example(Constant(-0.0), 1.5, -2.0)
@example(Sub(Constant(2.0), Mul(Constant(0.5), Constant(3.0))), 1.5, -2.0)
@example(Add(Pow(Var(0), 0), Pow(Var(1), 1)), 1.5, -2.0)
@example(Mul(Pow(Sub(Var(0), Var(1)), 2), Pow(Neg(Var(1)), 3)), 1.5, -2.0)
@example(*_OVERFLOWING)
def test_skeleton_is_bit_identical_to_tree_walk(expr, a, b):
    x0 = np.array([[a, -b, 0.5, np.inf], [b, a, -1.5, np.nan]])
    x1 = np.array([[b, a, -1.5, 2.0], [-a, 0.25, b, -0.0]])
    with np.errstate(all="ignore"):
        try:
            want = eval_expr(expr, x0, x1)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                _run_skeleton(expr, x0, x1)
            return
        got = _run_skeleton(expr, x0, x1)
    assert got.tobytes() == np.broadcast_to(want, x0.shape).tobytes()


@pytest.mark.parametrize("text", ["(/ 1.0 x0)", "(/ x0 (- x1 x1))", "(* 2.0 (/ x1 0.0))"])
def test_skeleton_zero_denominator_raises(text):
    x0, x1 = np.array([[0.0, 1.0]]), np.array([[2.0, 3.0]])
    with pytest.raises(DivisionByZero):
        compile_expr(parse_expr(text), x0, x1)()
    with pytest.raises(DivisionByZero):
        _run_skeleton(parse_expr(text), x0, x1)


def test_skeleton_shared_across_constants():
    quad = "(+ (+ (* {} (^ x0 2)) (* {} (* x0 x1))) (* {} (^ x1 2)))"
    fn1, c1, _ = compile_skeleton(parse_expr(quad.format(1.5, -2.0, 0.25)))
    fn2, c2, _ = compile_skeleton(parse_expr(quad.format(-3.0, 4.0, 1.0)))
    assert fn1 == fn2
    assert (c1, c2) == ((1.5, -2.0, 0.25), (-3.0, 4.0, 1.0))
    folded = parse_expr("(* (+ 1.0 2.0) (- x0 x1))")
    assert compile_skeleton(folded)[1:] == ((3.0,), 0)
    assert _run_skeleton(folded, np.array([[2.0]]), np.array([[0.5]]))[0, 0] == 4.5


def test_fold_shape_keeps_exponents_and_drops_constants():
    quad = "(+ (* {} (^ x0 2)) (* {} (* x0 x1)))"
    (shape1, c1, slots, zero), (shape2, c2, *_) = (fold(parse_expr(quad.format(*c)))
                                                   for c in ((1.5, -2.0), (-3.0, 4.0)))
    assert shape1 == shape2 and (c1, c2) == ((1.5, -2.0), (-3.0, 4.0))
    assert (slots, zero) == ({0, 1}, False)
    assert fold(parse_expr("(^ x0 2)"))[0] != fold(parse_expr("(^ x0 3)"))[0]
    assert fold(parse_expr("(- x0 (/ 1 0))"))[1:] == ((1.0, 0.0), {0}, True)


def test_non_finite_constants_compile():
    expr = parse_expr("(+ (* inf x0) (* -inf x1))")
    assert compile_expr(expr, 1.0, -1.0)() == float("inf")
    assert _run_skeleton(expr, np.array([[1.0]]), np.array([[-1.0]]))[0, 0] == float("inf")


def test_deep_chain_compiles():
    """Trees nested 5000 deep format, parse back, evaluate and compile."""
    x0, x1 = np.array([[1.0, -2.5]]), np.array([[2.0, 0.75]])
    for chain in (sum_chain(5000), neg_pow_chain(5000)):
        text = format_expr(chain)
        assert parse_expr(text) == chain
        assert format_expr(parse_expr(text)) == text
        assert inspect_expr(chain)[0] == {0, 1}
        want = eval_expr(chain, x0, x1)
        assert compile_expr(chain, x0, x1)().tobytes() == want.tobytes()
        assert _run_skeleton(chain, x0, x1).tobytes() == want.tobytes()
    constants = reduce(Add, [Constant(0.1 * i) for i in range(5000)])
    assert compile_skeleton(constants)[1] == (eval_expr(constants, 0.0, 0.0),)


def _with_deepest_leaf(expr, leaf):
    """``expr`` rebuilt with its deepest first-operand leaf replaced by ``leaf``."""
    path = [expr]
    while type(path[-1]) not in (Constant, Var):
        path.append(getattr(path[-1], dataclasses.fields(path[-1])[0].name))
    node = leaf
    for parent in reversed(path[:-1]):
        node = dataclasses.replace(parent, **{dataclasses.fields(parent)[0].name: node})
    return node


def test_node_equality_hash_and_repr_keep_the_dataclass_semantics():
    assert Constant(-0.0) == Constant(0.0) and hash(Constant(-0.0)) == hash(Constant(0.0))
    assert Constant(float("nan")) != Constant(float("nan"))
    nan = float("nan")
    assert Constant(nan) == Constant(nan)  # one float object: equal, as in a tuple
    assert Add(Var(0), Var(1)) != Sub(Var(0), Var(1))
    assert Pow(Var(0), 2) != Pow(Var(0), 3) and Constant(1) == Constant(1.0)
    assert Var(0) != 0 and Var(0).__eq__(0) is NotImplemented
    expr = Add(Neg(Var(0)), Pow(Constant(-0.0), 2))
    assert repr(expr) == ("Add(left=Neg(operand=Var(slot=0)), "
                          "right=Pow(base=Constant(value=-0.0), exponent=2))")
    assert eval(repr(expr), {"Add": Add, "Neg": Neg, "Var": Var, "Pow": Pow,
                             "Constant": Constant}) == expr


@pytest.mark.parametrize("make_chain", [sum_chain, neg_pow_chain], ids=["sum", "neg_pow"])
def test_deep_tree_equality_hash_and_repr(make_chain):
    """``==``, ``!=``, ``hash`` and ``repr`` of trees nested 5000 deep."""
    a, b = make_chain(5000), make_chain(5000)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    # the text has a token per node, and one per exponent of a ^
    num_nodes = len(format_expr(a).replace("(", " ").split()) - format_expr(a).count("^")
    assert repr(a).count("(") == repr(a).count(")") == num_nodes  # one pair per node
    zero, neg_zero = _with_deepest_leaf(a, Constant(0.0)), _with_deepest_leaf(b, Constant(-0.0))
    assert zero == neg_zero and hash(zero) == hash(neg_zero)
    assert repr(zero) != repr(neg_zero)
    assert _with_deepest_leaf(a, Constant(float("nan"))) != _with_deepest_leaf(
        b, Constant(float("nan")))
    assert a != _with_deepest_leaf(b, Var(1)) and not a == _with_deepest_leaf(b, Var(1))


@pytest.mark.parametrize("make_chain", [sum_chain, neg_pow_chain], ids=["sum", "neg_pow"])
def test_deep_tree_pickles_and_copies(make_chain):
    """A tree nested 5000 deep, alone and inside an instance, pickles and
    deep-copies to an equal tree whose variable leaves are ``X0`` and ``X1``."""
    expr = make_chain(5000)
    inst = CdcopInstance(3, (Domain(-1.0, 1.0),) * 3,
                         (CostFunction(0, (0, 1), expr), CostFunction(1, (1, 2), Mul(X0, X1))),
                         "min")
    for twin in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
        assert twin == expr and hash(twin) == hash(expr)
        assert all(node is X0 or node is X1 for node in _postorder(twin) if type(node) is Var)
    for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert twin == inst and hash(twin) == hash(inst)


def test_deep_instance_pretty_prints():
    """Hypothesis reports a falsifying example with its vendored printer. It
    asks a node for ``_repr_pretty_`` before it walks dataclass fields, which
    would recurse once per level of a tree 5000 deep."""
    expr = sum_chain(5000)
    inst = CdcopInstance(2, (Domain(-1.0, 1.0),) * 2, (CostFunction(0, (0, 1), expr),), "min")
    start = time.perf_counter()
    text = pretty(inst)
    assert time.perf_counter() - start < 1.0
    assert repr(expr) in text


def test_pickled_constants_keep_their_bits():
    """Pickle stores each constant's float, so -0.0 and a NaN's sign and
    payload survive, which a round trip through text would lose."""
    payload_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF0_0000_0000_1234))[0]
    values = [-0.0, payload_nan, float("-inf"), 5e-324]
    expr = reduce(Add, map(Constant, values))
    for twin in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
        got = [node.value for node in _postorder(twin) if type(node) is Constant]
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in values]


_INF = float("inf")


@pytest.mark.parametrize("base, n, want", [(1e200, 2, _INF), (-1e200, 2, _INF),
                                           (-1e200, 3, -_INF), (1e200, 3, _INF)])
def test_scalar_power_overflows_to_infinity(base, n, want):
    """Every route gives the signed infinity numpy gives, on floats and arrays alike."""
    expr = Pow(Var(0), n)
    assert eval_expr(expr, base, 0.0) == want
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert compile_expr(expr, base, 0.0)() == want
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert _run_skeleton(expr, np.array([[base]]), np.array([[0.0]]))[0, 0] == want
    assert compile_skeleton(Pow(Constant(base), n))[1] == (want,)
