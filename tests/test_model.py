import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdcop import (
    CdcopInstance,
    CostFunction,
    Domain,
    InvalidInstanceError,
    constraint_cost,
    global_cost,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    validate_instance,
)
from cdcop.expressions import (X0, X1, Add, Constant, Div, Mul, Neg, Pow, Sub, eval_expr,
                               format_expr, parse_expr)
from cdcop.benchmarks import quadratic_expr

from conftest import _trees, make_instance, neg_pow_chain, sum_chain


def test_single_constraint_by_hand(kite_instance):
    # 2*(-1)^2 - 2*(2)^2 = -6
    assert constraint_cost(kite_instance, 2, [-1.0, 0.0, 0.0, 2.0]) == pytest.approx(-6.0)
    with pytest.raises(KeyError, match="no function with id 9"):
        constraint_cost(kite_instance, 9, [-1.0, 0.0, 0.0, 2.0])


def test_all_zero_assignment_vanishes(kite_instance):
    for fn in kite_instance.functions:
        assert constraint_cost(kite_instance, fn.id, [0.0] * 4) == 0.0
    assert global_cost(kite_instance, [0.0] * 4) == 0.0


def test_global_cost_worked_examples(kite_instance):
    assert global_cost(kite_instance, [-1.0, 1.2, -2.0, 2.0]) == pytest.approx(14.56)
    assert global_cost(kite_instance, [1.1, -1.0, 1.5, 0.5]) == pytest.approx(9.64)


def test_single_function_instance_matches_constraint_cost(two_agent_convex):
    asg = [3.0, -4.0]
    assert global_cost(two_agent_convex, asg) == constraint_cost(two_agent_convex, 0, asg)


def test_max_objective_negates_internally():
    inst = make_instance(2, [((0, 1), "(/ 10000.0 (* 1.0 (+ (^ x0 2) (+ (^ x1 2) 1.0))))")],
                         domain=(0.0, 10.0), objective="max")
    # denominator 1 at the origin: utility 10000, internal -10000
    assert constraint_cost(inst, 0, [0.0, 0.0]) == pytest.approx(-10000.0)
    assert global_cost(inst, [0.0, 0.0]) == pytest.approx(-10000.0)


def test_max_negation_is_exact():
    inst = make_instance(2, [((0, 1), "(+ (* 3.7 x0) (* -1.3 x1))")], objective="max")
    pos = make_instance(2, [((0, 1), "(+ (* 3.7 x0) (* -1.3 x1))")], objective="min")
    for asg in ([1.234, -9.87], [0.1, 0.2], [-5.5, 7.75]):
        assert global_cost(inst, asg) == -global_cost(pos, asg)


def test_incident_functions(kite_instance):
    table = kite_instance.incident
    assert [[f.id for f in functions] for functions in table] == [[0, 1, 2], [0], [1, 3], [2, 3]]
    assert all(f is kite_instance.functions[f.id] for functions in table for f in functions)
    assert kite_instance.incident is table  # made once per instance


def test_incident_functions_isolated_agent():
    inst = CdcopInstance(1, (Domain(-1.0, 1.0),), (), "min")
    assert validate_instance(inst) == []
    assert inst.incident == ((),)


def test_validate_ok(kite_instance):
    assert validate_instance(kite_instance) == []


def test_validate_degenerate_domain():
    inst = CdcopInstance(2, (Domain(0.0, 0.0), Domain(0.0, 1.0)),
                         (CostFunction(0, (0, 1), parse_expr("(* x0 x1)")),), "min")
    assert any("degenerate domain" in v for v in validate_instance(inst))


def test_validate_disconnected():
    inst = CdcopInstance(
        4,
        tuple(Domain(-1.0, 1.0) for _ in range(4)),
        (CostFunction(0, (0, 1), parse_expr("(* x0 x1)")),
         CostFunction(1, (2, 3), parse_expr("(* x0 x1)"))),
        "min",
    )
    assert any("disconnected" in v for v in validate_instance(inst))


def test_validate_self_loop_and_duplicate():
    loop = CdcopInstance(2, (Domain(0, 1), Domain(0, 1)),
                         (CostFunction(0, (1, 1), parse_expr("(* x0 x1)")),), "min")
    assert any("self-loop" in v for v in validate_instance(loop))
    dup = CdcopInstance(2, (Domain(0, 1), Domain(0, 1)),
                        (CostFunction(0, (0, 1), parse_expr("(* x0 x1)")),
                         CostFunction(1, (1, 0), parse_expr("(+ x0 x1)"))), "min")
    assert any("duplicate constraint" in v for v in validate_instance(dup))


def test_validate_single_slot_expression():
    inst = CdcopInstance(2, (Domain(0, 1), Domain(0, 1)),
                         (CostFunction(0, (0, 1), parse_expr("(^ x0 2)")),), "min")
    assert any("both scope slots" in v for v in validate_instance(inst))


@pytest.mark.parametrize("text, zero", [
    ("(+ (* x0 x1) (/ 1 0))", True), ("(/ x1 (^ (- x0 x0) 1))", False),
    ("(* x1 (/ x0 (- 2 2)))", True), ("(/ x0 (/ x1 (/ 1 -0.0)))", True),
    ("(/ x0 (* x1 0))", False), ("(/ (* x0 x1) nan)", False),
], ids=["constant", "variable", "folded", "nested", "times_zero", "nan"])
def test_validate_constant_zero_denominator(text, zero):
    inst = make_instance(3, [((0, 1), "(* x0 x1)"), ((2, 1), text)])
    want = ["function 1 divides by a constant zero"] if zero else []
    assert validate_instance(inst) == want


def test_json_round_trip(kite_instance):
    text = instance_to_json(kite_instance)
    loaded = instance_from_json(text)
    assert loaded == kite_instance
    assert instance_to_json(loaded) == text


@pytest.mark.parametrize("make_chain", [sum_chain, neg_pow_chain], ids=["sum", "neg_pow"])
def test_deep_expression_instance_round_trips(make_chain, tmp_path):
    """An instance whose function nests 5000 deep validates, saves, loads and costs."""
    expr = make_chain(5000)
    inst = CdcopInstance(2, (Domain(-1.0, 1.0),) * 2, (CostFunction(0, (0, 1), expr),), "min")
    assert validate_instance(inst) == []
    save_instance(inst, tmp_path / "deep.json")
    loaded = load_instance(tmp_path / "deep.json")
    assert loaded == inst
    assert format_expr(loaded.functions[0].expr) == format_expr(expr)
    assert global_cost(loaded, [0.25, -0.5]) == eval_expr(expr, 0.25, -0.5)


def _dumps_reference(inst):
    """The instance file's text as json's own indent encoder writes it."""
    doc = {
        "num_agents": inst.num_agents,
        "domains": [[d.lb, d.ub] for d in inst.domains],
        "objective": inst.objective,
        "functions": [{"id": f.id, "scope": list(f.scope), "expr": format_expr(f.expr)}
                      for f in inst.functions],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1e308, -1e308, float("inf"),
                -float("inf"), float("nan")]
_BOUNDS = st.one_of(st.integers(), st.floats(), st.sampled_from(_EDGE_FLOATS))


@st.composite
def _any_instance(draw):
    """An instance record with any bounds, objective text, ids and scopes; not validated."""
    domains = draw(st.lists(st.builds(Domain, _BOUNDS, _BOUNDS), max_size=4))
    functions = draw(st.lists(st.builds(
        CostFunction, st.integers(), st.tuples(st.integers(), st.integers()), _trees), max_size=4))
    objective = draw(st.one_of(st.sampled_from(["min", "max"]), st.text(),
                               st.text(alphabet='"\\\x00\x1f\n\t\x7fé\u2028€😀x')))
    return CdcopInstance(draw(st.integers()), tuple(domains), tuple(functions), objective)


@given(_any_instance())
@example(CdcopInstance(1, (Domain(0, 1),), (), "min"))  # no functions, integer bounds
@example(CdcopInstance(9, tuple(map(Domain, _EDGE_FLOATS, _EDGE_FLOATS[::-1])), (),
                       'a "quoted" \\ back\nslash\x00 é \u2028 😀'))
def test_instance_writer_matches_json_dumps(inst):
    """The writer lays out every instance as ``json.dumps(indent=2, sort_keys=True)``."""
    assert instance_to_json(inst) == _dumps_reference(inst)


def test_instance_writer_matches_json_dumps_at_depth():
    """As above for a function nested 5000 deep, which Hypothesis cannot print."""
    inst = CdcopInstance(2, (Domain(-1.0, 1.0),) * 2,
                         (CostFunction(0, (0, 1), sum_chain(5000)),), "min")
    assert instance_to_json(inst) == _dumps_reference(inst)


def test_json_rejects_invalid():
    bad = instance_to_json(make_instance(2, [((0, 1), "(* x0 x1)")])).replace(
        '"objective": "min"', '"objective": "banana"')
    with pytest.raises(InvalidInstanceError):
        instance_from_json(bad)


_PAIR = {"num_agents": 2, "domains": [[0.0, 1.0], [0.0, 1.0]], "objective": "min",
         "functions": [{"id": 7, "scope": [0, 1], "expr": "(* x0 x1)"}]}
_CHAIN = [{"id": 7, "scope": [0, 1], "expr": "(* x0 x1)"},
          {"id": 8, "scope": [1, 2], "expr": "(* x0 x1)"}]


@pytest.mark.parametrize("change, violation", [
    ({"num_agents": 3, "functions": _CHAIN}, "expected 3 domains, got 2"),
    ({"domains": [[0.0, float("inf")], [0.0, 1.0]]}, "domain 0 has non-finite bounds [0.0, inf]"),
    ({"domains": [[0.0, 1.0], [-1e308, 1e308]]},
     "domain 1 is wider than the largest float: [-1e+308, 1e+308]"),
    ({"num_agents": 3, "domains": [[0.0, 1.0]] * 3,
      "functions": [_CHAIN[0], {**_CHAIN[1], "id": 7}]}, "duplicate function id 7"),
    ({"functions": [{**_CHAIN[0], "scope": [0, 5]}]}, "function 7 scope (0, 5) out of range"),
], ids=["domain_count", "infinite_bound", "too_wide", "duplicate_id", "scope_out_of_range"])
def test_json_validation_names_each_violation(change, violation):
    """Each of these documents breaks one invariant, and loading it names that one."""
    with pytest.raises(InvalidInstanceError) as raised:
        instance_from_json(json.dumps({**_PAIR, **change}))  # inf is written as Infinity
    assert raised.value.violations == [violation]


@st.composite
def _random_instance_and_assignment(draw):
    n = draw(st.integers(2, 6))
    # random connected graph: a spanning tree plus optional extra edges
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    seen = {tuple(sorted(e)) for e in edges}
    for u, v in extra:
        key = tuple(sorted((u, v)))
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v))
    coeff = st.floats(-5, 5, allow_nan=False)
    functions = tuple(
        CostFunction(i, e, quadratic_expr(draw(coeff) or 1.0, draw(coeff), draw(coeff) or 1.0))
        for i, e in enumerate(edges)
    )
    inst = CdcopInstance(n, tuple(Domain(-10.0, 10.0) for _ in range(n)), functions, "min")
    asg = [draw(st.floats(-10, 10, allow_nan=False)) for _ in range(n)]
    return inst, asg


@given(_random_instance_and_assignment())
@settings(max_examples=60, deadline=None)
def test_double_counting_identity(case):
    """Summing each agent's incident costs counts every edge twice."""
    inst, asg = case
    per_agent = 0.0
    for agent in range(inst.num_agents):
        for fid in sorted(f.id for f in inst.functions if agent in f.scope):
            per_agent += constraint_cost(inst, fid, asg)
    total = global_cost(inst, asg)
    assert per_agent / 2.0 == pytest.approx(total, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("record", [
    Constant(1.5), X0, Add(X0, X1), Sub(X0, X1), Mul(X0, X1), Div(X0, X1), Pow(X0, 2), Neg(X1),
    Domain(-1.0, 1.0), CostFunction(0, (0, 1), Mul(X0, X1)),
], ids=lambda record: type(record).__name__)
def test_records_are_slotted_and_immutable(record):
    """Every expression node, ``Domain`` and ``CostFunction`` holds no ``__dict__``
    and takes no assignment, to a field or to a new attribute."""
    assert not hasattr(record, "__dict__")
    name = dataclasses.fields(record)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        object.__setattr__(record, "note", 1)  # no __dict__ to hold it
