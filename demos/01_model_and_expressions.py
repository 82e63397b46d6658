#!/usr/bin/env python3
"""Modeling a continuous DCOP: expression trees, instances, and cost queries.

Builds the four-agent example used throughout the tests, evaluates a few
costs by hand, and round-trips the instance through its JSON file format.
"""

import tempfile
from pathlib import Path

from cdcop import (
    CdcopInstance,
    CostFunction,
    Domain,
    constraint_cost,
    eval_expr,
    global_cost,
    load_instance,
    parse_expr,
    save_instance,
    validate_instance,
)

# Cost functions are little arithmetic trees written as prefix s-expressions.
# x0 and x1 refer to the first and second variable of the function's scope.
difference_of_squares = parse_expr("(- (^ x0 2) (^ x1 2))")
print("f(x0, x1) = x0^2 - x1^2")
print("  f(-1.0, 1.2) =", eval_expr(difference_of_squares, -1.0, 1.2))
print("  f( 3.0, 2.0) =", eval_expr(difference_of_squares, 3.0, 2.0))

# An instance: one variable per agent, box domains, binary constraints.
# The constraint graph here is a "kite": edges (0,1), (0,2), (0,3), (2,3).
instance = CdcopInstance(
    num_agents=4,
    domains=tuple(Domain(-10.0, 10.0) for _ in range(4)),
    functions=(
        CostFunction(0, (0, 1), parse_expr("(- (^ x0 2) (^ x1 2))")),
        CostFunction(1, (0, 2), parse_expr("(+ (^ x0 2) (* 2 (* x0 x1)))")),
        CostFunction(2, (0, 3), parse_expr("(- (* 2 (^ x0 2)) (* 2 (^ x1 2)))")),
        CostFunction(3, (2, 3), parse_expr("(+ (^ x0 2) (* 3 (^ x1 2)))")),
    ),
    objective="min",
)
print("\nvalidation:", validate_instance(instance) or "ok")
# Each agent's functions, ascending id: the order in which it sums their costs.
# The table is made on first read and kept with the instance.
for agent, functions in enumerate(instance.incident):
    print(f"functions incident to agent {agent}:", [f.id for f in functions])

assignment = [-1.0, 1.2, -2.0, 2.0]
print(f"\nassignment {assignment}")
for fn in instance.functions:
    print(f"  cost of f{fn.id} {fn.scope}: {constraint_cost(instance, fn.id, assignment):8.2f}")
print(f"  total: {global_cost(instance, assignment):.2f}")

# Instances serialize to a small JSON document; loading re-validates.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "kite.json"
    save_instance(instance, path)
    print("\nserialized instance:")
    print(path.read_text())
    assert load_instance(path) == instance
    print("round trip: ok")
