"""Continuous DCOP toolkit.

A library for modeling continuous distributed constraint optimization
problems and solving them with a decentralized particle swarm (the PCD
algorithm and its crossover variant), plus benchmark generators, a
centralized verification oracle, and an experiment harness.

The package namespace holds the modeling names; the solver, runtime,
oracle and experiment harness are imported from their modules
(``cdcop.swarm``, ``cdcop.runtime``, ``cdcop.oracle``, ``cdcop.experiment``).
"""

from .benchmarks import BenchSpec, generate
from .expressions import DivisionByZero, eval_expr, parse_expr
from .model import (
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
from .pseudotree import build_bfs, tree_edge_dump, validate_pseudo_tree

__version__ = "0.1.0"
