"""Continuous DCOP instances: agents, box domains, binary cost functions.

One agent owns one continuous variable. Each cost function couples two
distinct variables through an expression tree. Maximization instances are
handled by negating every function value at evaluation time, so the rest of
the toolkit always minimizes; display helpers restore the original sign.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expressions import (
    DivisionByZero,
    Expression,
    eval_expr,
    format_expr,
    inspect_expr,
    parse_expr,
)

__all__ = [
    "Domain",
    "CostFunction",
    "CdcopInstance",
    "InvalidInstanceError",
    "constraint_cost",
    "global_cost",
    "incident_functions",
    "validate_instance",
    "zero_denominator",
    "load_instance",
    "save_instance",
    "instance_to_json",
    "instance_from_json",
]


class InvalidInstanceError(ValueError):
    """Raised when loading an instance that fails validation."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True, slots=True)
class Domain:
    lb: float
    ub: float


@dataclass(frozen=True, slots=True)
class CostFunction:
    id: int
    scope: tuple[int, int]  # (variable for slot x0, variable for slot x1)
    expr: Expression


@dataclass(frozen=True)
class CdcopInstance:
    num_agents: int
    domains: tuple[Domain, ...]
    functions: tuple[CostFunction, ...]
    objective: str = "min"  # "min" | "max"

    @property
    def sign(self) -> float:
        """Internal-minimization sign: -1 for maximization instances."""
        return -1.0 if self.objective == "max" else 1.0

    @property
    def num_edges(self) -> int:
        return len(self.functions)

    def edges(self) -> list[tuple[int, int]]:
        """Unordered constraint-graph edges as (min, max) pairs."""
        return [tuple(sorted(f.scope)) for f in self.functions]

    def to_display(self, internal_cost: float) -> float:
        """Map an internal (minimization) cost back to the stated objective."""
        return self.sign * internal_cost


def neighbor_table(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Each of ``n`` agents' neighbours under the ``(u, v)`` edges, ascending."""
    sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    return tuple(tuple(sorted(s)) for s in sets)


def unreachable(n: int, edges) -> list[int]:
    """The agents, ascending, that no path of ``edges`` joins to agent 0."""
    table = neighbor_table(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for v in table[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return [a for a in range(n) if a not in seen]


def constraint_cost(inst: CdcopInstance, fn_id: int, assignment) -> float:
    """Internal (minimization-sign) cost of one function under a full assignment."""
    fn = next((f for f in inst.functions if f.id == fn_id), None)
    if fn is None:
        raise KeyError(f"no function with id {fn_id}")
    u, v = fn.scope
    return inst.sign * eval_expr(fn.expr, assignment[u], assignment[v])


def zero_denominator(f: CostFunction) -> DivisionByZero:
    """The error for a zero denominator met while evaluating ``f``."""
    return DivisionByZero(f"zero denominator in function {f.id}, scope {f.scope}")


def global_cost(inst: CdcopInstance, assignment) -> float:
    """Internal cost of a complete assignment: the sum over all functions.

    A zero denominator raises DivisionByZero naming the first function of
    ``inst.functions`` that meets it."""
    sign = inst.sign
    total = 0.0
    for fn in inst.functions:
        u, v = fn.scope
        try:
            total += eval_expr(fn.expr, assignment[u], assignment[v])
        except DivisionByZero:
            raise zero_denominator(fn) from None
    return sign * total


def incident_functions(inst: CdcopInstance, agent: int) -> list[int]:
    """Ids of the functions whose scope contains the agent, ascending."""
    return sorted(f.id for f in inst.functions if agent in f.scope)


def validate_instance(inst: CdcopInstance) -> list[str]:
    """Check every structural invariant; returns a list of violations (empty = ok)."""
    out: list[str] = []
    if inst.num_agents < 1:
        out.append(f"num_agents must be >= 1, got {inst.num_agents}")
        return out
    if len(inst.domains) != inst.num_agents:
        out.append(f"expected {inst.num_agents} domains, got {len(inst.domains)}")
    for i, d in enumerate(inst.domains):
        if not (np.isfinite(d.lb) and np.isfinite(d.ub)):
            out.append(f"domain {i} has non-finite bounds [{d.lb}, {d.ub}]")
        elif d.lb >= d.ub:
            out.append(f"degenerate domain {i}: [{d.lb}, {d.ub}]")
        elif not np.isfinite(d.ub - d.lb):  # positions are drawn uniformly over the width
            out.append(f"domain {i} is wider than the largest float: [{d.lb}, {d.ub}]")
    if inst.objective not in ("min", "max"):
        out.append(f"objective must be 'min' or 'max', got {inst.objective!r}")

    seen_ids: set[int] = set()
    seen_pairs: set[tuple[int, int]] = set()
    for f in inst.functions:
        if f.id in seen_ids:
            out.append(f"duplicate function id {f.id}")
        seen_ids.add(f.id)
        u, v = f.scope
        if not (0 <= u < inst.num_agents and 0 <= v < inst.num_agents):
            out.append(f"function {f.id} scope ({u}, {v}) out of range")
            continue
        if u == v:
            out.append(f"function {f.id} is a self-loop on variable {u}")
            continue
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            out.append(f"duplicate constraint between variables {pair[0]} and {pair[1]}")
        seen_pairs.add(pair)
        slots, constant_zero = inspect_expr(f.expr)
        if slots != {0, 1}:
            out.append(f"function {f.id} must reference both scope slots, uses {sorted(slots)}")
        if constant_zero:
            out.append(f"function {f.id} divides by a constant zero")

    missing = [] if out else unreachable(inst.num_agents, (f.scope for f in inst.functions))
    if missing:
        out.append(f"disconnected graph: agents {missing} unreachable from agent 0")
    return out


# --- JSON instance files -----------------------------------------------------

def instance_to_json(inst: CdcopInstance) -> str:
    doc = {
        "num_agents": inst.num_agents,
        "domains": [[d.lb, d.ub] for d in inst.domains],
        "objective": inst.objective,
        "functions": [
            {"id": f.id, "scope": list(f.scope), "expr": format_expr(f.expr)}
            for f in inst.functions
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def instance_from_json(text: str) -> CdcopInstance:
    """Parse and validate an instance file's text.

    A missing key, a value of the wrong JSON type, an expression that does
    not parse or a violated invariant raises InvalidInstanceError, which
    names the field and, within a function, its id.
    """
    doc = json.loads(text)
    if type(doc) is not dict:
        raise InvalidInstanceError(["an instance file must hold a JSON object"])
    domains = _field(doc, "domains", list)
    if not all(type(d) is list and len(d) == 2 and all(type(b) in (int, float) for b in d)
               for d in domains):
        raise InvalidInstanceError(["'domains' must be a list of [lb, ub] pairs of numbers"])
    try:
        domains = tuple(Domain(float(lb), float(ub)) for lb, ub in domains)
    except OverflowError:  # an integer bound past the largest float
        raise InvalidInstanceError(["'domains' holds a bound too large for a float"]) from None
    functions = _field(doc, "functions", list)
    inst = CdcopInstance(
        num_agents=_field(doc, "num_agents", int),
        domains=domains,
        functions=tuple(_function_from_json(f, i) for i, f in enumerate(functions)),
        objective=str(doc.get("objective", "min")),
    )
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return inst


def _field(doc: dict, key: str, kind: type, where: str = ""):
    """``doc[key]``, which must be decoded JSON of type ``kind`` (so a bool is no int)."""
    if key not in doc:
        raise InvalidInstanceError([f"{where}missing key {key!r}"])
    if type(doc[key]) is not kind:
        raise InvalidInstanceError(
            [f"{where}{key!r} must be of type {kind.__name__}, got {type(doc[key]).__name__}"])
    return doc[key]


def _function_from_json(f, index: int) -> CostFunction:
    if type(f) is not dict:
        raise InvalidInstanceError([f"functions[{index}] must be an object, got {type(f).__name__}"])
    fid = _field(f, "id", int, f"functions[{index}]: ")
    where = f"function {fid}: "
    scope = _field(f, "scope", list, where)
    if len(scope) != 2 or any(type(u) is not int for u in scope):
        raise InvalidInstanceError([f"{where}'scope' must be a pair of agent indices"])
    text = _field(f, "expr", str, where)
    try:
        expr = parse_expr(text)
    except ValueError as e:  # a syntax error, or a node with a bad slot or exponent
        raise InvalidInstanceError([f"{where}{e}"]) from None
    return CostFunction(fid, (scope[0], scope[1]), expr)


def save_instance(inst: CdcopInstance, path) -> None:
    Path(path).write_text(instance_to_json(inst))


def load_instance(path) -> CdcopInstance:
    try:
        return instance_from_json(Path(path).read_text())
    except json.JSONDecodeError as e:  # name the file that is not JSON
        raise InvalidInstanceError([f"{path}: {e}"]) from None
