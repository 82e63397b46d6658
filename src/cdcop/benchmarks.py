"""Seeded benchmark-instance generators.

Four families: Erdős–Rényi random graphs, random trees, Barabási–Albert
scale-free graphs (all three with random quadratic costs a*x^2 + b*x*y +
c*y^2), and a sensor-grid signal-strength problem with maximization
objective. Same spec + same seed always produces byte-identical instance
files.
"""

from dataclasses import dataclass

import numpy as np

from .expressions import X0, X1, Add, Constant, Div, Mul, Pow, Sub, Expression
from .model import (CdcopInstance, CostFunction, Domain, InvalidInstanceError, unreachable,
                    validate_instance)

__all__ = [
    "GenerationFailed",
    "BenchSpec",
    "FAMILIES",
    "check_reads",
    "generate",
    "quadratic_expr",
    "gen_erdos_renyi",
    "gen_random_tree",
    "gen_barabasi_albert",
    "gen_sensor_grid",
]

DEFAULT_DOMAIN = (-50.0, 50.0)
DEFAULT_COEFF = (-5.0, 5.0)
SCALE_FREE_DOMAIN = (-20.0, 20.0)
SENSOR_CELL = 10.0
SENSOR_STRENGTH = 10000.0
CONNECT_RETRIES = 100


class GenerationFailed(RuntimeError):
    """Could not produce a connected graph within the retry budget."""


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark family plus its knobs; ``generate`` dispatches on it."""

    family: str  # "er" | "tree" | "ba" | "sensor"
    n: int = 50
    p: float = 0.2
    m: int = 3
    rows: int = 8
    cols: int = 8
    domain: tuple[float, float] | None = None
    coeff_range: tuple[float, float] | None = None
    seed: int = 0


def check_reads(family: str | None, given) -> None:
    """Raise ValueError naming each field in ``given`` that ``family`` does not read.

    ``family`` None stands for an instance file (``--instance``), which reads none.
    """
    unread = [name for name in given if family is None or name not in FAMILIES[family][1]]
    if unread:
        owner = f"the {family} family" if family else "--instance"
        raise ValueError(f"{owner} takes no {' or '.join(unread)} override")


def generate(spec: BenchSpec) -> CdcopInstance:
    """The instance ``spec`` describes, from the fields its family reads.

    ``domain`` and ``coeff_range`` are passed on only when set, so each
    generator's signature holds its family's defaults; set for a family that
    does not read them, they raise ValueError.
    """
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; choose from {tuple(FAMILIES)}")
    if spec.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {spec.seed}")
    generator, reads = FAMILIES[spec.family]
    check_reads(spec.family, [k for k in ("domain", "coeff_range") if getattr(spec, k) is not None])
    return generator(**{k: getattr(spec, k) for k in reads if getattr(spec, k) is not None},
                     seed=spec.seed)


# the variable-only subtrees of every quadratic cost; trees are immutable, so all share them
_X0_SQ, _X0_X1, _X1_SQ = Pow(X0, 2), Mul(X0, X1), Pow(X1, 2)


def quadratic_expr(a: float, b: float, c: float) -> Expression:
    """a*x0^2 + b*x0*x1 + c*x1^2"""
    return Add(
        Add(Mul(Constant(a), _X0_SQ), Mul(Constant(b), _X0_X1)),
        Mul(Constant(c), _X1_SQ),
    )


def _quadratic_instance(n: int, edges: list[tuple[int, int]], domain, coeff_range,
                        rng: np.random.Generator) -> CdcopInstance:
    lb, ub = domain
    if not -np.inf < lb < ub < np.inf:
        raise ValueError(f"domain must be finite with low < high, got {domain}")
    if not np.isfinite(ub - lb):  # positions are drawn uniformly over the width
        raise ValueError(f"domain is wider than the largest float, got {domain}")
    lo, hi = coeff_range
    if not -np.inf < lo <= hi < np.inf:
        raise ValueError(f"coeff_range must be finite with low <= high, got {coeff_range}")
    if not np.isfinite(hi - lo):  # coefficients are drawn uniformly over the width
        raise ValueError(f"coeff_range is wider than the largest float, got {coeff_range}")
    # row i is edge i's (a, b, c): the doubles that one draw of three per edge gives
    coeffs = rng.uniform(lo, hi, size=(len(edges), 3)).tolist()
    inst = CdcopInstance(
        num_agents=n,
        domains=(Domain(lb, ub),) * n,
        functions=tuple(CostFunction(fid, edge, quadratic_expr(*abc))
                        for fid, (edge, abc) in enumerate(zip(edges, coeffs))),
        objective="min",
    )
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return inst


def gen_erdos_renyi(n: int, p: float, domain=DEFAULT_DOMAIN, coeff_range=DEFAULT_COEFF,
                    seed: int = 0) -> CdcopInstance:
    """Each of the C(n,2) pairs gets an edge with probability p; retries until connected."""
    if n < 2 or not 0.0 < p <= 1.0:
        raise ValueError(f"need n >= 2 and 0 < p <= 1, got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    us, vs = np.triu_indices(n, 1)  # every pair u < v, in the order its coin is drawn
    for _ in range(CONNECT_RETRIES):
        keep = rng.random(len(us)) < p
        edges = list(zip(us[keep].tolist(), vs[keep].tolist()))
        if not unreachable(n, edges):
            return _quadratic_instance(n, edges, domain, coeff_range, rng)
    raise GenerationFailed(
        f"no connected graph in {CONNECT_RETRIES} attempts (n={n}, p={p}); increase p")


def gen_random_tree(n: int, domain=DEFAULT_DOMAIN, coeff_range=DEFAULT_COEFF,
                    seed: int = 0) -> CdcopInstance:
    """Uniform random attachment: node i >= 1 links to a uniformly chosen earlier node."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return _quadratic_instance(n, edges, domain, coeff_range, rng)


def gen_barabasi_albert(n: int, m: int, domain=SCALE_FREE_DOMAIN,
                        coeff_range=DEFAULT_COEFF, seed: int = 0) -> CdcopInstance:
    """Preferential attachment on a complete seed graph of m nodes.

    Every new node attaches to m distinct existing nodes, drawn with
    probability proportional to current degree (redrawing duplicates).
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    degree = np.zeros(n)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for node in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            total = degree[:node].sum()
            if total == 0.0:
                pick = int(rng.integers(0, node))
            else:
                pick = int(rng.choice(node, p=degree[:node] / total))
            targets.add(pick)
        for t in sorted(targets):
            edges.append((t, node))
            degree[t] += 1
            degree[node] += 1
    return _quadratic_instance(n, edges, domain, coeff_range, rng)


def _sensor_distance_sq(d_row: int, d_col: int) -> Expression:
    """Squared distance between two sensors whose cells lie d_row rows and
    d_col columns apart (first cell minus second), offset by the cell origins.

    The +1 keeps the distance strictly positive even when two sensors in
    adjacent cells meet at the shared boundary, so the signal-strength ratio
    below stays finite everywhere in the domain box.
    """
    dx = SENSOR_CELL * d_col
    dy = SENSOR_CELL * d_row
    along = Sub(Add(X0, Constant(dx)), X1)  # x_a + cell offset - x_b
    return Add(Add(Pow(along, 2), Constant(dy * dy)), Constant(1.0))


def gen_sensor_grid(rows: int, cols: int, seed: int = 0) -> CdcopInstance:
    """Sensors on a rows x cols grid maximize pairwise radio signal strength.

    Each sensor moves along its cell, domain [0, 10]; 4-neighborhood pairs
    share a constraint C / (d^2 * lambda), where lambda adds per-edge random
    reference offsets and noise in [1, 10].
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"need rows, cols >= 2, got {rows}x{cols}")
    rng = np.random.default_rng(seed)
    n = rows * cols
    # the distance subtree depends only on a pair's offset, so each offset's is
    # shared, as is the strength leaf; trees are immutable
    right, below = _sensor_distance_sq(0, -1), _sensor_distance_sq(-1, 0)
    strength = Constant(SENSOR_STRENGTH)
    pairs = []  # (a, b, distance) in ascending (a, b): a's right neighbour comes first
    for a in range(n):
        if (a + 1) % cols:
            pairs.append((a, a + 1, right))
        if a + cols < n:
            pairs.append((a, a + cols, below))
    # row i is function i's (ref_a, ref_b, noise): the doubles that per-function
    # draws of two reference offsets and then one noise give
    draws = rng.uniform((0.0, 0.0, 1.0), (SENSOR_CELL, SENSOR_CELL, 10.0),
                        size=(len(pairs), 3)).tolist()
    functions = []
    for fid, ((a, b, distance), (ref_a, ref_b, noise)) in enumerate(zip(pairs, draws)):
        interference = Add(
            Add(Pow(Sub(Constant(ref_a), X0), 2), Pow(Sub(Constant(ref_b), X1), 2)),
            Constant(noise),
        )
        functions.append(CostFunction(fid, (a, b), Div(strength, Mul(distance, interference))))
    inst = CdcopInstance(
        num_agents=n,
        domains=(Domain(0.0, SENSOR_CELL),) * n,
        functions=tuple(functions),
        objective="max",
    )
    violations = validate_instance(inst)
    if violations:
        raise InvalidInstanceError(violations)
    return inst


# Each family's generator and the BenchSpec fields it reads, besides ``family``
# and ``seed``; each field is a parameter of that generator.
FAMILIES = {
    "er": (gen_erdos_renyi, ("n", "p", "domain", "coeff_range")),
    "tree": (gen_random_tree, ("n", "domain", "coeff_range")),
    "ba": (gen_barabasi_albert, ("n", "m", "domain", "coeff_range")),
    "sensor": (gen_sensor_grid, ("rows", "cols")),
}
