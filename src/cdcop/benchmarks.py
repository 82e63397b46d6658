"""Seeded benchmark-instance generators.

Four families: Erdős–Rényi random graphs, random trees, Barabási–Albert
scale-free graphs (all three with random quadratic costs a*x^2 + b*x*y +
c*y^2), and a sensor-grid signal-strength problem with maximization
objective. Same spec + same seed always produces byte-identical instance
files.
"""

from dataclasses import dataclass

import numpy as np

from .expressions import Add, Constant, Div, Mul, Pow, Sub, Var, Expression
from .model import CdcopInstance, CostFunction, Domain, unreachable, validate_instance

__all__ = [
    "GenerationFailed",
    "BenchSpec",
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


FAMILIES = ("er", "tree", "ba", "sensor")


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


def generate(spec: BenchSpec) -> CdcopInstance:
    """The instance ``spec`` describes; ``domain`` and ``coeff_range`` are passed on
    only when set, so each generator's signature holds its family's defaults. The
    sensor family's domains and utilities are fixed: it takes neither."""
    given = {k: v for k, v in (("domain", spec.domain), ("coeff_range", spec.coeff_range)) if v}
    if spec.family == "er":
        return gen_erdos_renyi(spec.n, spec.p, seed=spec.seed, **given)
    if spec.family == "tree":
        return gen_random_tree(spec.n, seed=spec.seed, **given)
    if spec.family == "ba":
        return gen_barabasi_albert(spec.n, spec.m, seed=spec.seed, **given)
    if spec.family == "sensor":
        if given:
            raise ValueError(f"the sensor family takes no {' or '.join(given)} override")
        return gen_sensor_grid(spec.rows, spec.cols, spec.seed)
    raise ValueError(f"unknown family {spec.family!r}; choose from {FAMILIES}")


def quadratic_expr(a: float, b: float, c: float) -> Expression:
    """a*x0^2 + b*x0*x1 + c*x1^2"""
    return Add(
        Add(Mul(Constant(a), Pow(Var(0), 2)), Mul(Constant(b), Mul(Var(0), Var(1)))),
        Mul(Constant(c), Pow(Var(1), 2)),
    )


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _quadratic_instance(n: int, edges: list[tuple[int, int]], domain, coeff_range,
                        rng: np.random.Generator) -> CdcopInstance:
    lb, ub = domain
    lo, hi = coeff_range
    functions = []
    for fid, (u, v) in enumerate(edges):
        a, b, c = (float(w) for w in rng.uniform(lo, hi, size=3))
        functions.append(CostFunction(fid, (u, v), quadratic_expr(a, b, c)))
    inst = CdcopInstance(
        num_agents=n,
        domains=tuple(Domain(lb, ub) for _ in range(n)),
        functions=tuple(functions),
        objective="min",
    )
    violations = validate_instance(inst)
    assert not violations, violations
    return inst


def gen_erdos_renyi(n: int, p: float, domain=DEFAULT_DOMAIN, coeff_range=DEFAULT_COEFF,
                    seed: int = 0) -> CdcopInstance:
    """Each of the C(n,2) pairs gets an edge with probability p; retries until connected."""
    if n < 2 or not 0.0 < p <= 1.0:
        raise ValueError(f"need n >= 2 and 0 < p <= 1, got n={n}, p={p}")
    rng = _rng(seed)
    for _ in range(CONNECT_RETRIES):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if not unreachable(n, edges):
            return _quadratic_instance(n, edges, domain, coeff_range, rng)
    raise GenerationFailed(
        f"no connected graph in {CONNECT_RETRIES} attempts (n={n}, p={p}); increase p")


def gen_random_tree(n: int, domain=DEFAULT_DOMAIN, coeff_range=DEFAULT_COEFF,
                    seed: int = 0) -> CdcopInstance:
    """Uniform random attachment: node i >= 1 links to a uniformly chosen earlier node."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = _rng(seed)
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
    rng = _rng(seed)
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


def _sensor_distance_sq(cell_a: tuple[int, int], cell_b: tuple[int, int]) -> Expression:
    """Squared distance between two sensors, offset by their cell origins.

    The +1 keeps the distance strictly positive even when two sensors in
    adjacent cells meet at the shared boundary, so the signal-strength ratio
    below stays finite everywhere in the domain box.
    """
    (ra, ca), (rb, cb) = cell_a, cell_b
    dx = SENSOR_CELL * (ca - cb)
    dy = SENSOR_CELL * (ra - rb)
    along = Sub(Add(Var(0), Constant(dx)), Var(1))  # x_a + cell offset - x_b
    return Add(Add(Pow(along, 2), Constant(dy * dy)), Constant(1.0))


def gen_sensor_grid(rows: int, cols: int, seed: int = 0) -> CdcopInstance:
    """Sensors on a rows x cols grid maximize pairwise radio signal strength.

    Each sensor moves along its cell, domain [0, 10]; 4-neighborhood pairs
    share a constraint C / (d^2 * lambda), where lambda adds per-edge random
    reference offsets and noise in [1, 10].
    """
    if rows < 2 or cols < 2:
        raise ValueError(f"need rows, cols >= 2, got {rows}x{cols}")
    rng = _rng(seed)
    n = rows * cols
    cell = lambda r, c: r * cols + c
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append(((r, c), (r, c + 1)))
            if r + 1 < rows:
                pairs.append(((r, c), (r + 1, c)))
    functions = []
    for fid, (ca, cb) in enumerate(sorted(pairs, key=lambda p: (cell(*p[0]), cell(*p[1])))):
        ref_a, ref_b = rng.uniform(0.0, SENSOR_CELL, size=2)
        noise = float(rng.uniform(1.0, 10.0))
        interference = Add(
            Add(Pow(Sub(Constant(float(ref_a)), Var(0)), 2),
                Pow(Sub(Constant(float(ref_b)), Var(1)), 2)),
            Constant(noise),
        )
        expr = Div(Constant(SENSOR_STRENGTH), Mul(_sensor_distance_sq(ca, cb), interference))
        functions.append(CostFunction(fid, (cell(*ca), cell(*cb)), expr))
    inst = CdcopInstance(
        num_agents=n,
        domains=tuple(Domain(0.0, SENSOR_CELL) for _ in range(n)),
        functions=tuple(functions),
        objective="max",
    )
    violations = validate_instance(inst)
    assert not violations, violations
    return inst
