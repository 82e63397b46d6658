import numpy as np
import pytest
from hypothesis import strategies as st

from functools import reduce

from cdcop import CdcopInstance, CostFunction, Domain, parse_expr
from cdcop.expressions import Add, Constant, Div, Mul, Neg, Pow, Sub, Var


def make_instance(n, specs, domain=(-10.0, 10.0), objective="min"):
    """specs: list of (scope_pair, s-expression string)."""
    return CdcopInstance(
        num_agents=n,
        domains=tuple(Domain(*domain) for _ in range(n)),
        functions=tuple(
            CostFunction(i, scope, parse_expr(text)) for i, (scope, text) in enumerate(specs)
        ),
        objective=objective,
    )


def update_scratch(x):
    """Buffers for ``pso_step`` on positions shaped like ``x``, filled with
    garbage: two shaped like ``x``, then three like one column of it."""
    column = x[..., :1]
    return tuple(np.full_like(a, 7.0) for a in (x, x, column, column, column))


def sum_chain(num_terms):
    """A left-leaning sum of ``num_terms`` terms, nested ``num_terms - 1`` deep."""
    terms = [Var(0), Mul(Constant(0.5), Var(1)), Constant(0.25), Pow(Sub(Var(0), Constant(1.5)), 2)]
    return reduce(Add, (terms[i % len(terms)] for i in range(num_terms)))


def neg_pow_chain(depth):
    """``x0`` under ``depth`` alternating ``^ 1`` and ``neg`` nodes, times ``x1``."""
    expr = Var(0)
    for level in range(depth):
        expr = Neg(expr) if level % 2 else Pow(expr, 1)
    return Mul(expr, Var(1))


# random expression trees, for the compiled-vs-interpreted cross-checks and the
# random-instance differential test
_leaf = st.one_of(
    st.floats(-5, 5, allow_nan=False).map(lambda v: Constant(round(v, 3))),
    st.sampled_from([Var(0), Var(1)]),
)


def _branch(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: Add(*p)),
        st.tuples(children, children).map(lambda p: Sub(*p)),
        st.tuples(children, children).map(lambda p: Mul(*p)),
        st.tuples(children, children).map(lambda p: Div(*p)),
        st.tuples(children, st.integers(0, 3)).map(lambda p: Pow(*p)),
        children.map(Neg),
    )


_trees = st.recursive(_leaf, _branch, max_leaves=12)


@pytest.fixture
def kite_instance():
    """Four agents, four quadratic constraints; edges (0,1), (0,2), (0,3), (2,3)."""
    return make_instance(4, [
        ((0, 1), "(- (^ x0 2) (^ x1 2))"),
        ((0, 2), "(+ (^ x0 2) (* 2 (* x0 x1)))"),
        ((0, 3), "(- (* 2 (^ x0 2)) (* 2 (^ x1 2)))"),
        ((2, 3), "(+ (^ x0 2) (* 3 (^ x1 2)))"),
    ])


# the four-particle hand trace used by the golden tests, positions[agent][particle]
KITE_POSITIONS = np.array([
    [-1.0, -2.0, 0.0, 1.1],
    [1.2, 2.0, 1.0, -1.0],
    [-2.0, -1.0, 2.0, 1.5],
    [2.0, 1.0, -2.0, 0.5],
])

KITE_LOCAL_FITNESS = np.array([
    [-1.44, 14.00, -9.00, 6.64],
    [-0.44, 0.00, -1.00, 0.21],
    [21.00, 12.00, 16.00, 7.51],
    [10.00, 10.00, 8.00, 4.92],
])

# root column of the aggregated-and-halved fitness; leaves keep their local sums
KITE_ROOT_FITNESS = np.array([14.56, 18.00, 7.00, 9.64])

KITE_GBEST = np.array([0.0, 1.0, 2.0, -2.0])  # coordinates of particle index 2

# velocities/positions after one update with w=0.72, radius=1, r1=0.7, r2=0.4
KITE_UPDATED_V = np.array([
    [0.60, 1.19, 0.20, -0.66],
    [-0.12, -0.60, 0.20, 1.19],
    [2.38, 1.79, 0.20, 0.30],
    [-2.38, -1.79, 0.20, -1.49],
])

KITE_UPDATED_X = np.array([
    [-0.40, -0.81, 0.20, 0.44],
    [1.08, 1.40, 1.20, 0.19],
    [0.38, 0.79, 2.20, 1.80],
    [-0.38, -0.79, -1.80, -0.99],
])

KITE_CROSSOVER_P = np.array([
    [0.046, 0.450, 0.290, 0.214],
    [0.267, 0.000, 0.606, 0.127],
    [0.372, 0.212, 0.283, 0.133],
    [0.304, 0.304, 0.243, 0.149],
])


@pytest.fixture
def two_agent_convex():
    """f(x, y) = x^2 + y^2 on [-50, 50]^2; optimum 0 at the origin."""
    return make_instance(2, [((0, 1), "(+ (^ x0 2) (^ x1 2))")], domain=(-50.0, 50.0))


@pytest.fixture
def path3_instance():
    return make_instance(3, [
        ((0, 1), "(+ (^ x0 2) (^ x1 2))"),
        ((1, 2), "(+ (^ x0 2) (^ x1 2))"),
    ])
