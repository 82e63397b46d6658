import numpy as np
import pytest

from cdcop import build_bfs, global_cost
from cdcop.oracle import (
    GridSearchSpec,
    GridTooLargeError,
    check_anytime,
    grid_optimum,
)
from cdcop.swarm import SwarmConfig, solve

from conftest import KITE_POSITIONS, KITE_ROOT_FITNESS, make_instance


def test_centralized_fitness_on_hand_trace(kite_instance):
    for k in range(4):
        assignment = KITE_POSITIONS[:, k]
        assert global_cost(kite_instance, assignment) == pytest.approx(
            KITE_ROOT_FITNESS[k], abs=5e-3)


def test_centralized_fitness_zero(kite_instance):
    assert global_cost(kite_instance, np.zeros(4)) == 0.0


def test_grid_finds_convex_optimum(two_agent_convex):
    assignment, cost = grid_optimum(two_agent_convex, GridSearchSpec(points_per_dim=101))
    assert cost == 0.0
    np.testing.assert_array_equal(assignment, [0.0, 0.0])


def test_grid_finds_boundary_optimum():
    inst = make_instance(2, [((0, 1), "(+ (^ x0 2) (* 2 (* x0 x1)))")])
    assignment, cost = grid_optimum(inst, GridSearchSpec(points_per_dim=201))
    assert cost <= -99.0  # true infimum -100 at the (10, -10) corner
    corners = [(-10.0, 10.0), (10.0, -10.0)]
    assert min(global_cost(inst, c) for c in corners) == -100.0


def test_grid_respects_guards(two_agent_convex, kite_instance):
    with pytest.raises(GridTooLargeError):
        grid_optimum(kite_instance, GridSearchSpec(points_per_dim=5, max_dims=2))
    with pytest.raises(GridTooLargeError):
        grid_optimum(two_agent_convex, GridSearchSpec(points_per_dim=4000, max_dims=8))


def test_grid_deterministic_tie_break():
    # symmetric landscape: both (-1, *) and (1, *) rows tie; lexicographic wins
    inst = make_instance(2, [((0, 1), "(* (^ x0 2) (^ x1 2))")], domain=(-1.0, 1.0))
    assignment, cost = grid_optimum(inst, GridSearchSpec(points_per_dim=3))
    assert cost == 0.0
    np.testing.assert_array_equal(assignment, [-1.0, 0.0])


def test_grid_with_no_finite_cost_reports_the_first_point():
    inst = make_instance(2, [((0, 1), "(+ inf (* x0 x1))")], domain=(0.0, 1.0))
    assignment, cost = grid_optimum(inst, GridSearchSpec(points_per_dim=3))
    assert cost == np.inf
    np.testing.assert_array_equal(assignment, [0.0, 0.0])


def test_grid_nan_cost_never_wins():
    """Where |x1| > 1, x1^2000 overflows and 0 * inf is NaN; a NaN earlier in
    the chunk must not hide the finite optimum."""
    inst = make_instance(2, [((0, 1), "(+ (* x0 x1) (* (- x0 x0) (^ x1 2000)))")],
                         domain=(-2.0, 2.0))
    with np.errstate(over="ignore", invalid="ignore"):
        assignment, cost = grid_optimum(inst, GridSearchSpec(points_per_dim=5))
    assert cost == -2.0
    np.testing.assert_array_equal(assignment, [-2.0, 1.0])


def test_grid_rejects_tiny_lattice():
    with pytest.raises(ValueError):
        GridSearchSpec(points_per_dim=1)


def test_solver_beats_lattice_resolution(kite_instance):
    _, lattice_cost = grid_optimum(kite_instance, GridSearchSpec(points_per_dim=21))
    assert lattice_cost == -100.0
    cfg = SwarmConfig(num_particles=50, t_max=2000, seed=1)
    trace = solve(kite_instance, cfg, tree=build_bfs(kite_instance, 0))
    assert trace.best_internal <= lattice_cost + 1.0


def test_check_anytime_accepts_solver_trace(kite_instance):
    trace = solve(kite_instance, SwarmConfig(num_particles=10, t_max=30, seed=8))
    assert check_anytime(trace.internal_series()) is None


def test_check_anytime_flags_first_violation():
    assert check_anytime([5.0, 4.0, 4.5]) == 2


def test_check_anytime_constant_ok():
    assert check_anytime([3.0, 3.0, 3.0]) is None


def test_check_anytime_max_sense():
    # a maximization objective's display series is checked negated
    assert check_anytime([-c for c in (1.0, 2.0, 3.0)]) is None
    assert check_anytime([-c for c in (1.0, 3.0, 2.0)]) == 2


def test_check_anytime_empty_rejected():
    with pytest.raises(ValueError):
        check_anytime([])
