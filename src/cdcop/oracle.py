"""Centralized ground-truth utilities.

These deliberately avoid the solver's code paths: costs go through the plain
tree-walk evaluator (``model.global_cost``), and the optimum search is an
exhaustive (derivative-free) lattice scan, so they can arbitrate what the
distributed machinery reports.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import CdcopInstance, global_cost

__all__ = [
    "GridSearchSpec",
    "GridTooLargeError",
    "grid_optimum",
    "check_anytime",
]

GRID_GUARD = 10_000_000


class GridTooLargeError(ValueError):
    """The requested lattice would exceed the evaluation guard."""


@dataclass(frozen=True)
class GridSearchSpec:
    points_per_dim: int = 21
    max_dims: int = 8

    def __post_init__(self):
        if self.points_per_dim < 2:
            raise ValueError(f"points_per_dim must be >= 2, got {self.points_per_dim}")


def grid_optimum(inst: CdcopInstance, spec: GridSearchSpec = GridSearchSpec()) -> tuple[np.ndarray, float]:
    """Best assignment on the rectangular lattice with ``points_per_dim`` per axis.

    Exhaustive and deterministic; ties resolve to the lexicographically
    smallest lattice point, and a NaN cost counts as +inf. Costs are internal
    (minimization) sign.
    """
    n = inst.num_agents
    if n > spec.max_dims:
        raise GridTooLargeError(f"{n} agents exceeds max_dims={spec.max_dims}")
    total = spec.points_per_dim ** n
    if total > GRID_GUARD:
        raise GridTooLargeError(f"{total} lattice points exceeds the {GRID_GUARD} guard")

    axes = [np.linspace(inst.domains[i].lb, inst.domains[i].ub, spec.points_per_dim)
            for i in range(n)]
    best_cost = np.inf
    best_flat = 0  # where no cost is below +inf, the first point
    chunk = 1_000_000
    # lexicographic enumeration in chunks; first strict improvement wins ties
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        costs = np.asarray(global_cost(inst, _lattice_points(axes, np.arange(start, stop))))
        np.fmin(costs, np.inf, out=costs)  # a NaN cost counts as +inf: argmin would pick it
        # an instance with no functions costs 0.0 everywhere
        costs = np.broadcast_to(costs, stop - start)
        k = int(np.argmin(costs))
        if costs[k] < best_cost:
            best_cost = float(costs[k])
            best_flat = start + k
    return _lattice_points(axes, best_flat), best_cost


def _lattice_points(axes: list[np.ndarray], flat):
    """The lattice points at lexicographic indices ``flat``, an int or an
    array, as one row per axis: the last axis varies fastest."""
    points = np.empty((len(axes),) + np.shape(flat))
    rem = flat
    for dim in range(len(axes) - 1, -1, -1):
        points[dim] = axes[dim][rem % len(axes[dim])]
        rem = rem // len(axes[dim])
    return points


def check_anytime(costs: Sequence[float]) -> int | None:
    """First index where the best-so-far series rises, or None if it never does.

    ``costs`` is in the internal (minimization) sign; a series in a
    maximization objective's display sign is checked negated.
    """
    if len(costs) == 0:
        raise ValueError("empty trace")
    for i in range(1, len(costs)):
        if costs[i] > costs[i - 1]:
            return i
    return None
