"""Decentralized particle-swarm solver over a pseudo-tree (PCD).

Every agent owns one coordinate of each of the K particles. A cycle runs
four steps on top of the synchronous runtime:

* evaluation — with neighbor positions in hand, each agent sums its incident
  cost functions per particle, adds the children's aggregated fitness, and
  forwards the result to its parent; the root halves the total because every
  binary constraint was counted by both endpoints.
* best update — the root advances personal/global bests under strict
  less-than and broadcasts the improved particle indices plus the new best
  particle (if any); receivers snapshot their own coordinates for those
  indices.
* optional crossover — each agent blends two of its local coordinates,
  selected with probability proportional to |local fitness|.
* variable update — guaranteed-convergence PSO velocity rules: the global
  best particle does a directed random walk of diameter ``radius`` around
  the global best position, everything else follows the usual
  cognitive/social pull. Success/failure streaks double or halve ``radius``.

All randomness comes from per-agent labeled substreams of the run seed, so
traces are reproducible and enabling crossover does not perturb the
initialization or velocity draws.

``SwarmAgent`` implements these steps as one agent's runtime handlers; on
``SyncRuntime`` it is the executable specification. ``solve`` runs the same
cycle on ``(n, K)`` arrays for all agents at once (see ``engine``), through
the same update and crossover functions, and is tested to give
bit-identical traces.
"""

import math
import numbers
import time
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .engine import LocalCosts, MessageLog, TreeSchedule
from .model import CdcopInstance, incident_functions, zero_denominator
from .expressions import DivisionByZero, compile_expr
from .pseudotree import PseudoTree, build_bfs
from .runtime import BestPayload, CycleStats, Message, best_length

__all__ = [
    "FixedInertia",
    "AdaptiveInertia",
    "ConstrictionInertia",
    "SwarmConfig",
    "check_field_types",
    "validate_config",
    "GcpsoControl",
    "ConfigError",
    "inertia_weight",
    "update_control",
    "best_update",
    "velocity_global_best",
    "pso_step",
    "crossover_probabilities",
    "CrossoverScratch",
    "crossover_rows",
    "SwarmAgent",
    "TraceRow",
    "RunTrace",
    "solve",
]


# cycles of random draws held at a time: solve takes this many cycles of each
# agent's velocity and crossover streams per refill, whatever t_max is
DRAW_CYCLES = 64


class ConfigError(ValueError):
    """Invalid solver configuration."""


# --- inertia schedules -------------------------------------------------------

@dataclass(frozen=True)
class FixedInertia:
    w: float = 0.72


@dataclass(frozen=True)
class AdaptiveInertia:
    """Linear inertia schedule from w_max down to w_min over the run.

    ``literal_increasing`` switches to the increasing ramp
    (w_max - w_min) * t / t_max instead; off by default.
    """

    w_max: float = 1.4
    w_min: float = 0.4
    literal_increasing: bool = False


@dataclass(frozen=True)
class ConstrictionInertia:
    """Constant constriction weight derived from phi = c1 + c2 > 4."""

    phi: float = 4.1


InertiaSchedule = FixedInertia | AdaptiveInertia | ConstrictionInertia


def inertia_weight(schedule: InertiaSchedule, t, t_max: int):
    """Inertia weight at cycle ``t`` of ``t_max``.

    ``t`` may be an integer array of cycles: a schedule that varies then
    gives each cycle's weight, with the bits the scalar call gives.
    """
    match schedule:
        case FixedInertia(w=w):
            return w
        case AdaptiveInertia(w_max=hi, w_min=lo, literal_increasing=inc):
            frac = t / t_max
            return (hi - lo) * frac if inc else hi - (hi - lo) * frac
        case ConstrictionInertia(phi=phi):
            return 2.0 / abs(2.0 - phi - math.sqrt(phi * phi - 4.0 * phi))
    raise TypeError(f"unknown inertia schedule: {schedule!r}")


# --- configuration and control state ------------------------------------------

@dataclass(frozen=True)
class SwarmConfig:
    num_particles: int = 200
    c1: float = 1.49
    c2: float = 1.49
    inertia: InertiaSchedule = AdaptiveInertia()
    max_sc: int = 15
    max_fc: int = 5
    t_max: int = 500
    crossover: bool = False
    seed: int = 0


# what a field of each declared type accepts, and its name in the error
_FIELD_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false"),
    int: (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v),
            "a finite real number"),
}


def check_field_types(config) -> None:
    """Raise ConfigError naming the first field of ``config``, a SwarmConfig or an
    inertia schedule, whose value its declared type does not accept."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in _FIELD_TYPES and not _FIELD_TYPES[f.type][0](value):
            raise ConfigError(f"{f.name} must be {_FIELD_TYPES[f.type][1]}, got {value!r}")


def validate_config(cfg: SwarmConfig) -> None:
    """Raise ConfigError unless ``cfg`` can drive a run."""
    if not isinstance(cfg.inertia, (FixedInertia, AdaptiveInertia, ConstrictionInertia)):
        raise ConfigError(f"unknown inertia schedule: {cfg.inertia!r}")
    check_field_types(cfg)
    check_field_types(cfg.inertia)
    if cfg.num_particles < 2:
        raise ConfigError(f"need at least 2 particles, got {cfg.num_particles}")
    if cfg.c1 <= 0 or cfg.c2 <= 0:
        raise ConfigError(f"c1 and c2 must be positive, got {cfg.c1}, {cfg.c2}")
    if cfg.max_sc < 1 or cfg.max_fc < 1:
        raise ConfigError("success/failure thresholds must be >= 1")
    if cfg.t_max < 1:
        raise ConfigError(f"t_max must be >= 1, got {cfg.t_max}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg.seed}")
    if isinstance(cfg.inertia, ConstrictionInertia):
        phi = cfg.inertia.phi
        if phi <= 4.0:
            raise ConfigError(f"constriction requires phi = c1 + c2 > 4, got {phi}")
        if not math.isclose(cfg.c1 + cfg.c2, phi, rel_tol=1e-9):
            raise ConfigError(f"constriction phi {phi} must equal c1 + c2 = {cfg.c1 + cfg.c2}")
    if isinstance(cfg.inertia, AdaptiveInertia) and cfg.inertia.w_max < cfg.inertia.w_min:
        raise ConfigError("adaptive inertia needs w_max >= w_min")


@dataclass
class GcpsoControl:
    """Shared exploration-control state, kept identical on every agent."""

    successes: int = 0
    failures: int = 0
    radius: float = 1.0
    best_particle: int | None = None


def update_control(ctrl: GcpsoControl, improved: bool, cfg: SwarmConfig) -> None:
    """Advance success/failure streaks, then rescale the exploration radius.

    The radius step looks at the streak values from the *previous* cycle, so
    a threshold crossing takes effect on the following update.
    """
    prev_s, prev_f = ctrl.successes, ctrl.failures
    if improved:
        ctrl.successes += 1
        ctrl.failures = 0
    else:
        ctrl.successes = 0
        ctrl.failures += 1
    if prev_s > cfg.max_sc:
        ctrl.radius *= 2.0
    elif prev_f > cfg.max_fc:
        ctrl.radius *= 0.5


def best_update(fit, p_best_fit, g_best_fit: float, improved) -> tuple[int, int, bool]:
    """The root's best update, run by ``solve`` and ``SwarmAgent``: marks in ``improved``
    and writes into ``p_best_fit`` each fitness strictly below its personal best, and returns
    their count, the argmin particle ``k`` (the first of equal minima, or the first NaN) and
    whether ``fit[k]`` is strictly below ``g_best_fit``."""
    np.less(fit, p_best_fit, out=improved)
    count = int(np.count_nonzero(improved))
    if count:
        np.copyto(p_best_fit, fit, where=improved)
    k = int(fit.argmin())
    return count, k, fit.item(k) < g_best_fit


# --- update equations (shared by the agent and solve) ------------------------

def velocity_global_best(v, x, g_best, w, radius, walk, scratch):
    """The global best particle's velocity ``-x + g_best + w*v + radius*walk``,
    added left to right, with ``walk = 1 - 2*r2``.

    ``scratch``, three arrays shaped like ``x``, holds the terms and the
    result. No call writes over one of its operands: numpy's in-place add of
    one-element arrays keeps the other operand's NaN.
    """
    a, b, c = scratch
    pulled = np.add(np.negative(x, out=a), g_best, out=b)
    moved = np.add(pulled, np.multiply(w, v, out=a), out=c)
    return np.add(moved, np.multiply(radius, walk, out=a), out=b)


def pso_step(x, v, p_best_x, g_best_x, r1c1, r2c2, walk, w, cfg: SwarmConfig,
             ctrl: GcpsoControl, lb, ub, keep, scratch):
    """One velocity and position update of ``x`` and ``v``, in place; returns ``(x, v)``.

    ``r1c1``, ``r2c2`` and ``walk`` are the cycle's ``r1*c1``, ``r2*c2`` and
    ``1 - 2*r2``. Takes one agent's particle vectors with scalar
    ``g_best_x``, ``r1c1``, ``r2c2``, ``walk``, ``lb``, ``ub``, or all agents'
    ``(n, K)`` matrices with ``g_best_x``, ``r1c1``, ``r2c2``, ``walk`` as
    ``(n, 1)`` columns and ``lb``, ``ub`` as columns or full ``(n, K)``
    matrices; every element sees the same operations in the same order either
    way. With A = (p_best_x - x)*r1c1 and B = (g_best_x - x)*r2c2 the velocity
    is v*w + (A + B), or (v + (A + B))*w under constriction. The global best
    particle ``ctrl.best_particle`` takes ``velocity_global_best`` instead,
    and the elements at flat index ``keep``, already moved by crossover, keep
    their velocity and position. Positions are clamped to ``[lb, ub]``.
    ``scratch`` holds A and B, shaped like ``x``, then the three arrays
    ``velocity_global_best`` works in, shaped like one column of ``x``.
    ``keep`` is None when no element was crossed.
    """
    cognitive, social = scratch[:2]
    k = ctrl.best_particle
    if k is not None:
        best = np.s_[..., k:k + 1]  # one column keeps the broadcast shapes
        v_best = velocity_global_best(v[best], x[best], g_best_x, w, ctrl.radius, walk,
                                      scratch[2:])
    if keep is not None:
        kept_v, kept_x = v.take(keep), x.take(keep)
    np.subtract(p_best_x, x, out=cognitive)
    cognitive *= r1c1
    np.subtract(g_best_x, x, out=social)
    social *= r2c2
    cognitive += social
    if isinstance(cfg.inertia, ConstrictionInertia):
        v += cognitive
        v *= w
    else:
        v *= w
        v += cognitive
    if k is not None:
        v[best] = v_best
    if keep is not None:
        v.put(keep, kept_v)
    x += v
    if keep is not None:
        x.put(keep, kept_x)
    # np.clip's bits (a test pins this); with (n, K) bounds, a third of ndarray.clip's time
    np.maximum(x, lb, out=x)
    np.minimum(x, ub, out=x)
    return x, v


def crossover_probabilities(local_fitness: np.ndarray, out=None, total=None) -> np.ndarray:
    """Selection weights proportional to |local fitness| along the last axis.

    A row whose fitness is all zero gets uniform weights. ``out`` and
    ``total`` (the row sums, with a last axis of length 1) may be given to
    reuse buffers.
    """
    weights = np.abs(local_fitness, out=out)
    total = np.add.reduce(weights, axis=-1, keepdims=True, out=total)
    zero = None if np.count_nonzero(total) == total.size else total == 0.0
    if zero is not None:
        total[zero] = 1.0  # an all-zero row divides by 1, not 0/0, then turns uniform
    weights /= total
    if zero is not None:
        np.copyto(weights, 1.0 / weights.shape[-1], where=zero)
    return weights


class CrossoverScratch:
    """The buffers ``crossover_rows`` works in for ``(m, K)`` matrices."""

    def __init__(self, m: int, num_particles: int):
        K = num_particles
        self.weights = np.empty((m, K))
        self.cdf = np.empty((m, K))
        self.above = np.empty((m, K), dtype=bool)
        self.above[:, -1] = True  # caps :meth:`draw`'s index at K - 1; never overwritten
        self.total = np.empty((m, 1))
        self.target = np.empty((m, 1))
        # the views :meth:`draw` reads and writes, made once
        self._cdf_last, self._cdf_head = self.cdf[:, -1], self.cdf[:, :-1]
        self._target_column, self._above_head = self.target[:, 0], self.above[:, :-1]
        self.offsets = np.arange(m, dtype=np.intp) * K  # flat index of each row's column 0
        self.columns = np.empty((2, m), dtype=np.intp)  # a and b of each row
        self.flat = np.empty((2, m), dtype=np.intp)  # their flat indices into (m, K)
        self.pair = np.empty((2, m))
        self.blend = np.empty((2, m))
        self.rest = np.empty(m)  # 1 - r of each row
        self.velocity_sum = np.empty(m)

    def draw(self, u: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Per row of ``cdf``, ``searchsorted(u * cdf[-1], side="right")`` capped
        at the last index.

        That draws an index with probability proportional to the row's
        increments. On a row sorted with NaN last, as a cumulative sum of
        weights >= 0 is, the search gives the first column above the target,
        or the last column if none is: a NaN target (the row ends in NaN) is
        above none. Writes the indices into ``index``, using ``target`` and
        all but the last column of ``above`` as scratch.
        """
        np.multiply(u, self._cdf_last, out=self._target_column)
        np.greater(self._cdf_head, self.target, out=self._above_head)
        return self.above.argmax(axis=1, out=index)


_SIGNS = np.array([-1.0, 1.0])  # the velocities' sign, indexed by "their sum is > 0"


def crossover_rows(x: np.ndarray, v: np.ndarray, local_fitness: np.ndarray,
                   scratch: CrossoverScratch, u: np.ndarray) -> np.ndarray:
    """One cycle's crossover in each row of ``(m, K)`` matrices, in place.

    Each row picks particle ``a`` with probability proportional to
    |local fitness|, then a distinct ``b`` the same way, and blends their
    positions with ``r``; row i's ``a``, ``b`` and ``r`` draws are row i of
    the ``(m, 3)`` array ``u`` of uniform doubles. If ``a`` carried all the
    weight, ``b`` is uniform over the other particles: the row's weights
    become 1 but at ``a``. Where the pair's velocities do not sum to zero
    both are aligned with the sign of that sum, and the pair is fully
    crossed. Returns the flat indices into ``x`` of the fully crossed
    elements, which the regular update leaves alone this cycle; they live
    in ``scratch`` until its next call.
    """
    a, b = scratch.columns
    flat_a, flat_b = scratch.flat
    weights = crossover_probabilities(local_fitness, scratch.weights, scratch.total)
    # np.cumsum, without its Python wrapper
    cdf = np.add.accumulate(weights, axis=1, out=scratch.cdf)
    scratch.draw(u[:, 0], a)
    np.add(scratch.offsets, a, out=flat_a)
    weights.put(flat_a, 0.0)
    np.add.accumulate(weights, axis=1, out=cdf)
    if np.count_nonzero(cdf[:, -1]) < len(b):  # a carried all of some row's weight
        only_a = cdf[:, -1] == 0.0
        weights[only_a] = 1.0
        weights.put(flat_a[only_a], 0.0)
        np.add.accumulate(weights, axis=1, out=cdf)
    scratch.draw(u[:, 1], b)
    np.add(scratch.offsets, b, out=flat_b)
    r = u[:, 2]
    # both positions as one (2, m) stack: row 0 is r*xa + (1-r)*xb, row 1 r*xb + (1-r)*xa
    pair, blend = scratch.pair, scratch.blend
    x.take(scratch.flat, out=pair, mode="clip")
    np.multiply(pair, r, out=blend)
    pair *= np.subtract(1.0, r, out=scratch.rest)
    blend += pair[::-1]
    x.put(scratch.flat, blend)
    v.take(scratch.flat, out=pair, mode="clip")
    total = np.add(pair[0], pair[1], out=scratch.velocity_sum)
    np.abs(pair, out=pair)
    pair *= _SIGNS.take(total > 0.0)
    if np.count_nonzero(total) == len(total):
        v.put(scratch.flat, pair)
        return scratch.flat
    crossed = total != 0.0
    v.put(scratch.flat[:, crossed], pair[:, crossed])
    return scratch.flat[:, crossed]


def agent_stream(seed: int, agent_id: int, label: int) -> np.random.Generator:
    """Labeled substream of one agent: 0 initialization, 1 velocity draws, 2 crossover."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(agent_id, label))))


# --- the agent -----------------------------------------------------------------

class SwarmAgent:
    """One agent's slice of the swarm plus its runtime phase handlers."""

    def __init__(self, agent_id: int, inst: CdcopInstance, tree: PseudoTree,
                 cfg: SwarmConfig):
        self.id = agent_id
        self.cfg = cfg
        self.is_root = agent_id == tree.root
        self.children = tree.children[agent_id]
        self.parent = tree.parent[agent_id]
        dom = inst.domains[agent_id]
        self.lb, self.ub = dom.lb, dom.ub

        K = cfg.num_particles
        # written in place from here on: every term's program is bound to it
        self.x = agent_stream(cfg.seed, agent_id, 0).uniform(self.lb, self.ub, size=K)
        # incident terms: (evaluate(), neighbor's VALUE buffer, neighbor id, function)
        self.terms = []
        by_id = {f.id: f for f in inst.functions}
        for fid in incident_functions(inst, agent_id):
            f = by_id[fid]
            received = np.empty(K)
            first = f.scope[0] == agent_id
            a, b = (self.x, received) if first else (received, self.x)
            self.terms.append((compile_expr(f.expr, a, b), received, f.scope[first], f))
        self._accumulate = np.subtract if inst.sign < 0 else np.add

        self.rng_update = agent_stream(cfg.seed, agent_id, 1)
        self.rng_cross = agent_stream(cfg.seed, agent_id, 2) if cfg.crossover else None
        self.cross_scratch = CrossoverScratch(1, K) if cfg.crossover else None

        self.v = np.zeros(K)
        self.local_fitness = np.zeros(K)
        self.fitness = np.zeros(K)
        self.p_best_x = np.zeros(K)  # never read before the first best update fills it
        self.p_best_fit = np.full(K, np.inf) if self.is_root else None
        self.g_best_x = 0.0
        self.g_best_fit = np.inf
        self.control = GcpsoControl()
        self.cycle = 0
        self._scratch = (np.empty(K), np.empty(K), *np.empty((3, 1)))  # pso_step's
        self._improved = False

    # -- runtime handlers, in phase order --

    def value_payload(self) -> np.ndarray:
        return self.x

    def handle_values(self, by_sender: dict[int, np.ndarray]) -> None:
        self.local_fitness = lf = np.zeros(len(self.x))
        for evaluate, received, peer, f in self.terms:
            np.copyto(received, by_sender[peer])
            try:
                self._accumulate(lf, evaluate(), out=lf)
            except DivisionByZero:
                raise zero_denominator(f) from None

    def handle_costs(self, by_child: dict[int, np.ndarray]) -> None:
        total = self.local_fitness.copy()
        for child in self.children:
            total += by_child[child]
        if self.is_root:
            total *= 0.5
        self.fitness = total

    def cost_payload(self) -> np.ndarray:
        return self.fitness

    def best_payload(self) -> BestPayload:
        """The root's verdict, which it applies to itself as every receiver does."""
        fit, improved = self.fitness, np.empty(len(self.fitness), dtype=bool)
        _, k, success = best_update(fit, self.p_best_fit, self.g_best_fit, improved)
        best = (k, fit.item(k)) if success else (None, None)
        payload = BestPayload(tuple(np.flatnonzero(improved).tolist()), *best)
        self.handle_best(payload)
        return payload

    def handle_best(self, payload: BestPayload) -> None:
        if payload.improved:
            idx = list(payload.improved)
            self.p_best_x[idx] = self.x[idx]
        if payload.best_index is not None:
            self.control.best_particle = payload.best_index
            self.g_best_x = float(self.x[payload.best_index])
            self.g_best_fit = float(payload.best_fitness)
        self._improved = payload.best_index is not None

    def end_cycle(self) -> None:
        self.cycle += 1
        keep = self._apply_crossover() if self.cfg.crossover else None
        update_control(self.control, self._improved, self.cfg)
        self._variable_update(keep)

    # -- local update steps --

    def _apply_crossover(self) -> np.ndarray:
        """Crossover of this agent's particles; returns the flat indices that
        ``_variable_update`` must leave alone."""
        return crossover_rows(self.x[None], self.v[None], self.local_fitness[None],
                              self.cross_scratch, self.rng_cross.random((1, 3)))

    def _variable_update(self, keep: np.ndarray | None) -> None:
        cfg = self.cfg
        w = inertia_weight(cfg.inertia, self.cycle, cfg.t_max)
        r1, r2 = (float(r) for r in self.rng_update.random(2))
        pso_step(self.x, self.v, self.p_best_x, self.g_best_x, r1 * cfg.c1, r2 * cfg.c2,
                 1.0 - 2.0 * r2, w, cfg, self.control, self.lb, self.ub, keep, self._scratch)


# --- solve ---------------------------------------------------------------------

@dataclass(slots=True)
class TraceRow:
    cycle: int
    best_cost: float       # in the instance's stated objective sign
    best_internal: float   # minimization sign, monotone non-increasing
    assignment: tuple[float, ...]
    stats: CycleStats


@dataclass
class RunTrace:
    objective: str
    num_agents: int
    num_edges: int
    tree_height: int
    rows: list[TraceRow]
    best_assignment: np.ndarray
    best_cost: float
    best_internal: float
    probes: list[tuple[np.ndarray, np.ndarray]] | None = None
    messages: Sequence[Message] | None = None

    @property
    def hops_per_cycle(self) -> int:
        """Logical hop count of one cycle: one exchange plus both tree sweeps."""
        return 1 + 2 * self.tree_height

    def internal_series(self) -> list[float]:
        return [row.best_internal for row in self.rows]

    def display_series(self) -> list[float]:
        return [row.best_cost for row in self.rows]


def _cycle_draws(cfg: SwarmConfig, n: int):
    """Per cycle, the inertia weight, every agent's r1*c1, r2*c2 and walk
    1 - 2*r2 as (n, 1) columns, and its crossover draws a, b, r as an (n, 3)
    array (None without crossover). The streams are drawn ``DRAW_CYCLES``
    cycles at a time into buffers reused from block to block; for PCG64 one
    draw of a block is the stream of one ``random()`` per value per cycle.
    The views are made once per run, and a block's weights have the
    per-cycle bits."""
    cycles = min(DRAW_CYCLES, cfg.t_max)
    draws = np.empty((n, 2 * cycles))
    r1c1, r2c2 = draws[:, 0::2], draws[:, 1::2]
    walk = np.empty((n, cycles))
    columns = [list(a.T[:, :, None]) for a in (r1c1, r2c2, walk)]
    fills = [(agent_stream(cfg.seed, i, 1), row) for i, row in enumerate(draws)]
    if cfg.crossover:
        cross = np.empty((n, 3 * cycles))
        columns.append([cross[:, j:j + 3] for j in range(0, 3 * cycles, 3)])
        fills += [(agent_stream(cfg.seed, i, 2), row) for i, row in enumerate(cross)]
    else:
        columns.append([None] * cycles)
    for first in range(1, cfg.t_max + 1, cycles):
        for rng, row in fills:
            rng.random(out=row)
        np.multiply(2.0, r2c2, out=walk)
        np.subtract(1.0, walk, out=walk)
        r1c1 *= cfg.c1
        r2c2 *= cfg.c2
        block = np.arange(first, min(first + cycles, cfg.t_max + 1))
        weights = np.full(len(block), inertia_weight(cfg.inertia, block, cfg.t_max)).tolist()
        yield from zip(weights, *columns)


def solve(inst: CdcopInstance, cfg: SwarmConfig, tree: PseudoTree | None = None,
          record_probes: bool = False, log_messages: bool = False) -> RunTrace:
    """Run the swarm for ``cfg.t_max`` cycles and return the anytime trace.

    The whole swarm is held as ``(n, K)`` arrays, one row per agent, and a
    cycle is a few array operations; the trace is bit-identical to driving
    one ``SwarmAgent`` per agent through ``SyncRuntime``, and so are the
    message counts, payload sizes and, with ``log_messages``, the message
    log. Those are derived from the tree: a run keeps one BEST payload
    length a cycle, rows of one length share one read-only map of per-agent
    scalars, and the log is a sequence whose messages are made when read
    (``engine.MessageLog``). The random draws are made
    ``DRAW_CYCLES`` cycles at a time into buffers reused from block to
    block, so of what a run holds only the trace grows with ``t_max``.
    Without ``tree`` the pseudo-tree is ``build_bfs(inst)``, rooted at agent
    0; ``tree=build_bfs(inst, r)`` roots it at ``r``. ``record_probes``
    additionally stores, per cycle, the full position matrix that was
    evaluated and the root's fitness vector, for cross-checking against the
    centralized oracle.
    """
    validate_config(cfg)
    if tree is None:
        tree = build_bfs(inst)
    n, K = inst.num_agents, cfg.num_particles
    local_costs = LocalCosts(inst, K)
    schedule = TreeSchedule(tree, K)
    # full-size bounds: the clamp then takes no broadcast column
    lb = np.repeat([[d.lb] for d in inst.domains], K, axis=1)
    ub = np.repeat([[d.ub] for d in inst.domains], K, axis=1)
    x = np.array([agent_stream(cfg.seed, i, 0).uniform(d.lb, d.ub, size=K)
                  for i, d in enumerate(inst.domains)])
    cross_scratch = CrossoverScratch(n, K) if cfg.crossover else None
    scratch = (np.empty((n, K)), np.empty((n, K)), *np.empty((3, n, 1)))  # pso_step's
    improved = np.empty(K, dtype=bool)
    v = np.zeros((n, K))
    p_best_x = np.zeros((n, K))
    p_best_fit = np.full(K, np.inf)
    g_best_x = np.zeros((n, 1))
    g_best_fit = np.inf
    # rebuilt only when the global best moves: rows share them
    best_cost, assignment = inst.to_display(g_best_fit), (0.0,) * n
    ctrl = GcpsoControl()

    rows: list[TraceRow] = []
    probes: list[tuple[np.ndarray, np.ndarray]] | None = [] if record_probes else None
    log = MessageLog(tree, K) if log_messages else None
    for t, (w, r1c1_t, r2c2_t, walk_t, u) in enumerate(_cycle_draws(cfg, n), start=1):
        start = time.perf_counter()
        try:
            local = local_costs(x)
        except DivisionByZero as exc:
            raise DivisionByZero(f"cycle {t}: {exc}") from None
        fit = schedule.convergecast(local)
        if probes is not None:
            probes.append((x.copy(), fit.copy()))

        num_improved, k, success = best_update(fit, p_best_fit, g_best_fit, improved)
        if num_improved:
            np.copyto(p_best_x, x, where=improved)
        if success:
            g_best_fit = fit.item(k)
            g_best_x = x[:, k:k + 1].copy()
            best_cost, assignment = inst.to_display(g_best_fit), tuple(g_best_x[:, 0].tolist())
            ctrl.best_particle = k

        keep = None if u is None else crossover_rows(x, v, local, cross_scratch, u)
        update_control(ctrl, success, cfg)
        pso_step(x, v, p_best_x, g_best_x, r1c1_t, r2c2_t, walk_t, w, cfg, ctrl, lb, ub, keep,
                 scratch)

        best_len = best_length(num_improved, success)
        stats = schedule.cycle_stats(t, best_len)
        if log is not None:
            log.record(t, best_len)
        stats.duration_s = time.perf_counter() - start
        rows.append(TraceRow(t, best_cost, g_best_fit, assignment, stats))

    return RunTrace(
        objective=inst.objective,
        num_agents=n,
        num_edges=inst.num_edges,
        tree_height=tree.height,
        rows=rows,
        best_assignment=g_best_x[:, 0].copy(),
        best_cost=inst.to_display(g_best_fit),
        best_internal=g_best_fit,
        probes=probes,
        messages=log,
    )
