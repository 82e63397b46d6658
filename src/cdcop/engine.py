"""Array forms of the runtime's cycle phases, for ``swarm.solve``.

``SwarmAgent`` handlers driven by ``SyncRuntime`` are the executable
specification of a cycle. The two classes here compute the same numbers for
every agent at once, in the same floating-point order, so a fused run is
bit-identical to the message-passing one:

* :class:`LocalCosts` evaluates each constraint once per cycle (the agents
  evaluate it at both endpoints), in place, and sums every agent's incident
  values in ascending function id, starting from +0.0, as ``handle_values``
  does.
* :class:`TreeSchedule` adds children into parents level by level, deepest
  first and in child order, halves the root last, and derives the message
  counts, payload sizes and message log from the tree instead of sending.
"""

import numpy as np

from .expressions import DivisionByZero, compile_skeleton, eval_expr
from .model import CdcopInstance, CostFunction, incident_functions
from .pseudotree import PseudoTree
from .runtime import BEST, COST, VALUE, CycleStats, Message

__all__ = ["LocalCosts", "TreeSchedule", "zero_denominator"]

# elements (edges x particles) per block: keeps each block's (edges, K)
# operands in cache; er n=50 at K=200 ran fastest near this size
BLOCK_ELEMENTS = 2 ** 14


def _constant_operand(column: np.ndarray, K: int):
    """A block's per-edge constant as a ufunc operand: a Python float when
    every edge holds the same bits (-0.0 and 0.0 stay apart), else a full
    ``(edges, K)`` array, so no call broadcasts an ``(edges, 1)`` column."""
    if np.all(column.view(np.int64) == column[:1].view(np.int64)):
        return float(column[0])
    return np.repeat(column[:, None], K, axis=1)


def zero_denominator(f: CostFunction) -> DivisionByZero:
    """The error for a zero denominator met while evaluating ``f``."""
    return DivisionByZero(f"zero denominator in function {f.id}, scope {f.scope}")


class LocalCosts:
    """Every agent's local fitness from an ``(n, K)`` position matrix.

    Edges are grouped by expression skeleton and evaluated in blocks of
    about ``BLOCK_ELEMENTS`` elements. Every operand of a block's ufunc calls
    is full size: its constants are built once as ``(edges, K)`` arrays, or
    passed as Python floats where the whole block shares one. Both endpoints
    of every edge are gathered once per call, and each block writes its
    values in place into its rows of the value buffer, one row per function.

    Each agent's sum starts at +0.0 and adds, or for maximization subtracts,
    its incident values in ascending function id, as ``handle_values`` does.
    The sums run over the agents in descending degree, so the agents that
    take their j-th value are a prefix of that order and no row is padded;
    one gather puts them back in agent order. The values the sums add are
    gathered with one call too, the j-th values of all agents into one
    contiguous block of rows. All buffers are allocated once: a call
    allocates no array, and its result is overwritten by the next call.
    """

    def __init__(self, inst: CdcopInstance, num_particles: int):
        K = num_particles
        groups: dict = {}
        for f in inst.functions:
            fn, consts, num_temps = compile_skeleton(f.expr)
            groups.setdefault(fn, (num_temps, []))[1].append((f, consts))

        num_edges = inst.num_edges
        block_edges = max(1, BLOCK_ELEMENTS // K)
        self.values = np.empty((num_edges, K))
        # edge e's endpoint positions are ends[0, e] (slot x0) and ends[1, e] (slot x1)
        self._scope = np.empty((2, num_edges), dtype=np.intp)
        self._ends = np.empty((2, num_edges, K))
        pool = np.empty((max((t for t, _ in groups.values()), default=0),
                         min(block_edges, num_edges), K))
        row_of: dict[int, int] = {}  # function id -> row of the value buffer
        # (skeleton, slot-0 positions, slot-1 positions, values, temps, constants, functions)
        self.blocks = []
        for fn, (num_temps, members) in groups.items():
            for lo in range(0, len(members), block_edges):
                block = members[lo:lo + block_edges]
                rows = slice(len(row_of), len(row_of) + len(block))
                for f, _ in block:
                    row_of[f.id] = len(row_of)
                self._scope[:, rows] = np.array([f.scope for f, _ in block], dtype=np.intp).T
                consts = np.array([c for _, c in block], dtype=float).reshape(len(block), -1)
                self.blocks.append((fn, self._ends[0, rows], self._ends[1, rows], self.values[rows],
                                    [temp[:len(block)] for temp in pool[:num_temps]],
                                    [_constant_operand(c, K) for c in consts.T],
                                    [f for f, _ in block]))

        incident = [[row_of[fid] for fid in incident_functions(inst, agent)]
                    for agent in range(inst.num_agents)]
        # agents by descending degree (stable), and each agent's place in that order
        order = sorted(range(inst.num_agents), key=lambda agent: -len(incident[agent]))
        self._place = np.argsort(order)
        width = len(incident[order[0]]) if order else 0
        self._accumulate = np.subtract if inst.sign < 0 else np.add
        # rows of agents with no incident function stay +0.0 from here on
        self._sorted = np.zeros((inst.num_agents, K))
        self._local = np.empty((inst.num_agents, K))
        # column j: the j-th incident value of every agent that has one, in that
        # order; all columns are gathered at once, each into its own block of
        # rows of ``_terms``, and column j is added into the leading rows of
        # ``_sorted``, column 0 onto +0.0 (a 0-d array: numpy converts a float
        # operand on every call) and every later one onto the sums
        columns = [[incident[agent][j] for agent in order if len(incident[agent]) > j]
                   for j in range(width)]
        self._gather = np.array([row for column in columns for row in column], dtype=np.intp)
        self._terms = np.empty((len(self._gather), K))
        self.columns = []
        start = 0
        zero = np.zeros(())
        for column in columns:
            total = self._sorted[:len(column)]
            self.columns.append((total if self.columns else zero,
                                 self._terms[start:start + len(column)], total))
            start += len(column)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Every agent's local fitness at positions ``x``.

        A zero denominator raises DivisionByZero naming the first function
        of the failing block that meets one, found with ``eval_expr``.
        """
        # mode="clip" writes straight into ``out``; the default buffers it
        x.take(self._scope, axis=0, out=self._ends, mode="clip")
        try:
            for fn, first, second, values, temps, consts, functions in self.blocks:
                fn(first, second, values, temps, *consts)
        except DivisionByZero:
            for f in functions:  # the failing block's
                try:
                    eval_expr(f.expr, x[f.scope[0]], x[f.scope[1]])
                except DivisionByZero:
                    raise zero_denominator(f) from None
            raise
        self.values.take(self._gather, axis=0, out=self._terms, mode="clip")
        accumulate = self._accumulate
        for start, term, total in self.columns:
            accumulate(start, term, out=total)
        self._sorted.take(self._place, axis=0, out=self._local, mode="clip")
        return self._local


class TreeSchedule:
    """Convergecast order and per-cycle message accounting of one pseudo-tree.

    Per cycle an agent sends K scalars to each neighbor (VALUE) and to its
    parent (COST), and the root's BEST verdict of ``best_len`` scalars to
    each child, so every count and size follows from the tree.
    """

    def __init__(self, tree: PseudoTree, num_particles: int):
        n = tree.num_agents
        K = num_particles
        self.root = tree.root
        levels = tree.levels()
        # one buffer, with the row views each child adds into its parent's, in
        # the order the runtime aggregates: deepest level first, child order
        self._total = np.empty((n, K))
        self._adds = [(self._total[p], self._total[c])
                      for level in reversed(levels) for p in level for c in tree.children[p]]

        self.value_count = sum(len(nb) for nb in tree.neighbors)
        self.cost_count = self.best_count = n - 1
        self.senders = [a for a in range(n) if tree.neighbors[a]]  # first-send order
        self.fixed_sent = [K * (len(tree.neighbors[a]) + (tree.parent[a] is not None))
                           for a in self.senders]
        self.num_children = [len(tree.children[a]) for a in self.senders]
        self.fixed_total = K * (self.value_count + self.cost_count)
        # every route in the order SyncRuntime sends it
        self.routes = [(VALUE, a, peer) for a in range(n) for peer in tree.neighbors[a]]
        self.routes += [(COST, a, tree.parent[a]) for level in reversed(levels) for a in level
                        if tree.parent[a] is not None]
        self.routes += [(BEST, a, child) for level in levels for a in level
                        for child in tree.children[a]]
        self.num_particles = K
        self._sent: dict[int, dict[int, int]] = {}  # best_len -> sent_scalars_by_agent

    def convergecast(self, local: np.ndarray) -> np.ndarray:
        """The root's aggregated fitness: the swarm's fitness per particle.

        The returned row is overwritten by the next call.
        """
        total = self._total
        total[...] = local
        for parent, child in self._adds:
            parent += child
        fitness = total[self.root]
        fitness *= 0.5
        return fitness

    def cycle_stats(self, cycle: int, best_len: int) -> CycleStats:
        """One cycle's counts. ``sent_scalars_by_agent`` is built once per
        distinct ``best_len`` and shared by every row with that length, so
        callers must treat it as read-only."""
        sent = self._sent.get(best_len)
        if sent is None:
            sent = self._sent[best_len] = {
                agent: fixed + kids * best_len
                for agent, fixed, kids in zip(self.senders, self.fixed_sent, self.num_children)}
        return CycleStats(cycle, self.value_count, self.cost_count, self.best_count,
                          self.fixed_total + self.best_count * best_len, sent)

    def messages(self, cycle: int, best_len: int) -> list[Message]:
        K = self.num_particles
        return [Message(cycle, kind, sender, receiver, best_len if kind == BEST else K)
                for kind, sender, receiver in self.routes]
