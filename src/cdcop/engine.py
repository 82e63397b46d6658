"""Array forms of the runtime's cycle phases, for ``swarm.solve``.

``SwarmAgent`` handlers driven by ``SyncRuntime`` are the executable
specification of a cycle. The two classes here compute the same numbers for
every agent at once, in the same floating-point order, so a fused run is
bit-identical to the message-passing one:

* :class:`LocalCosts` evaluates each constraint once per cycle (the agents
  evaluate it at both endpoints) and sums every agent's incident values in
  ascending function id, starting from +0.0, as ``handle_values`` does.
* :class:`TreeSchedule` adds children into parents level by level, deepest
  first and in child order, halves the root last, and derives the message
  counts, payload sizes and message log from the tree instead of sending.
"""

import numpy as np

from .expressions import compile_skeleton
from .model import CdcopInstance, incident_functions
from .pseudotree import PseudoTree
from .runtime import BEST, COST, VALUE, CycleStats, Message

__all__ = ["LocalCosts", "TreeSchedule"]

# edges per numpy call: keeps each block's (edges, K) temporaries in cache
BLOCK_EDGES = 32


class LocalCosts:
    """Every agent's local fitness from an ``(n, K)`` position matrix.

    Edges are grouped by expression skeleton and evaluated in blocks, with
    each block's constants as ``(edges, 1)`` columns. Row ``e`` of the value
    buffer holds one function's values, negated for maximization instances;
    the extra last row stays +0.0 and pads agents with fewer incident
    functions than the largest degree. A running sum that starts at +0.0 is
    never -0.0, so adding the padding changes no bit.
    """

    def __init__(self, inst: CdcopInstance, num_particles: int):
        groups: dict = {}
        for f in inst.functions:
            fn, consts = compile_skeleton(f.expr)
            groups.setdefault(fn, []).append((f, consts))

        row_of: dict[int, int] = {}  # function id -> row of the value buffer
        self.blocks = []  # (skeleton, slot-0 agents, slot-1 agents, constant columns, rows)
        for fn, members in groups.items():
            for lo in range(0, len(members), BLOCK_EDGES):
                block = members[lo:lo + BLOCK_EDGES]
                rows = slice(len(row_of), len(row_of) + len(block))
                for f, _ in block:
                    row_of[f.id] = len(row_of)
                scope = np.array([f.scope for f, _ in block], dtype=np.intp)
                consts = np.array([c for _, c in block], dtype=float).reshape(len(block), -1)
                self.blocks.append((fn, scope[:, 0], scope[:, 1],
                                    [consts[:, j:j + 1] for j in range(consts.shape[1])], rows))

        num_edges = len(row_of)
        self.values = np.zeros((num_edges + 1, num_particles))
        self.negated = self.values[:num_edges] if inst.sign < 0 else None  # maximization
        incident = [[row_of[fid] for fid in incident_functions(inst, agent)]
                    for agent in range(inst.num_agents)]
        width = max(map(len, incident), default=0)
        # column j: every agent's j-th incident function, or the +0.0 row
        self.columns = np.array([rows + [num_edges] * (width - len(rows)) for rows in incident],
                                dtype=np.intp).reshape(inst.num_agents, width).T.copy()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        values = self.values
        for fn, first, second, consts, rows in self.blocks:
            values[rows] = fn(x[first], x[second], *consts)
        if self.negated is not None:
            np.negative(self.negated, out=self.negated)
        local = np.zeros_like(x)
        for column in self.columns:
            local += values[column]
        return local


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

    def convergecast(self, local: np.ndarray) -> np.ndarray:
        """The root's aggregated fitness: the swarm's fitness per particle.

        The returned row is overwritten by the next call.
        """
        total = self._total
        np.copyto(total, local)
        for parent, child in self._adds:
            parent += child
        fitness = total[self.root]
        fitness *= 0.5
        return fitness

    def cycle_stats(self, cycle: int, best_len: int) -> CycleStats:
        sent = [fixed + kids * best_len for fixed, kids in zip(self.fixed_sent, self.num_children)]
        return CycleStats(cycle, self.value_count, self.cost_count, self.best_count,
                          self.fixed_total + self.best_count * best_len,
                          dict(zip(self.senders, sent)))

    def messages(self, cycle: int, best_len: int) -> list[Message]:
        K = self.num_particles
        return [Message(cycle, kind, sender, receiver, best_len if kind == BEST else K)
                for kind, sender, receiver in self.routes]
