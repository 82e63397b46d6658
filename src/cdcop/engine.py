"""Array forms of the runtime's cycle phases, for ``swarm.solve``.

``SwarmAgent`` handlers driven by ``SyncRuntime`` are the executable
specification of a cycle. The two classes here compute the same numbers for
every agent at once, in the same floating-point order, so a fused run is
bit-identical to the message-passing one:

* :class:`LocalCosts` evaluates each constraint once per cycle (the agents
  evaluate it at both endpoints). One program per shape is assembled, and
  constraints with equal programs share blocks, each bound to its buffers
  once. A cycle runs the blocks one by one, each gathering its own edges'
  endpoints just before its calls, into one buffer sized for the largest
  block. It sums every agent's incident values in ``inst.incident`` order,
  starting from +0.0, as ``handle_values`` does, and gathers the values
  those sums read a chunk of columns at a time into one reused buffer.
* :class:`TreeSchedule` adds children into parents along the COST routes of
  ``runtime.Traffic``, deepest level first and in child order, and halves
  the root last. Nothing here counts messages: ``runtime.Traffic`` does.
"""

import numpy as np

from .expressions import DivisionByZero, assemble, bind, eval_expr, fold
from .model import CdcopInstance, zero_denominator
from .runtime import COST, Traffic

__all__ = ["LocalCosts", "TreeSchedule"]

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


class LocalCosts:
    """Every agent's local fitness from an ``(n, K)`` position matrix.

    Each distinct shape of the edges' folded trees is assembled once. Edges
    are grouped by program and evaluated in blocks of about
    ``BLOCK_ELEMENTS`` elements.
    Each block's program is bound once to its registers: its block's
    endpoints, its rows of the value buffer, shared temps, and its
    constants. Every operand is full size: the constants are built once as
    ``(edges, K)`` arrays, or passed as Python floats where the whole block
    shares one. A call runs the blocks one by one: each gathers both
    endpoints of its edges into one contiguous ``(2, edges, K)`` buffer
    sized for the largest block, then runs its bound calls, which write each
    function's values in place into its row of the value buffer.

    Each agent's sum starts at +0.0 and adds, or for maximization subtracts,
    its incident values in ``inst.incident`` order, as ``handle_values`` does.
    The sums run over the agents in descending degree, so the agents that
    take their j-th value are a prefix of that order and no row is padded;
    one gather puts them back in agent order. Column j holds the j-th values
    of those agents. The columns are gathered a chunk at a time into one
    reused buffer, right before the adds that read them: a chunk holds
    consecutive columns of at most one block's rows in all, or one column
    that is longer. All buffers are allocated once: a call allocates no
    array, and its result is overwritten by the next call.
    """

    def __init__(self, inst: CdcopInstance, num_particles: int):
        K = num_particles
        programs: dict = {}  # each shape's (program, num_temps), assembled once
        groups: dict = {}
        for f in inst.functions:
            shape, consts, _, _ = fold(f.expr)
            program, num_temps = programs.get(shape) or programs.setdefault(shape, assemble(shape))
            groups.setdefault(program, (num_temps, []))[1].append((f, consts))

        num_edges = inst.num_edges
        block_edges = max(1, BLOCK_ELEMENTS // K)
        widest = min(block_edges, num_edges)
        self.values = np.empty((num_edges, K))
        # a block of m edges gathers into the leading 2*m*K elements, as one
        # contiguous (2, m, K) array: a take into a strided view allocates
        ends = np.empty(2 * widest * K)
        pool = np.empty((max((t for t, _ in groups.values()), default=0), widest, K))
        row_of: dict[int, int] = {}  # function id -> row of the value buffer
        # each block's (2, edges) endpoint agents, endpoint buffer (x0's rows
        # then x1's) and program bound to its registers
        self.blocks = []
        for program, (num_temps, members) in groups.items():
            for lo in range(0, len(members), block_edges):
                block = members[lo:lo + block_edges]
                rows = slice(len(row_of), len(row_of) + len(block))
                row_of.update((f.id, row) for row, (f, _) in enumerate(block, rows.start))
                scope = np.array([f.scope for f, _ in block], dtype=np.intp).T.copy()
                block_ends = ends[:2 * len(block) * K].reshape(2, len(block), K)
                consts = np.array([c for _, c in block], dtype=float).reshape(len(block), -1)
                self.blocks.append((scope, block_ends, bind(program, [
                    block_ends[0], block_ends[1], self.values[rows],
                    *(temp[:len(block)] for temp in pool[:num_temps]),
                    *(_constant_operand(c, K) for c in consts.T)])))

        self._incident = inst.incident
        incident = [[row_of[f.id] for f in functions] for functions in inst.incident]
        # agents by descending degree (stable), and each agent's place in that order
        order = sorted(range(inst.num_agents), key=lambda agent: -len(incident[agent]))
        self._place = np.argsort(order)
        self._accumulate = np.subtract if inst.sign < 0 else np.add
        # rows of agents with no incident function stay +0.0 from here on
        self._sorted = np.zeros((inst.num_agents, K))
        self._local = np.empty((inst.num_agents, K))
        columns = [[incident[agent][j] for agent in order if len(incident[agent]) > j]
                   for j in range(max(map(len, incident), default=0))]
        chunks = []  # runs of consecutive columns
        for column in columns:
            if not chunks or sum(map(len, chunks[-1])) + len(column) > block_edges:
                chunks.append([])
            chunks[-1].append(column)
        terms = np.empty((max((sum(map(len, chunk)) for chunk in chunks), default=0), K))
        # each chunk's value rows, its leading rows of ``terms`` they are
        # gathered into, and its columns' adds: column j is added into the
        # leading rows of ``_sorted``, column 0 onto +0.0 (a 0-d array: numpy
        # converts a float operand on every call) and every later one onto the sums
        self.chunks = []
        zero = np.zeros(())
        for chunk in chunks:
            gather = np.array([row for column in chunk for row in column], dtype=np.intp)
            adds, offset = [], 0
            for column in chunk:
                total = self._sorted[:len(column)]
                adds.append((total if self.chunks or adds else zero,
                             terms[offset:offset + len(column)], total))
                offset += len(column)
            self.chunks.append((gather, terms[:len(gather)], adds))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Every agent's local fitness at positions ``x``.

        A zero denominator raises DivisionByZero naming the function that
        the agents would meet first, found with ``eval_expr``.
        """
        try:
            for scope, ends, calls in self.blocks:
                # mode="clip" writes straight into ``out``; the default buffers it
                x.take(scope, axis=0, out=ends, mode="clip")
                for fn, args in calls:
                    fn(*args)
        except DivisionByZero:
            # the agents meet their functions agent by agent, in table order
            for f in (g for functions in self._incident for g in functions):
                try:
                    eval_expr(f.expr, x[f.scope[0]], x[f.scope[1]])
                except DivisionByZero:
                    raise zero_denominator(f) from None
            raise
        accumulate = self._accumulate
        for gather, terms, adds in self.chunks:
            self.values.take(gather, axis=0, out=terms, mode="clip")
            for start, term, total in adds:
                accumulate(start, term, out=total)
        self._sorted.take(self._place, axis=0, out=self._local, mode="clip")
        return self._local


class TreeSchedule:
    """The COST convergecast along a ``runtime.Traffic``'s COST routes: deepest
    level first and ascending id within one, so each parent adds its children
    in ascending id, as ``handle_costs`` does, once they have added theirs."""

    def __init__(self, traffic: Traffic):
        tree = traffic.tree
        self.root = tree.root
        self._total = np.empty((tree.num_agents, traffic.num_particles))
        self._adds = [(self._total[parent], self._total[child])
                      for kind, child, parent in traffic.routes if kind == COST]

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
