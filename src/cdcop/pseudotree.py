"""BFS pseudo-tree over the constraint graph.

The tree orders agents for cost aggregation (leaf-to-root) and best-particle
broadcast (root-to-leaf). Non-tree constraint edges stay around as plain
neighbor links, used only for position exchange. The tree is the output of
one deterministic walk, ``model.breadth_first``: it stores the parent and
depth the walk gives each agent, and derives children and height from them.
"""

from dataclasses import dataclass
from functools import cached_property

from .model import CdcopInstance, breadth_first, neighbor_table

__all__ = ["PseudoTree", "DisconnectedGraphError", "build_bfs", "validate_pseudo_tree", "tree_edge_dump"]


class DisconnectedGraphError(ValueError):
    """BFS failed to reach every agent."""


@dataclass(frozen=True)
class PseudoTree:
    """Stored: the ``root``, each agent's ``parent`` (None at the root) and
    ``depth`` from the walk, and its constraint-graph ``neighbors``. Derived:
    ``children``, ascending, built from ``parent`` once per tree, and
    ``height``, the largest depth."""

    root: int
    parent: tuple[int | None, ...]
    neighbors: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]

    @property
    def num_agents(self) -> int:
        return len(self.parent)

    @property
    def height(self) -> int:
        return max(self.depth)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.num_agents)]
        for v, p in enumerate(self.parent):
            if p is not None:
                out[p].append(v)
        return tuple(map(tuple, out))

    def levels(self) -> list[list[int]]:
        """Agents grouped by depth, ascending id within a level."""
        out: list[list[int]] = [[] for _ in range(self.height + 1)]
        for agent in range(self.num_agents):
            out[self.depth[agent]].append(agent)
        return out


def build_bfs(inst: CdcopInstance, root: int = 0) -> PseudoTree:
    """Breadth-first spanning tree of the constraint graph from ``root``."""
    n = inst.num_agents
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} agents")
    neighbors = neighbor_table(n, (f.scope for f in inst.functions))
    parent, depth = breadth_first(neighbors, root)
    missing = [a for a, d in enumerate(depth) if d < 0]
    if missing:
        raise DisconnectedGraphError(f"agents {missing} unreachable from root {root}")
    return PseudoTree(root, parent, neighbors, depth)


def validate_pseudo_tree(tree: PseudoTree, inst: CdcopInstance) -> list[str]:
    """Structural checks; returns violations (empty = valid). No check walks
    the parent chains: only the root lacks a parent, and depth rises by one
    from parent to child, so no chain comes back round to where it began (a
    cycle), and every chain climbs to the root."""
    out: list[str] = []
    n = tree.num_agents
    if n != inst.num_agents:
        out.append(f"tree covers {n} agents, instance has {inst.num_agents}")
        return out

    # shapes and ranges first: every check below indexes by agent
    out += [f"{name} has {len(table)} entries for {n} agents" for name, table in
            (("depth", tree.depth), ("neighbors", tree.neighbors)) if len(table) != n]
    if not 0 <= tree.root < n:
        out.append(f"root {tree.root} is not an agent index")
    out += [f"agent {v} has parent {p}, not an agent index"
            for v, p in enumerate(tree.parent) if p is not None and not 0 <= p < n]
    if out:
        return out

    if tree.parent[tree.root] is not None:
        out.append(f"root {tree.root} has a parent")
    for v in range(n):
        if v != tree.root and tree.parent[v] is None:
            out.append(f"non-root agent {v} has no parent")

    # neighbor sets must mirror the constraint graph, children must be neighbors
    expected = neighbor_table(n, (f.scope for f in inst.functions))
    for v in range(n):
        if tuple(tree.neighbors[v]) != expected[v]:
            out.append(f"neighbor set of agent {v} does not match the constraint graph")
        for c in tree.children[v]:
            if c not in tree.neighbors[v]:
                out.append(f"child {c} of agent {v} is not a constraint-graph neighbor")

    # depth bookkeeping, which also makes the parents a tree rooted at the root
    for v in range(n):
        p = tree.parent[v]
        want = 0 if p is None else tree.depth[p] + 1
        if tree.depth[v] != want:
            out.append(f"agent {v} depth {tree.depth[v]} != {want}")
    return out


def tree_edge_dump(tree: PseudoTree, inst: CdcopInstance) -> list[tuple[int, int, str]]:
    """Constraint-graph edges tagged ``tree`` or ``non-tree`` (debug aid)."""
    tree_edges = {tuple(sorted((v, tree.parent[v]))) for v in range(tree.num_agents) if tree.parent[v] is not None}
    out = []
    for u, v in sorted(set(inst.edges())):
        tag = "tree" if (u, v) in tree_edges else "non-tree"
        out.append((u, v, tag))
    return out
