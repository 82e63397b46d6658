"""BFS pseudo-tree over the constraint graph.

The tree orders agents for cost aggregation (leaf-to-root) and best-particle
broadcast (root-to-leaf). Non-tree constraint edges stay around as plain
neighbor links, used only for position exchange. Construction is
deterministic: the BFS queue is FIFO and a node's unvisited neighbors are
enqueued in ascending agent id.
"""

from dataclasses import dataclass

from .model import CdcopInstance, neighbor_table

__all__ = ["PseudoTree", "DisconnectedGraphError", "build_bfs", "validate_pseudo_tree", "tree_edge_dump"]


class DisconnectedGraphError(ValueError):
    """BFS failed to reach every agent."""


@dataclass(frozen=True)
class PseudoTree:
    root: int
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    neighbors: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    height: int

    @property
    def num_agents(self) -> int:
        return len(self.parent)

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
    parent: list[int | None] = [None] * n
    depth = [0] * n
    visited = [False] * n
    visited[root] = True
    queue = [root]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in neighbors[u]:
            if not visited[v]:
                visited[v] = True
                parent[v] = u
                depth[v] = depth[u] + 1
                queue.append(v)
    if not all(visited):
        missing = [i for i in range(n) if not visited[i]]
        raise DisconnectedGraphError(f"agents {missing} unreachable from root {root}")
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] is not None:
            children[parent[v]].append(v)
    return PseudoTree(
        root=root,
        parent=tuple(parent),
        children=tuple(tuple(sorted(c)) for c in children),
        neighbors=neighbors,
        depth=tuple(depth),
        height=max(depth),
    )


def validate_pseudo_tree(tree: PseudoTree, inst: CdcopInstance) -> list[str]:
    """Structural checks; returns violations (empty = valid)."""
    out: list[str] = []
    n = tree.num_agents
    if n != inst.num_agents:
        out.append(f"tree covers {n} agents, instance has {inst.num_agents}")
        return out
    if tree.parent[tree.root] is not None:
        out.append(f"root {tree.root} has a parent")
    for v in range(n):
        if v != tree.root and tree.parent[v] is None:
            out.append(f"non-root agent {v} has no parent")

    # children/parent consistency
    for p in range(n):
        for c in tree.children[p]:
            if tree.parent[c] != p:
                out.append(f"agent {c} listed as child of {p} but has parent {tree.parent[c]}")
    for v in range(n):
        p = tree.parent[v]
        if p is not None and v not in tree.children[p]:
            out.append(f"agent {v} has parent {p} but is missing from its children")

    # acyclic: walking parents must reach the root within n steps
    for v in range(n):
        u, steps = v, 0
        while tree.parent[u] is not None and steps <= n:
            u = tree.parent[u]
            steps += 1
        if u != tree.root:
            out.append(f"parent chain from agent {v} does not reach the root")

    # neighbor sets must mirror the constraint graph, children must be neighbors
    expected = neighbor_table(n, (f.scope for f in inst.functions))
    for v in range(n):
        if tuple(tree.neighbors[v]) != expected[v]:
            out.append(f"neighbor set of agent {v} does not match the constraint graph")
        for c in tree.children[v]:
            if c not in tree.neighbors[v]:
                out.append(f"child {c} of agent {v} is not a constraint-graph neighbor")

    # depth/height bookkeeping
    for v in range(n):
        p = tree.parent[v]
        want = 0 if p is None else tree.depth[p] + 1
        if tree.depth[v] != want:
            out.append(f"agent {v} depth {tree.depth[v]} != {want}")
    if tree.height != max(tree.depth):
        out.append(f"height {tree.height} != max depth {max(tree.depth)}")
    return out


def tree_edge_dump(tree: PseudoTree, inst: CdcopInstance) -> list[tuple[int, int, str]]:
    """Constraint-graph edges tagged ``tree`` or ``non-tree`` (debug aid)."""
    tree_edges = {tuple(sorted((v, tree.parent[v]))) for v in range(tree.num_agents) if tree.parent[v] is not None}
    out = []
    for u, v in sorted(set(inst.edges())):
        tag = "tree" if (u, v) in tree_edges else "non-tree"
        out.append((u, v, tag))
    return out
