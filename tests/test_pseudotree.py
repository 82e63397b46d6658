import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from cdcop import build_bfs, tree_edge_dump, validate_pseudo_tree
from cdcop.benchmarks import gen_erdos_renyi, gen_random_tree
from cdcop.model import breadth_first, neighbor_table, unreachable
from cdcop.pseudotree import DisconnectedGraphError

from conftest import make_instance


def test_kite_tree(kite_instance):
    tree = build_bfs(kite_instance, root=0)
    assert tree.parent == (None, 0, 0, 0)
    assert tree.children[0] == (1, 2, 3)
    assert tree.height == 1
    assert sorted(tree_edge_dump(tree, kite_instance)) == [
        (0, 1, "tree"), (0, 2, "tree"), (0, 3, "tree"), (2, 3, "non-tree")]


def test_path_graph(path3_instance):
    tree = build_bfs(path3_instance, root=0)
    assert tree.height == 2
    assert tree.children[0] == (1,)
    assert tree.children[1] == (2,)


def test_star_graph():
    star = make_instance(6, [((0, i), "(* x0 x1)") for i in range(1, 6)])
    tree = build_bfs(star, root=0)
    assert tree.height == 1
    assert len(tree.children[0]) == 5


def test_single_agent_tree():
    from cdcop import CdcopInstance, Domain
    inst = CdcopInstance(1, (Domain(0.0, 1.0),), (), "min")
    tree = build_bfs(inst, 0)
    assert tree.height == 0
    assert tree.children[0] == ()


def test_root_override(kite_instance):
    tree = build_bfs(kite_instance, root=1)
    assert tree.root == 1
    assert tree.parent[0] == 1
    assert tree.height == 2  # 1 -> 0 -> {2, 3}


def _dfs_depth(tree, node):
    if not tree.children[node]:
        return 0
    return 1 + max(_dfs_depth(tree, c) for c in tree.children[node])


@pytest.mark.parametrize("seed", range(5))
def test_height_matches_recursive_depth(seed):
    inst = gen_random_tree(n=50, seed=seed)
    tree = build_bfs(inst, 0)
    assert tree.height == _dfs_depth(tree, tree.root)


@pytest.mark.parametrize("seed", range(5))
def test_bfs_output_valid_and_child_count(seed):
    inst = gen_erdos_renyi(n=20, p=0.25, seed=seed)
    tree = build_bfs(inst, 0)
    assert validate_pseudo_tree(tree, inst) == []
    assert sum(len(c) for c in tree.children) == inst.num_agents - 1


def test_determinism(kite_instance):
    a = build_bfs(kite_instance, 0)
    b = build_bfs(kite_instance, 0)
    assert a == b


def test_disconnected_raises():
    from cdcop import CdcopInstance, CostFunction, Domain, parse_expr
    inst = CdcopInstance(
        3, tuple(Domain(0, 1) for _ in range(3)),
        (CostFunction(0, (0, 1), parse_expr("(* x0 x1)")),), "min")
    with pytest.raises(DisconnectedGraphError):
        build_bfs(inst, 0)


def test_validate_catches_parent_cycle(kite_instance):
    tree = build_bfs(kite_instance, 0)
    broken = dataclasses.replace(tree, parent=(1, 0, 0, 0))
    assert any("root" in v or "chain" in v for v in validate_pseudo_tree(broken, kite_instance))


def test_validate_catches_non_neighbor_child(kite_instance):
    tree = build_bfs(kite_instance, 0)
    # agent 1's only neighbor is 0; claim it parents agent 3
    broken = dataclasses.replace(tree, parent=(None, 0, 0, 1))
    assert any("not a constraint-graph neighbor" in v
               for v in validate_pseudo_tree(broken, kite_instance))


@pytest.mark.parametrize("fields, violation", [
    (lambda tree: {"root": 9}, "root 9 is not an agent index"),
    (lambda tree: {"parent": (None, 7, 0, 0, 0, 0)}, "agent 1 has parent 7, not an agent index"),
    (lambda tree: {"depth": tree.depth[:-1]}, "depth has 5 entries for 6 agents"),
    (lambda tree: {"neighbors": tree.neighbors[:3]}, "neighbors has 3 entries for 6 agents"),
], ids=["root", "parent", "depth", "neighbors"])
def test_validate_reports_a_malformed_tree(fields, violation):
    """A root, parent or table that does not fit the agents is reported, not
    met by an IndexError."""
    inst = gen_erdos_renyi(n=6, p=0.5, seed=1)
    tree = build_bfs(inst, 0)
    broken = dataclasses.replace(tree, **fields(tree))
    assert validate_pseudo_tree(broken, inst) == [violation]


def test_ties_go_to_the_lowest_id():
    """On the square 0-1, 0-2, 1-3, 2-3 agent 3 is reached first from 1: the
    walk is FIFO and queues neighbours in ascending id."""
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert breadth_first(neighbor_table(4, edges), 0) == ((None, 0, 0, 1), (0, 1, 1, 2))
    tree = build_bfs(make_instance(4, [(e, "(* x0 x1)") for e in edges]), 0)
    assert tree.parent[3] == 1
    assert tree.children == ((1, 2), (3,), (), ())
    assert tree.children is tree.children  # derived once per tree


@st.composite
def _graphs(draw):
    """A number of agents, 1 to 12, and a random set of edges among them."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []


def _components(n, edges):
    """Each agent's component label, by union-find."""
    label = list(range(n))

    def find(a):
        while label[a] != a:
            a = label[a]
        return a

    for u, v in edges:
        label[find(u)] = find(v)
    return [find(a) for a in range(n)]


def _distances(n, edges, root):
    """Hop distances from ``root``, by relaxing every edge n times."""
    dist = [math.inf] * n
    dist[root] = 0
    for _ in range(n):
        for u, v in edges:
            dist[u] = min(dist[u], dist[v] + 1)
            dist[v] = min(dist[v], dist[u] + 1)
    return dist


@given(_graphs())
@settings(max_examples=200, deadline=None)
def test_one_walk_gives_reachability_and_the_tree(graph):
    n, edges = graph
    component = _components(n, edges)
    assert unreachable(n, edges) == [a for a in range(n) if component[a] != component[0]]
    inst = make_instance(n, [(e, "(* x0 x1)") for e in edges])
    for root in range(n):
        missing = [a for a in range(n) if component[a] != component[root]]
        if missing:
            with pytest.raises(DisconnectedGraphError) as raised:
                build_bfs(inst, root)
            assert str(raised.value) == f"agents {missing} unreachable from root {root}"
            continue
        tree = build_bfs(inst, root)
        assert list(tree.depth) == _distances(n, edges, root)
        for v, p in enumerate(tree.parent):
            assert (p is None) == (v == root)
            assert p is None or p in tree.neighbors[v] and tree.depth[p] == tree.depth[v] - 1
        assert tree.children == tuple(tuple(v for v in range(n) if tree.parent[v] == p)
                                      for p in range(n))
        assert tree.height == max(tree.depth)
        assert validate_pseudo_tree(tree, inst) == []
