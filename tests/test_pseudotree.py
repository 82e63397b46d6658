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


@pytest.mark.parametrize("fields, violations", [
    (lambda tree: {"root": 9}, ["root 9 is not an agent index"]),
    (lambda tree: {"parent": (None, 7, 0, 0, 0, 0)}, ["agent 1 has parent 7, not an agent index"]),
    (lambda tree: {"depth": tree.depth[:-1]}, ["depth has 5 entries for 6 agents"]),
    (lambda tree: {"neighbors": tree.neighbors[:3]}, ["neighbors has 3 entries for 6 agents"]),
    (lambda tree: {"neighbors": (tree.neighbors[0][:-1],) + tree.neighbors[1:]},
     ["neighbor set of agent 0 does not match the constraint graph",
      "child 5 of agent 0 is not a constraint-graph neighbor"]),
    (lambda tree: {"parent": tree.parent[:3] + (None,) + tree.parent[4:]},
     ["non-root agent 3 has no parent", "agent 3 depth 1 != 0"]),
], ids=["root", "parent", "depth", "neighbors", "neighbor_set", "orphan"])
def test_validate_reports_a_malformed_tree(fields, violations):
    """A root, parent or table that does not fit the agents is reported, not
    met by an IndexError; so is a tree that breaks the graph or the depths."""
    inst = gen_erdos_renyi(n=6, p=0.5, seed=1)
    tree = build_bfs(inst, 0)
    broken = dataclasses.replace(tree, **fields(tree))
    assert validate_pseudo_tree(broken, inst) == violations


def test_validate_reports_a_tree_of_another_instance():
    tree = build_bfs(gen_erdos_renyi(n=6, p=0.5, seed=1), 0)
    assert validate_pseudo_tree(tree, gen_erdos_renyi(n=5, p=0.5, seed=1)) == [
        "tree covers 6 agents, instance has 5"]


def _validate_with_chain_walk(tree, inst):
    """``validate_pseudo_tree`` as it was when it also walked every agent's
    parent chain: the reference the chain-free checks are held to."""
    out = []
    n = tree.num_agents
    if n != inst.num_agents:
        return [f"tree covers {n} agents, instance has {inst.num_agents}"]
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
    for v in range(n):
        u, steps = v, 0
        while tree.parent[u] is not None and steps <= n:
            u = tree.parent[u]
            steps += 1
        if u != tree.root:
            out.append(f"parent chain from agent {v} does not reach the root")
    expected = neighbor_table(n, (f.scope for f in inst.functions))
    for v in range(n):
        if tuple(tree.neighbors[v]) != expected[v]:
            out.append(f"neighbor set of agent {v} does not match the constraint graph")
        for c in tree.children[v]:
            if c not in tree.neighbors[v]:
                out.append(f"child {c} of agent {v} is not a constraint-graph neighbor")
    for v in range(n):
        p = tree.parent[v]
        want = 0 if p is None else tree.depth[p] + 1
        if tree.depth[v] != want:
            out.append(f"agent {v} depth {tree.depth[v]} != {want}")
    return out


@st.composite
def _edited_trees(draw):
    """An er instance and its BFS tree with some parents, depths and the root
    redrawn: a parent as None or any agent, a depth in -1..n, any root."""
    n = draw(st.integers(2, 9))
    inst = gen_erdos_renyi(n=n, p=draw(st.sampled_from([0.3, 0.5, 0.9])), seed=draw(st.integers(0, 99)))
    tree = build_bfs(inst, draw(st.integers(0, n - 1)))
    agents = st.integers(0, n - 1)
    parent, depth = list(tree.parent), list(tree.depth)
    for v in draw(st.lists(agents, max_size=3)):
        parent[v] = draw(st.none() | agents)
    for v in draw(st.lists(agents, max_size=3)):
        depth[v] = draw(st.integers(-1, n))
    root = draw(st.just(tree.root) | agents)
    return dataclasses.replace(tree, root=root, parent=tuple(parent), depth=tuple(depth)), inst


@given(_edited_trees())
@settings(max_examples=300, deadline=None)
def test_depth_checks_stand_in_for_the_chain_walk(case):
    """Every tree whose parent chains loop or miss the root breaks another
    check too: the violations are the chain walk's without its own lines."""
    tree, inst = case
    got, reference = validate_pseudo_tree(tree, inst), _validate_with_chain_walk(tree, inst)
    assert got == [line for line in reference if not line.startswith("parent chain")]
    assert (got == []) == (reference == [])  # the same verdict


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
