import dataclasses

import pytest

from cdcop import build_bfs, tree_edge_dump, validate_pseudo_tree
from cdcop.benchmarks import gen_erdos_renyi, gen_random_tree
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
    broken = dataclasses.replace(
        tree,
        parent=(None, 0, 0, 1),
        children=((1, 2), (3,), (), ()),
    )
    assert any("not a constraint-graph neighbor" in v
               for v in validate_pseudo_tree(broken, kite_instance))
