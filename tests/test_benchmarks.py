import copy
import pickle

import numpy as np
import pytest

from cdcop import build_bfs, constraint_cost, validate_instance
from cdcop.benchmarks import (
    FAMILIES,
    BenchSpec,
    GenerationFailed,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_random_tree,
    gen_sensor_grid,
    generate,
)
from cdcop.expressions import X0, X1, Div, Var, _postorder
from cdcop.model import Domain, instance_from_json, instance_to_json
from cdcop.pseudotree import tree_edge_dump


def _degrees(inst):
    deg = np.zeros(inst.num_agents, dtype=int)
    for u, v in inst.edges():
        deg[u] += 1
        deg[v] += 1
    return deg


def _random_in_domain(inst, rng, count):
    return np.stack([rng.uniform(inst.domains[i].lb, inst.domains[i].ub, size=count)
                     for i in range(inst.num_agents)])


class TestErdosRenyi:
    def test_complete_graph_at_p_one(self):
        inst = gen_erdos_renyi(n=50, p=1.0, seed=0)
        assert inst.num_edges == 1225

    def test_mean_edge_count_matches_binomial(self):
        counts = [gen_erdos_renyi(n=50, p=0.2, seed=s).num_edges for s in range(100)]
        # 1225 pairs at p=0.2: mean 245, sd 14; sample mean of 100 draws
        assert abs(np.mean(counts) - 245.0) <= 3 * 14.0 / 10.0 + 1e-9

    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_small_graph_regimes_valid(self, p):
        inst = gen_erdos_renyi(n=30, p=p, seed=4)
        assert validate_instance(inst) == []
        build_bfs(inst, 0)

    def test_generation_failed_when_p_hopeless(self):
        with pytest.raises(GenerationFailed):
            gen_erdos_renyi(n=30, p=1e-9, seed=0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(n=1, p=0.5)
        with pytest.raises(ValueError):
            gen_erdos_renyi(n=5, p=0.0)


class TestRandomTree:
    def test_edge_count_and_acyclic(self):
        inst = gen_random_tree(n=50, seed=1)
        assert inst.num_edges == 49
        tree = build_bfs(inst, 0)
        tags = {tag for _, _, tag in tree_edge_dump(tree, inst)}
        assert tags == {"tree"}

    def test_two_agents(self):
        inst = gen_random_tree(n=2, seed=0)
        assert inst.num_edges == 1

    def test_always_connected(self):
        for seed in range(10):
            inst = gen_random_tree(n=25, seed=seed)
            assert validate_instance(inst) == []


class TestBarabasiAlbert:
    def test_edge_count_formula(self):
        inst = gen_barabasi_albert(n=100, m=3, seed=0)
        assert inst.num_edges == 3 + 97 * 3  # seed triangle + 3 per newcomer

    def test_forced_complete_graph(self):
        inst = gen_barabasi_albert(n=4, m=3, seed=0)
        assert inst.num_edges == 6

    def test_heavy_tailed_degrees(self):
        ratios = []
        for seed in range(25):
            deg = _degrees(gen_barabasi_albert(n=100, m=3, seed=seed))
            ratios.append(deg.max() / np.median(deg))
        assert np.mean(ratios) > 3.0

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            gen_barabasi_albert(n=3, m=3)


class TestSensorGrid:
    def test_grid_shape(self):
        inst = gen_sensor_grid(rows=8, cols=8, seed=0)
        assert inst.num_agents == 64
        assert inst.num_edges == 2 * 8 * 7
        assert inst.objective == "max"

    def test_every_function_divides_by_positive_denominator(self):
        inst = gen_sensor_grid(rows=3, cols=3, seed=7)
        rng = np.random.default_rng(0)
        samples = _random_in_domain(inst, rng, 200)
        for fn in inst.functions:
            assert isinstance(fn.expr, Div)
            u, v = fn.scope
            vals = [constraint_cost(inst, fn.id, samples[:, j]) for j in range(200)]
            assert np.all(np.isfinite(vals))
            assert all(val < 0 for val in vals)  # negated utility

    def test_boundary_meeting_point_stays_finite(self):
        # two sensors in adjacent cells at the shared boundary
        inst = gen_sensor_grid(rows=2, cols=2, seed=3)
        for fn in inst.functions:
            asg = np.zeros(4)
            asg[fn.scope[0]] = 10.0
            asg[fn.scope[1]] = 0.0
            assert np.isfinite(constraint_cost(inst, fn.id, asg))

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            gen_sensor_grid(rows=1, cols=5)

    @pytest.mark.parametrize("override", ["domain", "coeff_range"])
    def test_rejects_overrides(self, override):
        with pytest.raises(ValueError, match=f"takes no {override} override"):
            generate(BenchSpec("sensor", rows=2, cols=2, **{override: (-1.0, 1.0)}))


@pytest.mark.parametrize("override", ["domain", "coeff_range"])
@pytest.mark.parametrize("family", FAMILIES)
def test_overrides_follow_the_family_table(family, override):
    spec = BenchSpec(family, n=4, m=2, rows=2, cols=2, **{override: (-1.0, 1.0)})
    if override not in FAMILIES[family][1]:
        with pytest.raises(ValueError, match=f"^the {family} family takes no {override} override$"):
            generate(spec)
        return
    inst = generate(spec)
    assert inst.num_agents == 4
    assert (inst.domains[0] == Domain(-1.0, 1.0)) == (override == "domain")


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -3$"):
        generate(BenchSpec("er", n=4, p=0.9, seed=-3))


@pytest.mark.parametrize("domain, coeff_range, error", [
    ((1.0, -1.0), (-5.0, 5.0), ValueError),
    ((-1.0, float("nan")), (-5.0, 5.0), ValueError),
    ((-1.0, 1.0), (3.0, -3.0), ValueError),
    ((-1.0, 1.0), (float("-inf"), 3.0), ValueError),
])
def test_bad_overrides_raise(domain, coeff_range, error):
    with pytest.raises(error, match="^(domain|coeff_range) must be finite"):
        gen_random_tree(4, domain=domain, coeff_range=coeff_range)


@pytest.mark.parametrize("spec", [
    BenchSpec("er", n=12, p=0.4, seed=9),
    BenchSpec("tree", n=12, seed=9),
    BenchSpec("ba", n=12, m=2, seed=9),
    BenchSpec("sensor", rows=3, cols=4, seed=9),
])
class TestAllFamilies:
    def test_valid_and_connected(self, spec):
        inst = generate(spec)
        assert validate_instance(inst) == []
        build_bfs(inst, 0)

    def test_seed_determinism_bytes(self, spec):
        a = instance_to_json(generate(spec))
        b = instance_to_json(generate(spec))
        assert a == b

    def test_different_seeds_differ(self, spec):
        from dataclasses import replace
        a = instance_to_json(generate(spec))
        b = instance_to_json(generate(replace(spec, seed=spec.seed + 1)))
        assert a != b

    def test_copies_compare_and_hash_equal(self, spec):
        inst = generate(spec)
        for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert twin == inst and hash(twin) == hash(inst)

    def test_every_var_is_a_parser_leaf(self, spec):
        inst = generate(spec)
        for source in (inst, instance_from_json(instance_to_json(inst))):
            leaves = [node for f in source.functions for node in _postorder(f.expr)
                      if type(node) is Var]
            assert leaves and all(node is X0 or node is X1 for node in leaves)

    def test_costs_finite_on_random_samples(self, spec):
        inst = generate(spec)
        rng = np.random.default_rng(11)
        samples = _random_in_domain(inst, rng, 1000)
        for fn in inst.functions:
            u, v = fn.scope
            from cdcop.expressions import eval_expr
            vals = eval_expr(fn.expr, samples[u], samples[v])
            assert np.all(np.isfinite(vals))


def test_generate_unknown_family():
    with pytest.raises(ValueError):
        generate(BenchSpec("mystery"))


def test_domain_and_coeff_overrides():
    inst = generate(BenchSpec("er", n=6, p=0.9, domain=(-2.0, 2.0),
                              coeff_range=(1.0, 1.5), seed=0))
    assert inst.domains[0].lb == -2.0 and inst.domains[0].ub == 2.0
