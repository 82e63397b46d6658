"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The ensemble criteria use desk-scale instances
(small n) with the pinned swarm settings K=50, t_max=200.
"""

import filecmp
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from cdcop import build_bfs, global_cost
from cdcop.benchmarks import BenchSpec, generate
from cdcop.experiment import (
    ExperimentConfig,
    derive_instance_seed,
    derive_run_seed,
    run_experiment,
    verify_trace,
)
from cdcop.runtime import SyncRuntime
from cdcop.swarm import (
    ConstrictionInertia,
    FixedInertia,
    SwarmAgent,
    SwarmConfig,
    inertia_weight,
    pso_step,
    solve,
)

from conftest import (
    KITE_CROSSOVER_P,
    KITE_GBEST,
    KITE_LOCAL_FITNESS,
    KITE_POSITIONS,
    KITE_ROOT_FITNESS,
    KITE_UPDATED_V,
    KITE_UPDATED_X,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


# ---- shared desk-scale ensemble: 4 families x 25 instances x 20 seeds x 2 variants

MASTER_SEED = 2718
ENSEMBLE_SWARM = SwarmConfig(num_particles=50, t_max=200)
FAMILY_SPECS = {
    "er": BenchSpec("er", n=6, p=0.4),
    "tree": BenchSpec("tree", n=6),
    "ba": BenchSpec("ba", n=6, m=2),
    "sensor": BenchSpec("sensor", rows=2, cols=2),
}
NUM_INSTANCES = 25
NUM_SEEDS = 20


@pytest.fixture(scope="module")
def ensemble():
    started = time.perf_counter()
    records = []
    for family, base_spec in FAMILY_SPECS.items():
        for i in range(NUM_INSTANCES):
            spec = replace(base_spec, seed=derive_instance_seed(MASTER_SEED, i))
            inst = generate(spec)
            tree = build_bfs(inst, 0)
            for rep in range(NUM_SEEDS):
                for variant, crossover in (("pcd", False), ("pcd_crossover", True)):
                    cfg = replace(ENSEMBLE_SWARM, crossover=crossover,
                                  seed=derive_run_seed(MASTER_SEED, i, rep, variant))
                    trace = solve(inst, cfg, tree=tree)
                    records.append({"family": family, "variant": variant,
                                    **verify_trace(trace, tree, cfg.num_particles)})
    return records, time.perf_counter() - started


def test_criterion_1_golden_trace(kite_instance):
    with criterion(1, "golden one-cycle trace"):
        started = time.perf_counter()
        cfg = SwarmConfig(num_particles=4, inertia=FixedInertia(0.72), c1=1.49, c2=1.49,
                          t_max=100, seed=0)
        tree = build_bfs(kite_instance, 0)
        agents = [SwarmAgent(i, kite_instance, tree, cfg) for i in range(4)]
        for i, agent in enumerate(agents):
            agent.x = KITE_POSITIONS[i].copy()
            agent.v = np.zeros(4)
        SyncRuntime(tree).run_cycle(agents, 1)

        two_dp = dict(rtol=0.0, atol=5e-3)
        for i in range(4):
            np.testing.assert_allclose(agents[i].local_fitness, KITE_LOCAL_FITNESS[i], **two_dp)
        np.testing.assert_allclose(agents[0].fitness, KITE_ROOT_FITNESS, **two_dp)

        assert agents[0].control.best_particle == 2
        assert np.isinf(agents[0].p_best_fit).sum() == 0  # every personal best advanced
        for i in range(4):
            assert agents[i].g_best_x == pytest.approx(KITE_GBEST[i])
            np.testing.assert_allclose(agents[i].p_best_x, KITE_POSITIONS[i], atol=1e-12)

        # the update kernel with r1=0.7, r2=0.4 on the state the cycle left behind
        for i, agent in enumerate(agents):
            x, v = pso_step(KITE_POSITIONS[i].copy(), np.zeros(4), agent.p_best_x, agent.g_best_x,
                            0.7 * cfg.c1, 0.4 * cfg.c2, 1.0 - 2.0 * 0.4, 0.72, cfg, agent.control,
                            agent.lb, agent.ub)
            np.testing.assert_allclose(v, KITE_UPDATED_V[i], **two_dp)
            np.testing.assert_allclose(x, KITE_UPDATED_X[i], **two_dp)

        from cdcop.swarm import crossover_probabilities
        for i in range(4):
            np.testing.assert_allclose(crossover_probabilities(KITE_LOCAL_FITNESS[i]),
                                       KITE_CROSSOVER_P[i], rtol=0.0, atol=5e-4)
        assert crossover_probabilities(KITE_LOCAL_FITNESS[0])[0] == pytest.approx(0.046, abs=5e-4)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_anytime_over_ensemble(ensemble):
    records, elapsed = ensemble
    with criterion(2, "anytime property across the benchmark ensemble"):
        assert len(records) == 4 * NUM_INSTANCES * NUM_SEEDS * 2
        bad = [r for r in records if not r["anytime"]]
        assert bad == []
        assert elapsed < 300.0, f"ensemble took {elapsed:.0f}s (budget 300s)"


def test_criterion_3_fitness_equivalence():
    with criterion(3, "root fitness equals centralized cost on 100 probes"):
        rng = np.random.default_rng(777)
        cfg = SwarmConfig(num_particles=10, t_max=25)
        probes_checked = 0
        specs = [BenchSpec("er", n=5, p=0.6, seed=1), BenchSpec("tree", n=6, seed=2),
                 BenchSpec("ba", n=6, m=2, seed=3), BenchSpec("sensor", rows=2, cols=2, seed=4)]
        while probes_checked < 100:
            spec = specs[probes_checked % len(specs)]
            inst = generate(replace(spec, seed=int(rng.integers(1 << 30))))
            trace = solve(inst, replace(cfg, seed=int(rng.integers(1 << 30))),
                          record_probes=True)
            for _ in range(5):
                cycle = int(rng.integers(cfg.t_max))
                k = int(rng.integers(cfg.num_particles))
                positions, fitness = trace.probes[cycle]
                direct = global_cost(inst, positions[:, k])
                assert fitness[k] == pytest.approx(direct, rel=1e-9, abs=1e-9)
                probes_checked += 1


def test_criterion_4_message_count_law(ensemble, kite_instance):
    records, _ = ensemble
    with criterion(4, "exact per-cycle message counts"):
        assert all(r["message_law"] for r in records)
        trace = solve(kite_instance, SwarmConfig(num_particles=5, t_max=3, seed=0))
        for row in trace.rows:
            st = row.stats
            assert (st.value_count, st.cost_count, st.best_count) == (8, 3, 3)


def test_criterion_5_message_size_bound(ensemble):
    records, _ = ensemble
    with criterion(5, "per-agent payload bound K*(|N|+1+|CH|)+c"):
        assert all(r["payload_bound"] for r in records)


def test_criterion_6_convex_sanity(two_agent_convex):
    with criterion(6, "convex instance solved below 1e-2 in >= 95% of seeds"):
        cfg = SwarmConfig(num_particles=200, t_max=500)
        tree = build_bfs(two_agent_convex, 0)
        hits = sum(
            solve(two_agent_convex, replace(cfg, seed=s), tree=tree).best_internal < 1e-2
            for s in range(100))
        assert hits >= 95, f"only {hits}/100 seeds converged"


def test_criterion_7_crossover_direction():
    with criterion(7, "crossover variant wins >= 60% of sparse-graph instances"):
        master = 99
        swarm = SwarmConfig(num_particles=50, t_max=200)
        wins = 0
        for i in range(25):
            inst = generate(BenchSpec("er", n=30, p=0.2,
                                      seed=derive_instance_seed(master, i)))
            tree = build_bfs(inst, 0)
            finals = {"pcd": [], "pcd_crossover": []}
            for rep in range(3):
                for variant, crossover in (("pcd", False), ("pcd_crossover", True)):
                    cfg = replace(swarm, crossover=crossover,
                                  seed=derive_run_seed(master, i, rep, variant))
                    finals[variant].append(solve(inst, cfg, tree=tree).best_internal)
            if np.mean(finals["pcd_crossover"]) <= np.mean(finals["pcd"]):
                wins += 1
        assert wins >= 15, f"crossover won only {wins}/25 instances"


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "identical config + seed gives byte-identical traces"):
        cfg = ExperimentConfig(
            swarm=SwarmConfig(num_particles=12, t_max=30),
            variants=["pcd", "pcd_crossover"],
            bench=BenchSpec("er", n=6, p=0.5),
            num_instances=2,
            repeats=2,
            master_seed=31,
            out_dir=tmp_path / "a",
        )
        run_experiment(cfg)
        run_experiment(replace_out(cfg, tmp_path / "b"))
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False), name


def replace_out(cfg: ExperimentConfig, out_dir) -> ExperimentConfig:
    import dataclasses
    return dataclasses.replace(cfg, out_dir=out_dir)


def test_criterion_9_constriction_weight():
    with criterion(9, "constriction weight 0.7298 at phi=4.1"):
        w = inertia_weight(ConstrictionInertia(4.1), 0, 1)
        assert w == pytest.approx(0.7298, abs=1e-4)
