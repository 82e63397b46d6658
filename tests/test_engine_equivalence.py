"""Differential test: ``solve`` against the message-passing specification.

``solve`` runs the swarm as ``(n, K)`` arrays. ``reference_solve`` below
drives one ``SwarmAgent`` per agent through ``SyncRuntime``, the executable
specification of a cycle. Every output must match bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from cdcop import (CdcopInstance, CostFunction, Domain, DivisionByZero, build_bfs, engine,
                   parse_expr)
from cdcop.benchmarks import BenchSpec, generate
from cdcop.engine import LocalCosts
from cdcop.expressions import compile_expr
from cdcop.experiment import write_trace_csv
from cdcop.runtime import SyncRuntime, write_message_log_csv
from cdcop.swarm import (
    AdaptiveInertia,
    ConstrictionInertia,
    FixedInertia,
    RunTrace,
    SwarmAgent,
    SwarmConfig,
    TraceRow,
    solve,
)

from conftest import make_instance, sum_chain


def reference_solve(inst, cfg, tree=None, record_probes=False, log_messages=False) -> RunTrace:
    tree = tree or build_bfs(inst)
    agents = [SwarmAgent(i, inst, tree, cfg) for i in range(inst.num_agents)]
    runtime = SyncRuntime(tree, log_messages=log_messages)
    top = agents[tree.root]
    rows, probes = [], []
    for t in range(1, cfg.t_max + 1):
        # a cycle evaluates the positions held before it: x changes only in end_cycle
        evaluated = np.stack([a.x for a in agents]) if record_probes else None
        stats = runtime.run_cycle(agents, t)
        if record_probes:
            probes.append((evaluated, top.fitness.copy()))
        rows.append(TraceRow(t, inst.to_display(top.g_best_fit), top.g_best_fit,
                             tuple(a.g_best_x for a in agents), stats))
    return RunTrace(inst.objective, inst.num_agents, inst.num_edges, tree.height, rows,
                    np.array([a.g_best_x for a in agents]), inst.to_display(top.g_best_fit),
                    top.g_best_fit, probes if record_probes else None, runtime.log)


def _row_bits(row: TraceRow):
    st = row.stats
    return (row.cycle, row.best_cost.hex(), row.best_internal.hex(),
            tuple(float(x).hex() for x in row.assignment),
            st.cycle, st.value_count, st.cost_count, st.best_count, st.payload_scalars,
            st.sent_scalars_by_agent)


def assert_bit_identical(got: RunTrace, want: RunTrace, tmp_path):
    assert [_row_bits(r) for r in got.rows] == [_row_bits(r) for r in want.rows]
    assert got.best_internal.hex() == want.best_internal.hex()
    assert got.best_assignment.tobytes() == want.best_assignment.tobytes()
    for trace, name in ((got, "got"), (want, "want")):
        write_trace_csv(tmp_path / f"{name}.csv", trace)
        write_message_log_csv(trace.messages, tmp_path / f"{name}-messages.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert ((tmp_path / "got-messages.csv").read_bytes()
            == (tmp_path / "want-messages.csv").read_bytes())
    assert len(got.probes) == len(want.probes)
    for (gx, gf), (wx, wf) in zip(got.probes, want.probes):
        assert gx.tobytes() == wx.tobytes() and gf.tobytes() == wf.tobytes()


FAMILIES = {
    "er": BenchSpec("er", n=15, p=0.5, seed=11),
    "tree": BenchSpec("tree", n=8, seed=12),
    "ba": BenchSpec("ba", n=9, m=2, seed=13),
    "sensor": BenchSpec("sensor", rows=2, cols=3, seed=14),  # maximize
}
SCHEDULES = {
    "adaptive": (AdaptiveInertia(), 1.49),
    "fixed": (FixedInertia(0.72), 1.49),
    "constriction": (ConstrictionInertia(4.1), 2.05),
}


@pytest.mark.parametrize("crossover", [False, True], ids=["pcd", "pcd_crossover"])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_match_reference(family, schedule, crossover, tmp_path):
    inst = generate(FAMILIES[family])
    inertia, c = SCHEDULES[schedule]
    cfg = SwarmConfig(num_particles=12, t_max=30, c1=c, c2=c, inertia=inertia,
                      crossover=crossover, seed=7)
    assert_bit_identical(solve(inst, cfg, record_probes=True, log_messages=True),
                         reference_solve(inst, cfg, record_probes=True, log_messages=True),
                         tmp_path)


KITE = [((0, 1), "(- (^ x0 2) (^ x1 2))"), ((0, 2), "(+ (^ x0 2) (* 2 (* x0 x1)))"),
        ((0, 3), "(- (* 2 (^ x0 2)) (* 2 (^ x1 2)))"), ((2, 3), "(+ (^ x0 2) (* 3 (^ x1 2)))")]
SPECIAL = {
    "mixed_skeletons": make_instance(4, KITE),
    "maximize": make_instance(2, [((0, 1), "(/ 100.0 (+ (^ (- x0 x1) 2) 1.0))")],
                              domain=(0.0, 10.0), objective="max"),
    "single_agent": CdcopInstance(1, (Domain(-1.0, 1.0),), (), "min"),
    # one function 399 deep beside a shallow one
    "deep_expression": CdcopInstance(3, (Domain(-10.0, 10.0),) * 3,
                                     (CostFunction(0, (0, 1), sum_chain(400)),
                                      CostFunction(1, (1, 2), parse_expr(KITE[1][1]))), "min"),
}


@pytest.mark.parametrize("crossover", [False, True], ids=["pcd", "pcd_crossover"])
@pytest.mark.parametrize("name", sorted(SPECIAL))
def test_special_instances_match_reference(name, crossover, tmp_path):
    cfg = SwarmConfig(num_particles=10, t_max=40, crossover=crossover, seed=3)
    inst = SPECIAL[name]
    assert_bit_identical(solve(inst, cfg, record_probes=True, log_messages=True),
                         reference_solve(inst, cfg, record_probes=True, log_messages=True),
                         tmp_path)


def test_other_root_matches_reference(tmp_path):
    inst = generate(FAMILIES["ba"])
    cfg = SwarmConfig(num_particles=12, t_max=30, crossover=True, seed=9)
    tree = build_bfs(inst, 4)
    assert_bit_identical(solve(inst, cfg, tree=tree, record_probes=True, log_messages=True),
                         reference_solve(inst, cfg, tree=tree, record_probes=True,
                                         log_messages=True),
                         tmp_path)


def test_recording_options_do_not_change_the_run():
    inst = generate(FAMILIES["ba"])
    cfg = SwarmConfig(num_particles=12, t_max=20, crossover=True, seed=5)
    plain = solve(inst, cfg)
    recorded = solve(inst, cfg, record_probes=True, log_messages=True)
    assert plain.probes is None and plain.messages is None
    assert [_row_bits(r) for r in plain.rows] == [_row_bits(r) for r in recorded.rows]


def test_zero_denominator_raises_in_both():
    inst = make_instance(2, [((0, 1), "(/ x0 (- x1 x1))")])
    cfg = SwarmConfig(num_particles=4, t_max=3)
    with pytest.raises(DivisionByZero,
                       match=r"^cycle 1: zero denominator in function 0, scope \(0, 1\)$"):
        solve(inst, cfg)
    with pytest.raises(DivisionByZero, match=r"^zero denominator in function 0, scope \(0, 1\)$"):
        reference_solve(inst, cfg)


def test_zero_denominator_names_the_function_that_meets_it():
    # one skeleton, so one block: only function 1's denominator is zero
    inst = make_instance(4, [((0, 1), "(/ x0 (* x1 1.0))"), ((2, 1), "(/ x0 (* x1 0.0))"),
                             ((2, 3), "(/ x0 (* x1 2.0))")])
    assert len(LocalCosts(inst, 4).blocks) == 1
    with pytest.raises(DivisionByZero,
                       match=r"^cycle 1: zero denominator in function 1, scope \(2, 1\)$"):
        solve(inst, SwarmConfig(num_particles=4, t_max=3))


def test_cycle_timing_is_recorded():
    inst = generate(replace(FAMILIES["tree"], seed=2))
    trace = solve(inst, SwarmConfig(num_particles=8, t_max=5))
    assert all(row.stats.duration_s > 0.0 for row in trace.rows)


# agent 3 holds every function and each leaf one, so the local sums run over
# the agents reordered by degree
HUB = [((leaf, 3) if leaf > 3 else (3, leaf), "(+ (* 1.5 (^ x0 2)) (* -0.5 (* x0 x1)))")
       for leaf in (0, 1, 2, 4, 5, 6)]


@pytest.mark.parametrize("objective", ["min", "max"])
@pytest.mark.parametrize("crossover", [False, True], ids=["pcd", "pcd_crossover"])
def test_hub_matches_reference(objective, crossover, tmp_path):
    inst = make_instance(7, HUB, objective=objective)
    cfg = SwarmConfig(num_particles=10, t_max=40, crossover=crossover, seed=6)
    assert_bit_identical(solve(inst, cfg, record_probes=True, log_messages=True),
                         reference_solve(inst, cfg, record_probes=True, log_messages=True),
                         tmp_path)


def test_group_over_several_blocks_matches_reference(monkeypatch, tmp_path):
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 3 * 12)  # blocks of 3 edges
    inst = generate(FAMILIES["er"])
    cfg = SwarmConfig(num_particles=12, t_max=30, crossover=True, seed=8)
    local_costs = LocalCosts(inst, cfg.num_particles)
    assert len(local_costs.blocks) == -(-inst.num_edges // 3)
    assert_bit_identical(solve(inst, cfg, record_probes=True, log_messages=True),
                         reference_solve(inst, cfg, record_probes=True, log_messages=True),
                         tmp_path)


def test_two_particles_match_reference(tmp_path):
    inst = generate(FAMILIES["sensor"])
    cfg = SwarmConfig(num_particles=2, t_max=30, crossover=True, seed=4)
    assert_bit_identical(solve(inst, cfg, record_probes=True, log_messages=True),
                         reference_solve(inst, cfg, record_probes=True, log_messages=True),
                         tmp_path)


def test_constant_column_keeps_a_lone_negative_zero():
    """A block's constants that are all 0.0 but one -0.0 are not merged.

    A zero's sign cannot reach the fitness (each agent's sum starts at +0.0
    and a zero denominator raises), so this reads the per-edge values.
    """
    inst = make_instance(6, [((i, i + 1), f"(* {'-0.0' if i == 2 else '0.0'} x0)")
                             for i in range(5)], domain=(1.0, 2.0))
    x = np.linspace(1.0, 2.0, 6 * 4).reshape(6, 4)
    local_costs = LocalCosts(inst, 4)
    local_costs(x)
    want = np.array([compile_expr(f.expr)(x[f.scope[0]], x[f.scope[1]]) for f in inst.functions])
    assert np.signbit(want[2]).all()
    assert local_costs.values.tobytes() == want.tobytes()
