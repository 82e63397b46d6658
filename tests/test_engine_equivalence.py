"""Differential test: ``solve`` against the message-passing specification.

``solve`` runs the swarm as ``(n, K)`` arrays. ``reference_solve`` below
drives one ``SwarmAgent`` per agent through ``SyncRuntime``, the executable
specification of a cycle. Every output must match bit for bit.
"""

import copy
import pickle
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cdcop import (CdcopInstance, CostFunction, Domain, DivisionByZero, build_bfs, engine,
                   expressions, parse_expr)
from cdcop.benchmarks import BenchSpec, generate
from cdcop.engine import LocalCosts
from cdcop.expressions import compile_expr, eval_expr
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

from conftest import _trees, make_instance, sum_chain


def reference_solve(inst, cfg, tree=None, record_probes=False) -> RunTrace:
    tree = tree or build_bfs(inst)
    agents = [SwarmAgent(i, inst, tree, cfg) for i in range(inst.num_agents)]
    runtime = SyncRuntime(tree, log_messages=True)
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
            st.best_len)


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
    assert_bit_identical(solve(inst, cfg, record_probes=True),
                         reference_solve(inst, cfg, record_probes=True),
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
    assert_bit_identical(solve(inst, cfg, record_probes=True),
                         reference_solve(inst, cfg, record_probes=True),
                         tmp_path)


def test_other_root_matches_reference(tmp_path):
    inst = generate(FAMILIES["ba"])
    cfg = SwarmConfig(num_particles=12, t_max=30, crossover=True, seed=9)
    tree = build_bfs(inst, 4)
    assert_bit_identical(solve(inst, cfg, tree=tree, record_probes=True),
                         reference_solve(inst, cfg, tree=tree, record_probes=True), tmp_path)


def test_recording_options_do_not_change_the_run():
    inst = generate(FAMILIES["ba"])
    cfg = SwarmConfig(num_particles=12, t_max=20, crossover=True, seed=5)
    plain = solve(inst, cfg)
    recorded = solve(inst, cfg, record_probes=True)
    assert plain.probes is None and recorded.probes is not None
    assert [_row_bits(r) for r in plain.rows] == [_row_bits(r) for r in recorded.rows]


def test_message_log_reads_as_the_reference_list():
    """``solve``'s log, made on read, has the length and the messages of the
    list that ``SyncRuntime`` logs."""
    inst = generate(FAMILIES["er"])
    cfg = SwarmConfig(num_particles=6, t_max=5, crossover=True, seed=3)
    got, want = solve(inst, cfg).messages, reference_solve(inst, cfg).messages
    assert len(got) == len(want) and list(got) == want


def test_zero_denominator_raises_in_both():
    cfg = SwarmConfig(num_particles=4, t_max=3)
    # a constant zero denominator is not folded away: it raises where any other does
    for text in ("(/ x0 (- x1 x1))", "(+ (* x0 x1) (/ 1 0))", "(neg (/ 0.0 0.0))"):
        inst = make_instance(2, [((0, 1), text)])
        with pytest.raises(DivisionByZero,
                           match=r"^cycle 1: zero denominator in function 0, scope \(0, 1\)$"):
            solve(inst, cfg)
        with pytest.raises(DivisionByZero,
                           match=r"^zero denominator in function 0, scope \(0, 1\)$"):
            reference_solve(inst, cfg)


def test_zero_denominator_names_the_function_that_meets_it():
    # one skeleton, so one block: only function 1's denominator is zero
    inst = make_instance(4, [((0, 1), "(/ x0 (* x1 1.0))"), ((2, 1), "(/ x0 (* x1 0.0))"),
                             ((2, 3), "(/ x0 (* x1 2.0))")])
    assert len(LocalCosts(inst, 4).blocks) == 1
    with pytest.raises(DivisionByZero,
                       match=r"^cycle 1: zero denominator in function 1, scope \(2, 1\)$"):
        solve(inst, SwarmConfig(num_particles=4, t_max=3))


def test_zero_denominator_is_met_agent_by_agent():
    """Agent 0 meets function 1 before agent 2 meets function 0: the search
    goes agent by agent, and by ascending id only within an agent."""
    inst = make_instance(4, [((2, 3), "(/ x0 (- x1 x1))"), ((0, 1), "(/ x0 (- x1 x1))"),
                             ((1, 2), "(* x0 x1)")])
    cfg = SwarmConfig(num_particles=4, t_max=3)
    with pytest.raises(DivisionByZero,
                       match=r"^cycle 1: zero denominator in function 1, scope \(0, 1\)$"):
        solve(inst, cfg)
    with pytest.raises(DivisionByZero, match=r"^zero denominator in function 1, scope \(0, 1\)$"):
        reference_solve(inst, cfg)


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
    assert_bit_identical(solve(inst, cfg, record_probes=True),
                         reference_solve(inst, cfg, record_probes=True),
                         tmp_path)


def test_group_over_several_blocks_matches_reference(monkeypatch, tmp_path):
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", 3 * 12)  # blocks of 3 edges
    cfg = SwarmConfig(num_particles=12, t_max=30, crossover=True, seed=8)
    for inst in (generate(FAMILIES["er"]), make_instance(7, HUB)):
        local_costs = LocalCosts(inst, cfg.num_particles)
        assert len(local_costs.blocks) == -(-inst.num_edges // 3)
        # column 0 holds every agent, more rows than a block, so it is a chunk alone
        gather, _, adds = local_costs.chunks[0]
        assert len(adds) == 1 and len(gather) == inst.num_agents > 3
        assert_bit_identical(solve(inst, cfg, record_probes=True),
                             reference_solve(inst, cfg, record_probes=True),
                             tmp_path)
    # the hub's columns 1-5 hold one row each: chunks of three columns and two
    assert [len(adds) for _, _, adds in local_costs.chunks] == [1, 3, 2]


def test_two_particles_match_reference(tmp_path):
    inst = generate(FAMILIES["sensor"])
    cfg = SwarmConfig(num_particles=2, t_max=30, crossover=True, seed=4)
    assert_bit_identical(solve(inst, cfg, record_probes=True),
                         reference_solve(inst, cfg, record_probes=True),
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
    want = np.array([compile_expr(f.expr, x[f.scope[0]], x[f.scope[1]])() for f in inst.functions])
    assert np.signbit(want[2]).all()
    assert local_costs.values.tobytes() == want.tobytes()


def _local_by_tree_walk(inst, x):
    """Every agent's local fitness by ``eval_expr``: its incident values, with
    the instance's sign, added in ascending function id onto +0.0."""
    local = np.zeros_like(x)
    for agent in range(inst.num_agents):
        for f in sorted((f for f in inst.functions if agent in f.scope), key=lambda f: f.id):
            local[agent] = local[agent] + inst.sign * eval_expr(f.expr, x[f.scope[0]], x[f.scope[1]])
    return local


def _local_costs_at(inst, K=4):
    """``LocalCosts(inst, K)``, its values at seeded positions, and
    ``_local_by_tree_walk``'s at the same positions."""
    x = np.random.default_rng(5).uniform(-2.0, 2.0, (inst.num_agents, K))
    local_costs = LocalCosts(inst, K)
    return local_costs, local_costs(x).copy(), _local_by_tree_walk(inst, x)


def test_powers_that_differ_only_in_their_exponent_get_their_own_programs():
    inst = make_instance(4, [((0, 1), "(* (^ x0 2) x1)"), ((1, 2), "(* (^ x0 3) x1)"),
                             ((2, 3), "(* (^ x0 2) x1)")])
    local_costs, got, want = _local_costs_at(inst)
    assert len(local_costs.blocks) == 2
    assert got.tobytes() == want.tobytes()


def test_trees_of_one_shape_keep_their_own_constants():
    inst = make_instance(3, [((0, 1), "(+ (* 1.5 (^ x0 2)) (* -0.5 (* x0 x1)))"),
                             ((1, 2), "(+ (* -3.0 (^ x0 2)) (* 4.0 (* x0 x1)))")])
    local_costs, got, want = _local_costs_at(inst)
    assert len(local_costs.blocks) == 1
    assert got.tobytes() == want.tobytes()


def test_a_square_and_a_product_are_two_shapes_of_one_block():
    """``(^ x0 2)`` and ``(* x0 x0)`` fold to different shapes that assemble
    to one program, so their edges still share a block."""
    texts = ["(* (^ x0 2) x1)", "(* (* x0 x0) x1)", "(* (^ x0 2) x1)"]
    assert expressions.fold(parse_expr(texts[0]))[0] != expressions.fold(parse_expr(texts[1]))[0]
    inst = make_instance(4, [((i, i + 1), text) for i, text in enumerate(texts)])
    local_costs, got, want = _local_costs_at(inst)
    assert len(local_costs.blocks) == 1
    assert got.tobytes() == want.tobytes()


def test_local_costs_assembles_each_shape_once(monkeypatch):
    """Every er n=50 tree has one shape, so its 252 functions assemble once."""
    inst = generate(BenchSpec("er", n=50, p=0.2, seed=3))
    assert inst.num_edges == 252
    shapes = []
    monkeypatch.setattr(engine, "assemble",
                        lambda shape: shapes.append(shape) or expressions.assemble(shape))
    LocalCosts(inst, 200)
    assert len(shapes) == 1


@pytest.mark.parametrize("spec", [BenchSpec("er", n=50, p=0.2, seed=1),
                                  BenchSpec("sensor", rows=8, cols=8, seed=1)],
                         ids=["er50", "sensor8x8"])
def test_warm_local_costs_call_allocates_no_array(spec):
    """A call after the first allocates at most numpy's fixed reduction buffer
    (8 KiB, in ``ndarray.all``); one ``(edges, K)`` block is at least 90 KB."""
    inst = generate(spec)
    lb, ub = np.array([(d.lb, d.ub) for d in inst.domains]).T
    x = np.random.default_rng(0).uniform(lb[:, None], ub[:, None], (inst.num_agents, 200))
    local_costs = LocalCosts(inst, 200)
    local_costs(x)
    tracemalloc.start()
    try:
        local_costs(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024


def test_local_costs_holds_no_whole_instance_gather_buffer():
    """Building ``LocalCosts`` for er n=50 at K=200 peaks near 2.3 MB, most
    of it the per-edge constants (1.07 MB) and the value buffer (357 KB).
    Endpoints are gathered a block at a time (at most 81 edges) and incident
    values a chunk at a time; gather buffers for all 223 edges' endpoints
    and all 446 incident values would take 713 KB each."""
    inst = generate(BenchSpec("er", n=50, p=0.2, seed=1))
    assert inst.num_edges == 223
    tracemalloc.start()
    try:
        LocalCosts(inst, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


# two distinct floats (0.0 and -0.0 are equal) in ascending order
_DOMAINS = st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True).map(
    lambda bounds: Domain(*sorted(bounds)))


@st.composite
def _random_runs(draw):
    """A connected instance of 1-7 agents with random cost trees and domains, a
    swarm config, a root, and the number of edges per ``LocalCosts`` block."""
    n = draw(st.integers(1, 7))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    if n > 2:
        pairs |= draw(st.sets(st.sampled_from([(u, v) for v in range(n) for u in range(v)])))
    ids = draw(st.permutations(range(len(pairs))))
    functions = tuple(CostFunction(fid, draw(st.sampled_from([(u, v), (v, u)])), draw(_trees))
                      for fid, (u, v) in zip(ids, sorted(pairs)))
    inst = CdcopInstance(n, tuple(draw(_DOMAINS) for _ in range(n)), functions,
                         draw(st.sampled_from(["min", "max"])))
    inertia, c = SCHEDULES[draw(st.sampled_from(sorted(SCHEDULES)))]
    cfg = SwarmConfig(num_particles=draw(st.integers(2, 11)), t_max=draw(st.integers(1, 25)),
                      c1=c, c2=c, inertia=inertia, crossover=draw(st.booleans()),
                      seed=draw(st.integers(0, 2 ** 64 - 1)))
    return inst, cfg, draw(st.integers(0, n - 1)), draw(st.integers(1, max(1, len(pairs))))


def _outcome(run, inst, cfg, tree):
    try:
        return run(inst, cfg, tree=tree, record_probes=True), None
    except DivisionByZero as e:
        return None, str(e)


@np.errstate(all="ignore")  # wide domains overflow
def _check_random_run(inst, cfg, root, block_edges):
    tree = build_bfs(inst, root)
    with mock.patch.object(engine, "BLOCK_ELEMENTS", block_edges * cfg.num_particles):
        got, got_error = _outcome(solve, inst, cfg, tree)
    want, want_error = _outcome(reference_solve, inst, cfg, tree)
    if got_error is None and want_error is None:
        with tempfile.TemporaryDirectory() as tmp:
            assert_bit_identical(got, want, Path(tmp))
    else:  # solve names the cycle
        assert re.fullmatch(rf"cycle \d+: {re.escape(str(want_error))}", str(got_error))


_RANDOM = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=50, deadline=None)
@given(_random_runs())
def test_incident_table_is_each_agents_functions_in_ascending_id(run):
    """``inst.incident`` holds what a per-agent scan finds, for instances with
    permuted ids and for one with an extra agent that has no function; an
    instance whose table was read copies to one that compares and hashes equal."""
    inst = run[0]
    lonely = replace(inst, num_agents=inst.num_agents + 1,
                     domains=(*inst.domains, Domain(0.0, 1.0)))
    for case in (inst, lonely):
        assert [[f.id for f in functions] for functions in case.incident] == [
            sorted(f.id for f in case.functions if agent in f.scope)
            for agent in range(case.num_agents)]
    assert lonely.incident[-1] == ()
    for twin in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert twin == inst and hash(twin) == hash(inst) and twin.incident == inst.incident


@settings(_RANDOM, max_examples=200)
@given(_random_runs())
# particles clamped to 0.0 leave one nonzero crossover weight, so b is drawn
# uniformly over the other particles
@example((make_instance(2, [((0, 1), "(* x0 x1)")], domain=(0.0, 1.0)),
          SwarmConfig(num_particles=3, t_max=10, crossover=True, seed=2), 0, 1))
def test_random_instances_match_reference(run):
    _check_random_run(*run)


@pytest.mark.slow
@settings(_RANDOM, max_examples=2000)
@given(_random_runs())
def test_many_random_instances_match_reference(run):
    _check_random_run(*run)
