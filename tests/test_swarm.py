import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cdcop import CdcopInstance, CostFunction, Domain, build_bfs, global_cost, swarm
from cdcop.benchmarks import BenchSpec, generate
from cdcop.expressions import Mul, Var
from cdcop.runtime import DeadlockDetected, SyncRuntime
from cdcop.swarm import (
    AdaptiveInertia,
    ConfigError,
    ConstrictionInertia,
    CrossoverScratch,
    FixedInertia,
    GcpsoControl,
    SwarmAgent,
    SwarmConfig,
    agent_stream,
    best_update,
    crossover_probabilities,
    crossover_rows,
    inertia_weight,
    pso_step,
    solve,
    update_control,
    validate_config,
    velocity_global_best,
)

from conftest import (
    KITE_CROSSOVER_P,
    KITE_GBEST,
    KITE_LOCAL_FITNESS,
    KITE_POSITIONS,
    KITE_ROOT_FITNESS,
    KITE_UPDATED_V,
    KITE_UPDATED_X,
    make_instance,
    neg_pow_chain,
    sum_chain,
    update_scratch,
)
from golden.regen import FLAT
from test_engine_equivalence import assert_bit_identical, reference_solve

TABLE = dict(rtol=0.0, atol=5e-3)  # two printed decimals


# --- inertia schedules ---------------------------------------------------------

def test_adaptive_endpoints_and_midpoint():
    sched = AdaptiveInertia(1.4, 0.4)
    assert inertia_weight(sched, 0, 100) == pytest.approx(1.4)
    assert inertia_weight(sched, 100, 100) == pytest.approx(0.4)
    assert inertia_weight(sched, 50, 100) == pytest.approx(0.9)


def test_adaptive_literal_increasing_ramp():
    sched = AdaptiveInertia(1.4, 0.4, literal_increasing=True)
    assert inertia_weight(sched, 0, 100) == 0.0
    assert inertia_weight(sched, 100, 100) == pytest.approx(1.0)


def test_constriction_weight_value():
    assert inertia_weight(ConstrictionInertia(4.1), 3, 10) == pytest.approx(0.7298, abs=1e-4)


def test_fixed_inertia():
    assert inertia_weight(FixedInertia(0.72), 5, 10) == 0.72


@pytest.mark.parametrize("schedule", [AdaptiveInertia(), AdaptiveInertia(1.3, 0.3, True),
                                      AdaptiveInertia(0.9, 0.9), FixedInertia(0.72),
                                      ConstrictionInertia(4.1)], ids=repr)
@pytest.mark.parametrize("t_max", [1, 7, 200, 500, 999])
def test_inertia_weights_of_an_array_have_the_scalar_bits(schedule, t_max):
    cycles = np.arange(1, t_max + 1)
    weights = np.full(t_max, inertia_weight(schedule, cycles, t_max))
    assert [w.hex() for w in weights.tolist()] == [
        float(inertia_weight(schedule, t, t_max)).hex() for t in range(1, t_max + 1)]


# --- configuration --------------------------------------------------------------

def test_config_defaults_valid():
    validate_config(SwarmConfig())


_REJECTED = [
    (SwarmConfig(num_particles=1), "need at least 2 particles, got 1"),
    (SwarmConfig(num_particles=0), "need at least 2 particles, got 0"),
    (SwarmConfig(c1=0.0), "c1 and c2 must be positive, got 0.0, 1.49"),
    (SwarmConfig(max_sc=0), "success/failure thresholds must be >= 1"),
    (SwarmConfig(t_max=0), "t_max must be >= 1, got 0"),
    (SwarmConfig(inertia=ConstrictionInertia(3.9), c1=1.95, c2=1.95),
     "constriction requires phi = c1 + c2 > 4, got 3.9"),
    (SwarmConfig(inertia=ConstrictionInertia(4.1)), "constriction phi 4.1 must equal c1 + c2 = 2.98"),
    (SwarmConfig(seed=-1), "seed must be a non-negative integer, got -1"),
    (SwarmConfig(inertia=AdaptiveInertia(w_max=0.3, w_min=0.5)),
     "adaptive inertia needs w_max >= w_min"),
]


@pytest.mark.parametrize("bad, message", _REJECTED, ids=[f"bad{i}" for i in range(len(_REJECTED))])
def test_config_rejections(bad, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        validate_config(bad)


def test_constriction_config_accepts_matching_phi():
    validate_config(SwarmConfig(inertia=ConstrictionInertia(4.1), c1=2.05, c2=2.05))


# --- success/failure control -----------------------------------------------------

def test_first_improvement_keeps_radius():
    ctrl = GcpsoControl()
    update_control(ctrl, True, SwarmConfig())
    assert (ctrl.successes, ctrl.failures, ctrl.radius) == (1, 0, 1.0)


def test_radius_doubles_after_streak_exceeds_threshold():
    cfg = SwarmConfig()
    ctrl = GcpsoControl()
    for _ in range(16):
        update_control(ctrl, True, cfg)
    assert ctrl.successes == 16 and ctrl.radius == 1.0
    update_control(ctrl, True, cfg)  # previous streak 16 > 15 fires now
    assert ctrl.radius == 2.0


def test_radius_halves_after_failure_streak():
    cfg = SwarmConfig()
    ctrl = GcpsoControl()
    for _ in range(6):
        update_control(ctrl, False, cfg)
    assert ctrl.failures == 6 and ctrl.radius == 1.0
    update_control(ctrl, False, cfg)
    assert ctrl.radius == 0.5


def test_streaks_are_mutually_exclusive():
    cfg = SwarmConfig()
    ctrl = GcpsoControl()
    for improved in (True, True, False, True, False, False):
        update_control(ctrl, improved, cfg)
        assert ctrl.successes * ctrl.failures == 0


# --- golden one-cycle trace ------------------------------------------------------

KITE_CONFIG = SwarmConfig(num_particles=4, inertia=FixedInertia(0.72), c1=1.49, c2=1.49,
                          t_max=100, seed=3)


def _primed_agents(kite_instance):
    tree = build_bfs(kite_instance, 0)
    agents = [SwarmAgent(i, kite_instance, tree, KITE_CONFIG) for i in range(4)]
    for i, agent in enumerate(agents):
        agent.x[:] = KITE_POSITIONS[i]
        agent.v = np.zeros(4)
    return tree, agents


def test_one_cycle_reproduces_hand_tables(kite_instance):
    tree, agents = _primed_agents(kite_instance)
    rt = SyncRuntime(tree)
    stats = rt.run_cycle(agents, 1)

    assert (stats.value_count, stats.cost_count, stats.best_count) == (8, 3, 3)

    # local fitness per agent
    for i in range(4):
        np.testing.assert_allclose(agents[i].local_fitness, KITE_LOCAL_FITNESS[i], **TABLE)
    # aggregated fitness: root halves, leaves keep their local sums
    np.testing.assert_allclose(agents[0].fitness, KITE_ROOT_FITNESS, **TABLE)
    for i in (1, 2, 3):
        np.testing.assert_allclose(agents[i].fitness, KITE_LOCAL_FITNESS[i], **TABLE)

    # first cycle: every personal best advanced, particle 2 is the global best
    assert agents[0].control.best_particle == 2
    assert agents[0].g_best_fit == pytest.approx(7.00, abs=5e-3)
    for i in range(4):
        assert agents[i].g_best_x == pytest.approx(KITE_GBEST[i], abs=1e-12)
        np.testing.assert_allclose(agents[i].p_best_x, KITE_POSITIONS[i], atol=1e-12)
        assert agents[i].control.best_particle == 2
        assert (agents[i].control.successes, agents[i].control.failures) == (1, 0)
        assert agents[i].control.radius == 1.0

    # velocities and positions from the update kernel with r1=0.7, r2=0.4,
    # fed the state the cycle left behind
    for i, agent in enumerate(agents):
        x, v = pso_step(KITE_POSITIONS[i].copy(), np.zeros(4), agent.p_best_x, agent.g_best_x,
                        0.7 * KITE_CONFIG.c1, 0.4 * KITE_CONFIG.c2, 1.0 - 2.0 * 0.4, 0.72,
                        KITE_CONFIG, agent.control, agent.lb, agent.ub, None,
                        update_scratch(agent.x))
        np.testing.assert_allclose(v, KITE_UPDATED_V[i], **TABLE)
        np.testing.assert_allclose(x, KITE_UPDATED_X[i], **TABLE)


def test_all_zero_positions_give_zero_fitness(kite_instance):
    tree, agents = _primed_agents(kite_instance)
    for agent in agents:
        agent.x[:] = 0.0
    SyncRuntime(tree).run_cycle(agents, 1)
    for agent in agents:
        np.testing.assert_array_equal(agent.local_fitness, np.zeros(4))
    np.testing.assert_array_equal(agents[0].fitness, np.zeros(4))


def test_best_update_without_improvement(kite_instance):
    tree, agents = _primed_agents(kite_instance)
    SyncRuntime(tree).run_cycle(agents, 1)
    root = agents[0]
    g_before = root.g_best_fit

    # strictly worse fitness: nothing advances, no new global best
    root.fitness = root.p_best_fit + 1.0
    payload = root.best_payload()
    assert payload.improved == ()
    assert payload.best_index is None
    assert root.g_best_fit == g_before

    # exact ties lose to the incumbent as well
    root.fitness = root.p_best_fit.copy()
    payload = root.best_payload()
    assert payload.improved == ()
    assert payload.best_index is None
    assert root.g_best_fit == g_before


def test_best_update_rule_on_hand_made_rows():
    """The root rule on rows made by hand: strict less-than, the first of equal
    minima, and the first NaN picked over any finite particle."""
    improved = np.empty(4, dtype=bool)
    p_best = np.array([1.0, 2.0, 3.0, np.inf])
    fit = np.array([1.0, 5.0, 0.5, 0.5])
    # a tie (particle 0) does not improve; the argmin is the first 0.5
    assert best_update(fit, p_best, 0.75, improved) == (2, 2, True)
    assert improved.tolist() == [False, False, True, True]
    assert p_best.tolist() == [1.0, 2.0, 0.5, 0.5]
    # nor does a tie with the global best succeed
    assert best_update(fit, p_best, 0.5, improved) == (0, 2, False)
    assert p_best.tolist() == [1.0, 2.0, 0.5, 0.5]

    p_best = np.full(4, np.inf)
    fit = np.array([np.nan, -1.0, 0.0, np.nan])
    # np.argmin picks the first NaN, so -1.0 does not become the global best
    assert best_update(fit, p_best, np.inf, improved) == (2, 0, False)
    assert improved.tolist() == [False, True, True, False]
    assert p_best.tolist() == [np.inf, -1.0, 0.0, np.inf]


def test_crossover_probability_table(kite_instance):
    for i in range(4):
        bp = crossover_probabilities(KITE_LOCAL_FITNESS[i])
        np.testing.assert_allclose(bp, KITE_CROSSOVER_P[i], atol=5e-4)


def _cross_pair(x, v, r):
    """One row of two particles crossed with blend weight ``r``; both orders of
    the pair give the same result. Returns the row's x, v and kept indices."""
    x, v = np.array([x], dtype=float), np.array([v], dtype=float)
    keep = crossover_rows(x, v, np.ones((1, 2)), CrossoverScratch(1, 2), np.array([[0.5, 0.5, r]]))
    return x[0].tolist(), v[0].tolist(), sorted(keep.ravel().tolist())


def test_crossover_position_blend_by_hand():
    x, _, _ = _cross_pair([-2.0, 1.1], [0.0, 0.0], r=0.3)
    assert x[0] == pytest.approx(0.17)
    assert x[1] == pytest.approx(-1.07)


def test_crossover_velocity_alignment():
    assert _cross_pair([0.0, 0.0], [2.0, -1.0], 0.5)[1:] == ([2.0, 1.0], [0, 1])
    assert _cross_pair([0.0, 0.0], [-2.0, 1.0], 0.5)[1:] == ([-2.0, -1.0], [0, 1])
    assert _cross_pair([0.0, 0.0], [0.0, 0.0], 0.5)[1:] == ([0.0, 0.0], [])
    assert _cross_pair([0.0, 0.0], [1.5, -1.5], 0.5)[1:] == ([1.5, -1.5], [])


def test_crossover_draws_follow_searchsorted():
    """The draw is the first column above the target, found as an argmax, and
    equals ``searchsorted(side="right")`` capped at K - 1 on every row a
    cumulative sum of weights >= 0 can give."""
    below_one = np.nextafter(1.0, 0.0)
    for K in (2, 3, 50):
        head = np.cumsum(np.linspace(0.1, 1.0, K))
        inf_tail, nan_tail = head.copy(), head.copy()
        inf_tail[K // 2:] = np.inf
        nan_tail[K // 2:] = np.nan
        last = K - 1  # the draw of every row with no column above its target
        cases = [(head, 0.3, None), (head, 0.0, 0), (head, below_one, last),
                 (np.zeros(K), 0.5, last), (np.zeros(K), 0.0, last),
                 (np.r_[np.zeros(K - 1), 2.0], 0.0, last),
                 (np.r_[np.zeros(K - 1), 2.0], 0.5, last),
                 (inf_tail, 0.4, last), (inf_tail, 0.0, last), (nan_tail, 0.6, last),
                 (np.full(K, np.nan), 0.2, last)]
        if K == 3:
            cases += [([0.1, 0.5, 1.0], 0.3, 1), ([0.2, np.nan, np.nan], 0.5, 2),
                      ([0.0, 0.0, 0.0], 0.7, 2), ([0.25, 0.5, 0.5], 1.0, 2),
                      ([0.1, 0.2, np.inf], 0.0, 2), ([np.nan, np.nan, np.nan], 0.2, 2)]
        cdf = np.array([row for row, _, _ in cases], dtype=float)
        u = np.array([ui for _, ui, _ in cases])
        m = len(cases)
        scratch = CrossoverScratch(m, K)
        scratch.cdf[...] = cdf
        # garbage-filled scratch: the draw writes every value it reads, and
        # ``above`` keeps the True last column CrossoverScratch gave it
        index = np.full(m, 7, np.intp)
        scratch.target.fill(7.0)
        scratch.above[:, :-1] = True
        with np.errstate(invalid="ignore"):  # 0 * inf
            want = [min(int(c.searchsorted(ui * c[-1], side="right")), last)
                    for c, ui in zip(cdf, u)]
            got = scratch.draw(u, index)
        assert got is index
        assert got.tolist() == want, K
        assert [w for w, (_, _, pinned) in zip(want, cases) if pinned is not None] == [
            pinned for _, _, pinned in cases if pinned is not None], K


def _live_crossover(x, v, lf, rng):
    """One row's crossover drawing live from ``rng``: a, then b (uniform over
    the others when a carried all the weight), then r. Returns the fully
    crossed pair."""
    K = len(x)
    bp = crossover_probabilities(lf)
    cdf = bp.cumsum()
    a = min(int(cdf.searchsorted(rng.random() * cdf[-1], side="right")), K - 1)
    bp[a] = 0.0
    cdf = bp.cumsum()
    if cdf[-1] == 0.0:
        bp[:] = 1.0
        bp[a] = 0.0
        cdf = bp.cumsum()
    b = min(int(cdf.searchsorted(rng.random() * cdf[-1], side="right")), K - 1)
    r = rng.random()
    xa, xb = x[a], x[b]
    x[a], x[b] = r * xa + (1.0 - r) * xb, r * xb + (1.0 - r) * xa
    total = v[a] + v[b]
    if total == 0.0:
        return []
    unit = 1.0 if total > 0.0 else -1.0
    v[a], v[b] = unit * abs(v[a]), unit * abs(v[b])
    return [(a, b)]


# per row, the local fitness kind of each cycle: "flat" leaves one nonzero
# weight, so b is uniform over the other particles; rows 0 and 1 are flat two
# cycles running
CYCLE_KINDS = ["flat flat normal flat flat flat zero".split(),
               "normal flat flat nan flat flat inf".split(),
               "nan inf zero normal flat normal flat".split(),
               "normal normal normal normal normal normal normal".split()]


@pytest.mark.parametrize("K", [2, 3, 7])
def test_crossover_draw_stream_matches_live_generator(K, monkeypatch):
    """The crossover draws ``solve`` makes, in blocks of three cycles, give
    what each agent's generator yields live."""
    monkeypatch.setattr(swarm, "DRAW_CYCLES", 3)
    m, t_max = len(CYCLE_KINDS), len(CYCLE_KINDS[0])
    data = np.random.default_rng(K)
    x, v = data.normal(size=(m, K)), data.normal(size=(m, K))
    x_live, v_live = x.copy(), v.copy()
    scratch = CrossoverScratch(m, K)
    cfg = SwarmConfig(num_particles=K, t_max=t_max, crossover=True, seed=5)
    live = [agent_stream(5, i, 2) for i in range(m)]
    for t, (*_, u) in enumerate(swarm._cycle_draws(cfg, m), start=1):
        lf = data.normal(size=(m, K))
        for i, kinds in enumerate(CYCLE_KINDS):
            match kinds[t - 1]:
                case "flat":
                    lf[i] = 0.0
                    lf[i, data.integers(K)] = 1.5
                case "zero":
                    lf[i] = 0.0
                case "nan" | "inf" as kind:
                    lf[i, data.integers(K)] = float(kind)
        with np.errstate(invalid="ignore"):
            keep = crossover_rows(x, v, lf, scratch, u)
            want = [i * K + c for i in range(m)
                    for pair in _live_crossover(x_live[i], v_live[i], lf[i], live[i]) for c in pair]
        assert x.tobytes() == x_live.tobytes() and v.tobytes() == v_live.tobytes()
        assert sorted(keep.ravel().tolist()) == sorted(want)
    assert t == t_max


@pytest.mark.parametrize("K", [2, 3, 7])
def test_degenerate_row_picks_b_uniformly_over_the_others(K):
    """When ``a`` carries all of a row's weight, ``b`` comes from the row's own
    ``b`` double: ``u_b = (j + 0.5)/(K - 1)`` over j = 0..K-2 gives each other
    particle exactly once."""
    m = K - 1
    for a in range(K):
        lf = np.zeros((m, K))
        lf[:, a] = -2.5
        u = np.column_stack([np.full(m, 0.5), (np.arange(m) + 0.5) / m, np.full(m, 0.25)])
        x, v = np.zeros((m, K)), np.ones((m, K))
        keep = crossover_rows(x, v, lf, CrossoverScratch(m, K), u)
        picked = keep - np.arange(m) * K
        assert picked[0].tolist() == [a] * m
        assert sorted(picked[1].tolist()) == [c for c in range(K) if c != a]


def test_crossover_draws_three_doubles_per_row_per_cycle(monkeypatch):
    """Each agent's crossover stream gives three doubles a cycle, on rows where
    ``a`` carried all the weight too: after ``t_max`` cycles the agent's
    generator stands where ``random(3 * t_max)`` leaves a fresh one, and
    ``solve``'s where ``random`` of its whole blocks does."""
    cfg = SwarmConfig(num_particles=2, t_max=40, crossover=True, seed=1)
    tree = build_bfs(FLAT)
    agents = [SwarmAgent(i, FLAT, tree, cfg) for i in range(3)]
    runtime, degenerate = SyncRuntime(tree), 0
    for t in range(1, cfg.t_max + 1):
        runtime.run_cycle(agents, t)
        degenerate += sum(np.count_nonzero(crossover_probabilities(agent.local_fitness)) == 1
                          for agent in agents)
    assert degenerate > 0

    def fresh_state(agent_id, doubles):
        rng = agent_stream(cfg.seed, agent_id, 2)
        rng.random(doubles)
        return rng.bit_generator.state

    assert [a.rng_cross.bit_generator.state for a in agents] == [
        fresh_state(i, 3 * cfg.t_max) for i in range(3)]

    made = {}

    def recording_stream(seed, agent_id, label):
        made[agent_id, label] = rng = agent_stream(seed, agent_id, label)
        return rng

    monkeypatch.setattr(swarm, "agent_stream", recording_stream)
    monkeypatch.setattr(swarm, "DRAW_CYCLES", 16)
    solve(FLAT, cfg)
    # three blocks of 16 cycles cover the 40
    assert [made[i, 2].bit_generator.state for i in range(3)] == [
        fresh_state(i, 3 * 48) for i in range(3)]


@pytest.mark.parametrize("m", [1, 4], ids=["agent_row", "solve_rows"])
def test_crossover_workspace_reuse_matches_fresh_buffers(m):
    """Each cycle, the reused workspace gives what fresh (garbage-filled)
    scratch gives; and the update keeps exactly the fully crossed elements.
    m = 1 is the agent's one-row shape."""
    K, t_max = 5, 6
    data = np.random.default_rng(m)
    x, v = data.uniform(-5, 5, size=(m, K)), data.normal(size=(m, K))
    scratch = CrossoverScratch(m, K)
    cfg, ctrl = SwarmConfig(num_particles=K, t_max=t_max), GcpsoControl(best_particle=2)
    for t in range(1, t_max + 1):
        lf, u = data.normal(size=(m, K)), data.random((m, 3))
        match t:
            case 2:
                lf[0] = 0.0  # all-zero row: uniform weights
            case 3:
                lf[-1, 1] = np.nan
            case 4:
                v[0] = 0.0  # every pair's velocities sum to 0: row 0 is not crossed
            case 5:
                lf[0] = 0.0
                lf[0, 2] = 1.5  # one weight: b is uniform over the others
        # new scratch, garbage-filled in place (some buffers are views of others)
        fresh = CrossoverScratch(m, K)
        for name, buf in vars(fresh).items():  # every scratch buffer: all arrays but the offsets
            if isinstance(buf, np.ndarray) and name != "offsets":
                buf[...] = 7 if buf.dtype != bool else True
        x_fresh, v_fresh = x.copy(), v.copy()
        with np.errstate(invalid="ignore"):
            keep = crossover_rows(x, v, lf, scratch, u).copy()
            keep_fresh = crossover_rows(x_fresh, v_fresh, lf, fresh, u)
        assert x.tobytes() == x_fresh.tobytes() and v.tobytes() == v_fresh.tobytes()
        assert keep.tolist() == keep_fresh.tolist()
        if t == 4:
            assert not any(0 <= i < K for i in keep.ravel())

        # the update keeps exactly the elements at ``keep``, in either shape
        p_best_x, r1, r2 = data.uniform(-5, 5, size=(m, K)), data.random(), data.random()
        crossed_x, crossed_v = x.copy(), v.copy()
        free_x, free_v = x.copy(), v.copy()
        rows = (lambda a: a[0]) if m == 1 else (lambda a: a)  # the agent updates 1-D vectors
        products = (r1 * cfg.c1, r2 * cfg.c2, 1.0 - 2.0 * r2)
        pso_step(rows(free_x), rows(free_v), rows(p_best_x), 0.5, *products, 0.7, cfg, ctrl,
                 -100.0, 100.0, None, update_scratch(rows(x)))
        pso_step(rows(x), rows(v), rows(p_best_x), 0.5, *products, 0.7, cfg, ctrl, -100.0, 100.0,
                 keep, update_scratch(rows(x)))
        kept = np.zeros(m * K, dtype=bool)
        kept[keep.ravel()] = True
        for got, before, free in ((x, crossed_x, free_x), (v, crossed_v, free_v)):
            got, before, free = got.ravel(), before.ravel(), free.ravel()
            assert got[kept].tobytes() == before[kept].tobytes()
            assert got[~kept].tobytes() == free[~kept].tobytes()
            assert np.all(got[~kept] != before[~kept])


def test_draw_block_does_not_change_the_trace(monkeypatch, tmp_path):
    """Drawing the streams 1, 7 or all t_max cycles at a time gives the same
    trace. Two of the three particles clamped to 0.0 leave one nonzero
    crossover weight in some rows. (With two particles, crossover moves both
    every cycle and the swarm settles by cycle 3.)"""
    inst = make_instance(3, [((0, 1), "(* x0 x1)"), ((1, 2), "(* x0 x1)")], domain=(0.0, 1.0))
    t_max = 30
    for crossover in (False, True):
        cfg = SwarmConfig(num_particles=3, t_max=t_max, crossover=crossover, seed=2)
        traces = []
        for cycles in (t_max, 1, 7):
            monkeypatch.setattr(swarm, "DRAW_CYCLES", cycles)
            traces.append(solve(inst, cfg, record_probes=True))
        for trace in traces[1:]:
            assert_bit_identical(trace, traces[0], tmp_path)


def test_solve_memory_does_not_grow_with_t_max():
    """The random draws are held a block of cycles at a time, so a run five
    times longer peaks about 0.4 MiB higher, for its trace rows; drawn for
    the whole run, they made it peak 6.4 MiB higher."""
    inst = generate(BenchSpec("sensor", rows=8, cols=8, seed=1))
    peaks = []
    for t_max in (500, 2500):
        cfg = SwarmConfig(num_particles=8, t_max=t_max, crossover=True, seed=1)
        tracemalloc.start()
        try:
            solve(inst, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 * 2 ** 20


def test_solve_message_log_does_not_grow_with_the_messages():
    """A run's message log keeps one BEST length a cycle and the tree's
    routes, not one ``Message`` per message: 240 more cycles at this shape
    send 130,560 more messages, which held as ``Message`` tuples peaked
    11.9 MiB higher."""
    inst = generate(BenchSpec("er", n=50, p=0.2, seed=1))
    peaks = []
    for t_max in (60, 300):
        cfg = SwarmConfig(num_particles=20, t_max=t_max, seed=1)
        tracemalloc.start()
        try:
            assert len(solve(inst, cfg).messages) > 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 20


def test_crossover_probabilities_degenerate_uniform():
    bp = crossover_probabilities(np.zeros(5))
    np.testing.assert_allclose(bp, np.full(5, 0.2))


@given(st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False),
       st.floats(0, 1, allow_nan=False))
def test_crossover_stays_in_parent_hull(xa, xb, r):
    lo, hi = min(xa, xb), max(xa, xb)
    ya, yb = _cross_pair([xa, xb], [0.0, 0.0], r)[0]
    assert lo - 1e-9 <= ya <= hi + 1e-9
    assert lo - 1e-9 <= yb <= hi + 1e-9


# --- velocity equations -----------------------------------------------------------

def _velocity(v, x, p_best, g_best, w, c1, c2, r1, r2, inertia=FixedInertia(0.72)):
    """One particle's new velocity from the update kernel (no global best, no clamp)."""
    cfg = SwarmConfig(c1=c1, c2=c2, inertia=inertia)
    x = np.array([x])
    _, v_new = pso_step(x, np.array([v]), np.array([p_best]), g_best, r1 * c1, r2 * c2,
                        1.0 - 2.0 * r2, w, cfg, GcpsoControl(), -np.inf, np.inf, None,
                        update_scratch(x))
    return float(v_new[0])


def test_velocity_standard_by_hand():
    # 0.72*0 + 0.7*1.49*(-1 - -1) + 0.4*1.49*(0 - -1)
    v = _velocity(0.0, -1.0, -1.0, 0.0, 0.72, 1.49, 1.49, 0.7, 0.4)
    assert v == pytest.approx(0.596)


def test_velocity_global_best_by_hand():
    v = velocity_global_best(0.0, 0.0, 0.0, 0.72, 1.0, 1.0 - 2.0 * 0.4, np.empty((3, 1)))
    assert v == pytest.approx(0.20)


def test_velocity_constricted_scales_everything():
    args = (1.0, 2.0, 3.0, 4.0, 0.7298, 2.05, 2.05, 0.5, 0.5)
    inner = 1.0 + 0.5 * 2.05 * (3.0 - 2.0) + 0.5 * 2.05 * (4.0 - 2.0)
    v = _velocity(*args, inertia=ConstrictionInertia(4.1))
    assert v == pytest.approx(0.7298 * inner)


def test_clamp_pair_matches_clip_bitwise():
    """``pso_step`` clamps with maximum then minimum; pin that this gives the
    bits of ``np.clip`` on signed zeros, subnormals, huge values, infinities
    and NaNs of both signs."""
    values = [0.0, 5e-324, 1.0, 1e300, np.inf, np.nan]
    grid = np.array(values + [np.copysign(value, -1.0) for value in values])
    x, lb, ub = (axis.ravel() for axis in np.meshgrid(grid, grid, grid, indexing="ij"))
    pair = np.minimum(np.maximum(x, lb), ub)
    assert pair.view(np.int64).tolist() == np.clip(x, lb, ub).view(np.int64).tolist()


_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0)]
_UPDATE_VALUES = st.one_of(st.sampled_from(_SPECIAL), st.floats(-10.0, 10.0),
                           st.floats(-1e308, 1e308))


@st.composite
def _update_case(draw):
    """Inputs of one update: one agent's vectors with scalars (``agent``), or
    ``(n, K)`` matrices with ``(n, 1)`` columns and full-size bounds."""
    agent = draw(st.booleans())
    n, K = 1 if agent else draw(st.integers(1, 3)), draw(st.integers(2, 4))

    def matrix(rows, cols, elements=_UPDATE_VALUES):
        values = draw(st.lists(elements, min_size=rows * cols, max_size=rows * cols))
        return np.array(values, dtype=float).reshape(rows, cols)

    x, v, p_best = matrix(n, K), matrix(n, K), matrix(n, K)
    # what ``random()`` yields: multiples of 2**-53 in [0, 1)
    draws = st.integers(0, 2 ** 53 - 1).map(lambda i: i / 2 ** 53)
    g_best, r1, r2 = matrix(n, 1), *matrix(2, n, draws)
    r1, r2 = r1[:, None], r2[:, None]
    lb, ub = draw(st.sampled_from([(-np.inf, np.inf), (-5.0, 5.0)]))
    if agent:
        x, v, p_best = x[0], v[0], p_best[0]
        g_best, r1, r2 = float(g_best[0, 0]), float(r1[0, 0]), float(r2[0, 0])
    else:
        lb, ub = np.full((n, K), lb), np.full((n, K), ub)
    kept = draw(st.lists(st.booleans(), min_size=n * K, max_size=n * K))
    return dict(
        x=x, v=v, p_best=p_best, g_best=g_best, r1=r1, r2=r2, lb=lb, ub=ub,
        w=draw(st.sampled_from([0.72, 0.7298, 1.4, 0.4])),
        c1=draw(st.sampled_from([1.49, 2.05])), c2=draw(st.sampled_from([1.49, 2.05])),
        constricted=draw(st.booleans()), radius=draw(st.sampled_from([0.25, 1.0, 8.0])),
        best=draw(st.none() | st.integers(0, K - 1)),
        keep=np.flatnonzero(kept) if any(kept) else None)


def _literal_update(x, v, p_best, g_best, r1, r2, w, c1, c2, constricted, radius, best, keep,
                    lb, ub):
    """The update's formulas written out with operators, on copies: the rule
    ``pso_step`` must keep, operation for operation."""
    x, v = x.copy(), v.copy()
    if best is not None:
        column = np.s_[..., best:best + 1]
        v_best = -x[column] + g_best + w * v[column] + radius * (1.0 - 2.0 * r2)
    if keep is not None:
        kept_v, kept_x = v.take(keep), x.take(keep)
    pulls = (p_best - x) * (r1 * c1) + (g_best - x) * (r2 * c2)
    v = (v + pulls) * w if constricted else v * w + pulls
    if best is not None:
        v[column] = v_best
    if keep is not None:
        v.put(keep, kept_v)
    x = x + v
    if keep is not None:
        x.put(keep, kept_x)
    return np.minimum(np.maximum(x, lb), ub), v


def _warnings_of(fn):
    """``fn()``'s result and the messages of the RuntimeWarnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        result = fn()
    return result, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


def _pinned_case(x, v, g_best, best, keep, constricted, **rest):
    """An update case with the given values and plain defaults for the rest."""
    x, v = np.array(x), np.array(v)
    bounds = (-np.inf, np.inf) if x.ndim == 1 else (np.full(x.shape, -np.inf),
                                                    np.full(x.shape, np.inf))
    r1, r2 = (0.25, 0.75) if x.ndim == 1 else (np.full((len(x), 1), 0.25),
                                                np.full((len(x), 1), 0.75))
    return dict(dict(x=x, v=v, p_best=np.zeros_like(x), g_best=g_best, r1=r1, r2=r2,
                     lb=bounds[0], ub=bounds[1], w=0.72, c1=1.49, c2=1.49,
                     constricted=constricted, radius=1.0, best=best, keep=keep),
                **rest)


_NEG_NAN = np.copysign(np.nan, -1.0)


# the best particle's column meets NaNs of both signs and inf - inf, which
# tell -x + g from g - x by the NaN's sign and by the warning's text
@example(_pinned_case(x=[[np.nan, 1.0, 0.0], [_NEG_NAN, -0.0, 2.0], [np.inf, np.inf, -1.0]],
                      v=[[1.0, np.nan, 0.0], [_NEG_NAN, 1.0, -0.0], [np.nan, 0.5, np.inf]],
                      g_best=np.array([[0.5], [np.nan], [np.inf]]), best=0,
                      keep=np.array([2, 4]), constricted=False))
@example(_pinned_case(x=[np.nan, 1.0], v=[np.nan, -0.0], g_best=0.5, best=0,
                      keep=np.array([1]), constricted=True))
@given(_update_case())
def test_pso_step_matches_literal_formulas_bitwise(case):
    """``pso_step`` on pre-scaled draws gives the bits and the warnings of the
    formulas (p - x)*(r1*c1), (g - x)*(r2*c2) and, for the best particle,
    -x + g + w*v + radius*(1 - 2*r2), on signed zeros, infinities and NaNs
    of both signs."""
    c = case
    inertia = ConstrictionInertia(c["c1"] + c["c2"]) if c["constricted"] else FixedInertia(c["w"])
    cfg = SwarmConfig(c1=c["c1"], c2=c["c2"], inertia=inertia)
    ctrl = GcpsoControl(radius=c["radius"], best_particle=c["best"])
    x, v = c["x"].copy(), c["v"].copy()
    r1, r2 = c["r1"], c["r2"]
    products = (r1 * c["c1"], r2 * c["c2"], 1.0 - 2.0 * r2)  # as solve makes them, per run
    (x_new, v_new), got = _warnings_of(lambda: pso_step(
        x, v, c["p_best"], c["g_best"], *products, c["w"], cfg, ctrl, c["lb"], c["ub"],
        c["keep"], update_scratch(x)))
    (x_want, v_want), want = _warnings_of(lambda: _literal_update(
        c["x"], c["v"], c["p_best"], c["g_best"], r1, r2, c["w"], c["c1"], c["c2"],
        c["constricted"], c["radius"], c["best"], c["keep"], c["lb"], c["ub"]))
    assert v_new.view(np.int64).tolist() == v_want.view(np.int64).tolist()
    assert x_new.view(np.int64).tolist() == x_want.view(np.int64).tolist()
    assert got == want


def test_fixed_point_particle_stays_put():
    v = _velocity(0.0, 2.5, 2.5, 2.5, 0.72, 1.49, 1.49, 0.3, 0.9)
    assert v == 0.0


# --- initialization ----------------------------------------------------------------

def test_initialization_state(kite_instance):
    tree = build_bfs(kite_instance, 0)
    cfg = SwarmConfig(num_particles=32, seed=42, t_max=10)
    agent = SwarmAgent(1, kite_instance, tree, cfg)
    assert np.all(agent.v == 0.0)
    assert np.all((agent.x >= -10.0) & (agent.x <= 10.0))
    assert agent.g_best_fit == np.inf
    again = SwarmAgent(1, kite_instance, tree, cfg)
    np.testing.assert_array_equal(agent.x, again.x)


def test_initialization_streams_differ_by_agent(kite_instance):
    tree = build_bfs(kite_instance, 0)
    cfg = SwarmConfig(num_particles=32, seed=42, t_max=10)
    a0 = SwarmAgent(0, kite_instance, tree, cfg)
    a1 = SwarmAgent(1, kite_instance, tree, cfg)
    assert not np.array_equal(a0.x, a1.x)


def test_missing_message_guard(kite_instance):
    """The runtime stops a cycle at a short VALUE mailbox: no agent's
    ``handle_values`` sees it."""
    tree = build_bfs(kite_instance, 0)
    cfg = SwarmConfig(num_particles=4, t_max=5)
    agents = [SwarmAgent(i, kite_instance, tree, cfg) for i in range(4)]
    agents[2].value_payload = lambda: None  # agent 2 sends no position
    handled = []
    for agent in agents:
        agent.handle_values = lambda box, i=agent.id: handled.append(i)
    with pytest.raises(DeadlockDetected, match=r"^agent 0 never received VALUE from \[2\]$"):
        SyncRuntime(tree).run_cycle(agents, 1)
    assert handled == []


# --- solve -------------------------------------------------------------------------

def _trace_key(trace):
    return [(r.cycle, r.best_internal, r.assignment,
             r.stats.value_count, r.stats.cost_count, r.stats.best_count)
            for r in trace.rows]


def test_solve_monotone_and_deterministic(kite_instance):
    cfg = SwarmConfig(num_particles=20, t_max=60, seed=11)
    t1 = solve(kite_instance, cfg)
    t2 = solve(kite_instance, cfg)
    internal = t1.internal_series()
    assert all(b <= a for a, b in zip(internal, internal[1:]))
    assert _trace_key(t1) == _trace_key(t2)


def test_solve_reaches_convex_optimum(two_agent_convex):
    cfg = SwarmConfig(num_particles=200, t_max=500, seed=5)
    trace = solve(two_agent_convex, cfg)
    assert trace.best_internal < 1e-2


def test_positions_stay_clamped(kite_instance):
    cfg = SwarmConfig(num_particles=16, t_max=40, seed=3)
    trace = solve(kite_instance, cfg, record_probes=True)
    for positions, _ in trace.probes:
        assert np.all(positions >= -10.0 - 1e-12)
        assert np.all(positions <= 10.0 + 1e-12)


def test_root_fitness_matches_centralized(kite_instance):
    cfg = SwarmConfig(num_particles=8, t_max=25, seed=9)
    trace = solve(kite_instance, cfg, record_probes=True)
    for positions, fitness in trace.probes:
        for k in range(8):
            direct = global_cost(kite_instance, positions[:, k])
            assert fitness[k] == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_personal_best_snapshots_cohere(kite_instance):
    cfg = SwarmConfig(num_particles=8, t_max=30, seed=13)
    tree = build_bfs(kite_instance, 0)
    agents = [SwarmAgent(i, kite_instance, tree, cfg) for i in range(4)]
    rt = SyncRuntime(tree)
    for t in range(1, 31):
        rt.run_cycle(agents, t)
        root = agents[0]
        for k in range(8):
            if np.isfinite(root.p_best_fit[k]):
                vec = np.array([a.p_best_x[k] for a in agents])
                assert global_cost(kite_instance, vec) == pytest.approx(
                    root.p_best_fit[k], rel=1e-9, abs=1e-9)


def test_crossover_does_not_change_first_evaluation(kite_instance):
    plain = solve(kite_instance, SwarmConfig(num_particles=12, t_max=1, seed=21),
                  record_probes=True)
    crossed = solve(kite_instance,
                    SwarmConfig(num_particles=12, t_max=1, seed=21, crossover=True),
                    record_probes=True)
    np.testing.assert_array_equal(plain.probes[0][0], crossed.probes[0][0])
    np.testing.assert_array_equal(plain.probes[0][1], crossed.probes[0][1])


def test_crossover_run_monotone_and_in_bounds(kite_instance):
    cfg = SwarmConfig(num_particles=12, t_max=60, seed=2, crossover=True)
    trace = solve(kite_instance, cfg, record_probes=True)
    internal = trace.internal_series()
    assert all(b <= a for a, b in zip(internal, internal[1:]))
    for positions, _ in trace.probes:
        assert np.all(np.abs(positions) <= 10.0 + 1e-12)


def test_solve_single_agent():
    from cdcop import CdcopInstance, Domain
    inst = CdcopInstance(1, (Domain(-1.0, 1.0),), (), "min")
    trace = solve(inst, SwarmConfig(num_particles=4, t_max=5, seed=0))
    assert trace.best_internal == 0.0
    assert trace.rows[0].stats.total_messages == 0


def test_max_instance_reports_restored_sign():
    from conftest import make_instance
    inst = make_instance(2, [((0, 1), "(/ 100.0 (+ (^ (- x0 x1) 2) 1.0))")],
                         domain=(0.0, 10.0), objective="max")
    trace = solve(inst, SwarmConfig(num_particles=20, t_max=40, seed=1))
    display = trace.display_series()
    assert all(c > 0 for c in display)
    assert all(b >= a for a, b in zip(display, display[1:]))
    assert trace.best_cost == pytest.approx(-trace.best_internal)


@pytest.mark.parametrize("make_chain", [sum_chain, neg_pow_chain], ids=["sum", "neg_pow"])
def test_deep_expression_solves_on_both_paths(make_chain, tmp_path):
    """``solve`` and ``SwarmAgent`` on ``SyncRuntime`` run a function nested
    5000 deep, bit for bit alike."""
    inst = CdcopInstance(3, (Domain(-1.0, 1.0),) * 3,
                         (CostFunction(0, (0, 1), make_chain(5000)),
                          CostFunction(1, (1, 2), Mul(Var(0), Var(1)))), "min")
    cfg = SwarmConfig(num_particles=6, t_max=5, crossover=True, seed=2)
    assert_bit_identical(solve(inst, cfg, record_probes=True),
                         reference_solve(inst, cfg, record_probes=True),
                         tmp_path)
