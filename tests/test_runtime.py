import re
from dataclasses import replace

import numpy as np
import pytest

from cdcop import CdcopInstance, Domain, build_bfs
from cdcop.benchmarks import BenchSpec, generate
from cdcop.runtime import (
    BestPayload,
    DeadlockDetected,
    Message,
    MessageLog,
    SyncRuntime,
    Traffic,
    message_stats,
    write_message_log_csv,
)
from cdcop.swarm import SwarmConfig, solve

from conftest import make_instance


class StubAgent:
    """Minimal conforming handler set: constant payloads, records deliveries."""

    def __init__(self, agent_id, num_particles=3, best=BestPayload((0, 2), 1, -4.5)):
        self.id = agent_id
        self.K = num_particles
        self.best = best
        self.values_seen = {}
        self.costs_seen = {}
        self.best_seen = None
        self.cycles_ended = 0

    def value_payload(self):
        return np.full(self.K, float(self.id))

    def handle_values(self, by_sender):
        self.values_seen = {k: v.copy() for k, v in by_sender.items()}

    def handle_costs(self, by_child):
        self.costs_seen = {k: v.copy() for k, v in by_child.items()}

    def cost_payload(self):
        return np.full(self.K, 10.0 + self.id)

    def best_payload(self):
        return self.best

    def handle_best(self, payload):
        self.best_seen = payload

    def end_cycle(self):
        self.cycles_ended += 1


def _run(inst, cycles=1, log=False, agent_cls=StubAgent):
    tree = build_bfs(inst, 0)
    agents = [agent_cls(i) for i in range(inst.num_agents)]
    rt = SyncRuntime(tree, log_messages=log)
    stats = [rt.run_cycle(agents, t) for t in range(1, cycles + 1)]
    return tree, agents, rt, stats


def test_kite_message_counts(kite_instance):
    _, _, _, stats = _run(kite_instance)
    st = stats[0]
    assert (st.value_count, st.cost_count, st.best_count) == (8, 3, 3)
    assert st.total_messages == 14


def test_path_message_counts(path3_instance):
    _, _, _, stats = _run(path3_instance)
    st = stats[0]
    assert (st.value_count, st.cost_count, st.best_count) == (4, 2, 2)


def test_single_agent_no_messages():
    inst = CdcopInstance(1, (Domain(0.0, 1.0),), (), "min")
    _, agents, _, stats = _run(inst)
    st = stats[0]
    assert (st.value_count, st.cost_count, st.best_count) == (0, 0, 0)
    assert st.best_len == 4  # the root's payload, though it has no child to send it to
    assert agents[0].cycles_ended == 1


def test_every_send_delivered_once(kite_instance):
    tree, agents, _, _ = _run(kite_instance)
    for i, agent in enumerate(agents):
        assert sorted(agent.values_seen) == list(tree.neighbors[i])
        for sender, payload in agent.values_seen.items():
            assert payload.tolist() == [float(sender)] * 3
        assert sorted(agent.costs_seen) == list(tree.children[i])
    # every non-root saw the root's verdict
    for i in range(1, 4):
        assert agents[i].best_seen == BestPayload((0, 2), 1, -4.5)


def test_hops_per_cycle(kite_instance, path3_instance):
    cfg = SwarmConfig(num_particles=2, t_max=1)
    assert solve(kite_instance, cfg).hops_per_cycle == 3
    assert solve(path3_instance, cfg).hops_per_cycle == 5


def _sent_by_sender(log):
    """The scalars each agent sent, summed over a cycle's message log."""
    sent = {}
    for message in log:
        sent[message.sender] = sent.get(message.sender, 0) + message.payload_len
    return sent


def _assert_traffic_is_the_runtimes(tree, K):
    """At every BEST length a run can send, ``Traffic``'s counts, messages in
    send order and per-agent sends are a ``SyncRuntime`` cycle's, each within
    the bound; one scalar more than K + 2 breaks the bound of exactly the
    agents with children."""
    traffic = Traffic(tree, K)
    for best_len in range(K + 3):
        spec, log = _spec_cycle(tree, K, best_len)
        assert traffic.cycle_stats(1, best_len) == spec
        assert list(MessageLog(traffic, [best_len])) == log
        assert _sent_by_sender(log) == traffic.sent_scalars(best_len)
        assert message_stats([spec], tree, K)["violations"] == []
    bounds = traffic.sent_scalars(K + 2)
    over, log = _spec_cycle(tree, K, K + 3)
    sent = _sent_by_sender(log)
    assert sent == traffic.sent_scalars(K + 3)
    assert message_stats([over], tree, K)["violations"] == [
        (1, a, sent[a], bounds[a]) for a in range(tree.num_agents) if tree.children[a]]
    assert all(sent[a] > bounds[a] for a in range(tree.num_agents) if tree.children[a])


def test_per_agent_scalar_accounting(kite_instance):
    tree, _, rt, stats = _run(kite_instance, log=True)
    sent = _sent_by_sender(rt.log)
    # root: 3 VALUE x 3 scalars + 3 BEST x (2 indices + best pair)
    assert sent[0] == 3 * 3 + 3 * 4
    # leaf agent 1: 1 VALUE + 1 COST
    assert sent[1] == 3 + 3
    # leaves 2 and 3 also exchange with each other: 2 VALUE + 1 COST
    assert sent[2] == sent[3] == 2 * 3 + 3
    assert stats[0].best_len == 4
    assert stats[0].payload_scalars == sum(sent.values())
    _assert_traffic_is_the_runtimes(tree, 3)


def _best_of_len(best_len):
    """A BEST payload of ``best_len`` scalars: the index and fitness of a new
    best from 2 on, the rest improved indices."""
    if best_len < 2:
        return BestPayload(tuple(range(best_len)), None, None)
    return BestPayload(tuple(range(best_len - 2)), 0, 0.0)


def _spec_cycle(tree, num_particles, best_len):
    """One SyncRuntime cycle of stubs, with its wall time zeroed, and its message log."""
    best = _best_of_len(best_len)
    stubs = [StubAgent(i, num_particles, best) for i in range(tree.num_agents)]
    runtime = SyncRuntime(tree, log_messages=True)
    stats = runtime.run_cycle(stubs, 1)
    stats.duration_s = 0.0
    return stats, runtime.log


@pytest.mark.parametrize("seed", range(20))
def test_traffic_rule_matches_the_runtime(seed):
    """On a random tree, ``Traffic`` is the runtime's at every BEST length."""
    rng = np.random.default_rng(seed)
    n, K = int(rng.integers(1, 13)), int(rng.integers(2, 7))
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}  # a random spanning tree
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3}
    inst = make_instance(n, [(e, "(* x0 x1)") for e in sorted(edges)])
    _assert_traffic_is_the_runtimes(build_bfs(inst, int(rng.integers(n))), K)


TRAFFIC_TREES = {
    "kite": lambda kite: kite,
    "chain6": lambda _: make_instance(6, [((a, a + 1), "(* x0 x1)") for a in range(5)]),
    "broom35": lambda _: make_instance(35, [((0, 1), "(* x0 x1)")]
                                       + [((1, leaf), "(* x0 x1)") for leaf in range(2, 35)]),
    "er50": lambda _: generate(BenchSpec("er", n=50, p=0.2, seed=1)),
}


@pytest.mark.parametrize("K", [2, 8, 200])
@pytest.mark.parametrize("shape", sorted(TRAFFIC_TREES))
def test_derived_traffic_map_reads_as_the_rule_dict(kite_instance, shape, K):
    """For every BEST length L a run can send, ``Traffic.sent_scalars(L)`` is
    the dict {a: K*(|N_a| + [a has a parent]) + L*|CH_a|}, with ``int`` values."""
    tree = build_bfs(TRAFFIC_TREES[shape](kite_instance), 0)
    traffic = Traffic(tree, K)
    for best_len in range(K + 3):
        want = {a: K * (len(tree.neighbors[a]) + (tree.parent[a] is not None))
                + best_len * len(tree.children[a]) for a in range(tree.num_agents)}
        sent = traffic.sent_scalars(best_len)
        assert type(sent) is dict and sent == want
        assert all(type(value) is int for value in sent.values())


def test_payload_bound_check(kite_instance):
    tree, _, _, stats = _run(kite_instance, cycles=3)
    assert message_stats(stats, tree, num_particles=3)["violations"] == []
    # the root, the one agent with children, may send 3 x 3 VALUE scalars and
    # K + 2 = 5 BEST scalars per child; the stub sends 4, so 6 breaks the bound
    over = [replace(st, best_len=6) for st in stats]
    assert message_stats(over, tree, num_particles=3)["violations"] == [
        (cycle, 0, 3 * 3 + 3 * 6, 3 * 3 + 3 * 5) for cycle in (1, 2, 3)]


def test_deadlock_on_withheld_cost(kite_instance):
    class Withholding(StubAgent):
        def cost_payload(self):
            return None

    with pytest.raises(DeadlockDetected, match="COST"):
        _run(kite_instance, agent_cls=Withholding)


def test_deadlock_on_withheld_value(kite_instance):
    class Silent(StubAgent):
        def value_payload(self):
            return None

    with pytest.raises(DeadlockDetected, match="VALUE"):
        _run(kite_instance, agent_cls=Silent)


@pytest.mark.parametrize("root", range(4))
def test_withheld_best_reaches_no_child(kite_instance, root):
    """A root verdict of None sends nothing: each child of the root waits for
    it, the first to run names the root, and no agent handles a BEST."""
    tree = build_bfs(kite_instance, root)
    agents = [StubAgent(i, best=None) for i in range(4)]
    rt = SyncRuntime(tree)
    first = tree.children[root][0]
    with pytest.raises(DeadlockDetected, match=rf"^agent {first} never received BEST from \[{root}\]$"):
        rt.run_cycle(agents, 1)
    assert [a.best_seen for a in agents] == [None] * 4
    for child in tree.children[root]:
        with pytest.raises(DeadlockDetected, match=rf"^agent {child} never received BEST from \[{root}\]$"):
            rt._collect("BEST", child, (root,))


class WithholdsInCycle2(StubAgent):
    """Returns None from the payload handler ``withheld`` in cycle 2 only."""

    def __init__(self, agent_id, withheld=None):
        super().__init__(agent_id)
        self.withheld = withheld

    def _sends(self, handler):
        return not (handler == self.withheld and self.cycles_ended == 1)

    def value_payload(self):
        return super().value_payload() if self._sends("value_payload") else None

    def cost_payload(self):
        return super().cost_payload() if self._sends("cost_payload") else None

    def best_payload(self):
        return super().best_payload() if self._sends("best_payload") else None


@pytest.mark.parametrize("handler, agent, error", [
    ("value_payload", 1, "agent 0 never received VALUE from [1]"),
    ("cost_payload", 1, "agent 0 never received COST from [1]"),
    ("best_payload", 0, "agent 1 never received BEST from [0]"),
])
def test_message_withheld_in_a_later_cycle_deadlocks_that_cycle(kite_instance, handler, agent,
                                                                 error):
    """A cycle's messages leave the mailbox when handled, so one withheld in
    cycle 2 is missed in cycle 2, not covered by cycle 1's."""
    tree = build_bfs(kite_instance, 0)
    agents = [WithholdsInCycle2(i, handler if i == agent else None) for i in range(4)]
    rt = SyncRuntime(tree)
    rt.run_cycle(agents, 1)
    with pytest.raises(DeadlockDetected, match=f"^{re.escape(error)}$"):
        rt.run_cycle(agents, 2)


@pytest.mark.parametrize("num_particles", [1, 3, 8])
def test_best_payload_len_counts_its_scalars(num_particles):
    for best_len in range(num_particles + 3):
        assert len(_best_of_len(best_len)) == best_len
    assert len(BestPayload((), 3, -1.0)) == 2
    assert len(BestPayload((0, 4), None, None)) == 2


def test_message_log_and_csv(kite_instance, tmp_path):
    _, _, rt, _ = _run(kite_instance, cycles=2, log=True)
    assert len(rt.log) == 2 * 14
    kinds = {m.kind for m in rt.log}
    assert kinds == {"VALUE", "COST", "BEST"}
    assert all(isinstance(m, Message) for m in rt.log)
    out = tmp_path / "messages.csv"
    write_message_log_csv(rt.log, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "cycle,kind,from,to,payload_len"
    assert len(lines) == 1 + 28


def test_message_sequence_deterministic(kite_instance):
    _, _, rt1, _ = _run(kite_instance, cycles=2, log=True)
    _, _, rt2, _ = _run(kite_instance, cycles=2, log=True)
    assert rt1.log == rt2.log
