import numpy as np
import pytest

from cdcop import CdcopInstance, Domain, build_bfs, runtime
from cdcop.runtime import (
    BestPayload,
    DeadlockDetected,
    Message,
    SyncRuntime,
    message_stats,
    write_message_log_csv,
)
from cdcop.swarm import SwarmConfig, solve

from conftest import make_instance


class StubAgent:
    """Minimal conforming handler set: constant payloads, records deliveries."""

    def __init__(self, agent_id, num_particles=3):
        self.id = agent_id
        self.K = num_particles
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
        return BestPayload((0, 2), 1, -4.5)

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


def test_per_agent_scalar_accounting(kite_instance):
    tree, _, _, stats = _run(kite_instance)
    sent = stats[0].sent_scalars_by_agent
    # root: 3 VALUE x 3 scalars + 3 BEST x (2 indices + best pair)
    assert sent[0] == 3 * 3 + 3 * 4
    # leaf agent 1: 1 VALUE + 1 COST
    assert sent[1] == 3 + 3
    # leaves 2 and 3 also exchange with each other: 2 VALUE + 1 COST
    assert sent[2] == sent[3] == 2 * 3 + 3
    assert stats[0].payload_scalars == sum(sent.values())


def test_payload_bound_check(kite_instance, monkeypatch):
    tree, _, _, stats = _run(kite_instance, cycles=3)
    assert message_stats(stats, tree, num_particles=3)["violations"] == []
    # one scalar below each agent's exact per-cycle traffic: every send violates
    monkeypatch.setattr(runtime, "PAYLOAD_SLACK", -1)
    tight = message_stats(stats, tree, num_particles=3)
    assert sorted(tight["violations"]) == [
        (cycle, agent, sent, sent - 1) for cycle in (1, 2, 3)
        for agent, sent in ((0, 21), (1, 6), (2, 9), (3, 9))]


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
