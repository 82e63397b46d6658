"""Deterministic synchronous message-passing substrate.

One cycle runs three barriered sub-phases over the pseudo-tree:

1. position exchange: every agent sends a VALUE message to each
   constraint-graph neighbor; all deliveries complete before any receiver
   handler runs.
2. cost convergecast: COST messages flow leaf-to-root, level by level; an
   inner agent's handler runs only after every child's message arrived.
3. best broadcast: the root's BEST payload flows root-to-leaf.

Handlers never touch each other's state directly; every interaction is a
recorded message, which is what makes the per-cycle accounting exact. Per
cycle an agent sends K scalars on each VALUE link and on its COST link, and
the BEST payload, at most K + 2 scalars, on each child link
(``cycle_traffic``). ``message_stats`` bounds each agent by that rule at a
BEST payload of K + 2, which a cycle can meet exactly.
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .pseudotree import PseudoTree

__all__ = [
    "Message",
    "BestPayload",
    "CycleStats",
    "SyncRuntime",
    "DeadlockDetected",
    "cycle_traffic",
    "message_stats",
    "write_message_log_csv",
]

VALUE = "VALUE"
COST = "COST"
BEST = "BEST"


class DeadlockDetected(RuntimeError):
    """An agent's phase handler needed a message that was never sent."""


@dataclass(frozen=True)
class BestPayload:
    """Root's per-cycle verdict, forwarded unchanged down the tree.

    ``improved`` lists particle indices whose personal best advanced this
    cycle; receivers snapshot their own coordinates for those indices.
    ``best_index``/``best_fitness`` are set only when the global best
    strictly improved, which doubles as the synchronized success flag. So
    the payload holds at most K + 2 scalars.
    """

    improved: tuple[int, ...]
    best_index: int | None
    best_fitness: float | None

    def scalar_len(self) -> int:
        return len(self.improved) + (2 if self.best_index is not None else 0)


@dataclass(frozen=True)
class Message:
    cycle: int
    kind: str
    sender: int
    receiver: int
    payload_len: int


@dataclass
class CycleStats:
    cycle: int
    value_count: int = 0
    cost_count: int = 0
    best_count: int = 0
    payload_scalars: int = 0
    sent_scalars_by_agent: dict[int, int] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def total_messages(self) -> int:
        return self.value_count + self.cost_count + self.best_count


def _payload_len(payload) -> int:
    if isinstance(payload, BestPayload):
        return payload.scalar_len()
    return payload.size if isinstance(payload, np.ndarray) else len(payload)


class SyncRuntime:
    """Mailboxes plus the three-phase cycle driver.

    ``handlers`` passed to :meth:`run_cycle` is a sequence indexed by agent
    id; each element provides the phase callbacks (``value_payload``,
    ``handle_values``, ``handle_costs``, ``cost_payload``, ``best_payload``,
    ``handle_best``, ``end_cycle``). Agents at the same tree level are
    processed in ascending id, so a full run is schedule-independent.
    """

    def __init__(self, tree: PseudoTree, log_messages: bool = False):
        self.tree = tree
        self.log: list[Message] | None = [] if log_messages else None
        self._levels = tree.levels()
        n = tree.num_agents
        self._value_box: list[dict[int, np.ndarray]] = [{} for _ in range(n)]
        self._cost_box: list[dict[int, np.ndarray]] = [{} for _ in range(n)]
        self._best_box: list[BestPayload | None] = [None] * n

    def run_cycle(self, handlers, cycle: int) -> CycleStats:
        start = time.perf_counter()
        stats = CycleStats(cycle=cycle)
        tree = self.tree
        n = tree.num_agents

        # phase 1: VALUE exchange between constraint-graph neighbors
        for agent in range(n):
            if not tree.neighbors[agent]:
                continue
            payload = handlers[agent].value_payload()
            if payload is None:
                continue
            for peer in tree.neighbors[agent]:
                self._send(stats, VALUE, agent, peer, payload, self._value_box[peer])
        for agent in range(n):
            box = self._value_box[agent]
            if len(box) != len(tree.neighbors[agent]):
                missing = sorted(set(tree.neighbors[agent]) - box.keys())
                raise DeadlockDetected(f"agent {agent} never received VALUE from {missing}")
            handlers[agent].handle_values(box)
            box.clear()

        # phase 2: COST convergecast, deepest level first
        for level in reversed(self._levels):
            for agent in level:
                box = self._cost_box[agent]
                if len(box) != len(tree.children[agent]):
                    missing = sorted(set(tree.children[agent]) - box.keys())
                    raise DeadlockDetected(f"agent {agent} never received COST from {missing}")
                handlers[agent].handle_costs(box)
                box.clear()
                parent = tree.parent[agent]
                if parent is not None:
                    payload = handlers[agent].cost_payload()
                    if payload is not None:
                        self._send(stats, COST, agent, parent, payload, self._cost_box[parent])

        # phase 3: BEST broadcast, root first
        verdict = handlers[tree.root].best_payload()
        for level in self._levels:
            for agent in level:
                if agent == tree.root:
                    payload = verdict
                else:
                    payload = self._best_box[agent]
                    if payload is None:
                        raise DeadlockDetected(f"agent {agent} never received BEST from its parent")
                    handlers[agent].handle_best(payload)
                    self._best_box[agent] = None
                for child in tree.children[agent]:
                    if payload is None:
                        continue  # the child's own check reports the missing BEST
                    self._send(stats, BEST, agent, child, payload, None)
                    self._best_box[child] = payload

        for agent in range(n):
            handlers[agent].end_cycle()

        stats.duration_s = time.perf_counter() - start
        return stats

    def _send(self, stats: CycleStats, kind: str, sender: int, receiver: int, payload, box) -> None:
        if box is not None:
            box[sender] = payload
        size = _payload_len(payload)
        if kind == VALUE:
            stats.value_count += 1
        elif kind == COST:
            stats.cost_count += 1
        else:
            stats.best_count += 1
        stats.payload_scalars += size
        stats.sent_scalars_by_agent[sender] = stats.sent_scalars_by_agent.get(sender, 0) + size
        if self.log is not None:
            self.log.append(Message(stats.cycle, kind, sender, receiver, size))


def cycle_traffic(tree: PseudoTree, num_particles: int, best_len: int) -> CycleStats:
    """The traffic rule, for a cycle whose BEST payload holds ``best_len`` scalars:
    each agent sends K = ``num_particles`` scalars on each VALUE link (one per
    neighbor) and on its COST link, and the BEST payload on each child link.
    So a cycle moves 2|E| VALUE, |A|-1 COST and |A|-1 BEST messages."""
    K = num_particles
    sent = {agent: K * (len(tree.neighbors[agent]) + (tree.parent[agent] is not None))
            + best_len * len(tree.children[agent])
            for agent in range(tree.num_agents) if tree.neighbors[agent]}
    links = tree.num_agents - 1
    return CycleStats(0, sum(map(len, tree.neighbors)), links, links, sum(sent.values()), sent)


def message_stats(cycle_stats: list[CycleStats], tree: PseudoTree, num_particles: int) -> dict:
    """Check the per-cycle payload bound; ``violations`` lists each
    ``(cycle, agent, sent, bound)`` that breaks it.

    An agent's bound is what ``cycle_traffic`` has it send with the largest
    BEST payload, K + 2 scalars: K*(|N_i| + [i has a parent]) + (K + 2)*|CH_i|.
    The bound is exact: a cycle in which every personal best and the global
    best improve, as in cycle 1 when every fitness is finite, sends it.
    """
    largest = cycle_traffic(tree, num_particles, num_particles + 2).sent_scalars_by_agent
    bounds = [largest.get(agent, 0) for agent in range(tree.num_agents)]
    violations = []
    for st in cycle_stats:
        for agent, sent in st.sent_scalars_by_agent.items():
            if sent > bounds[agent]:
                violations.append((st.cycle, agent, sent, bounds[agent]))
    return {"violations": violations}


def write_message_log_csv(messages: list[Message], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "kind", "from", "to", "payload_len"])
        for m in messages:
            writer.writerow([m.cycle, m.kind, m.sender, m.receiver, m.payload_len])
