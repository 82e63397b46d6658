"""Deterministic synchronous message-passing substrate.

One cycle runs three barriered sub-phases over the pseudo-tree:

1. position exchange: every agent sends a VALUE message to each
   constraint-graph neighbor; all deliveries complete before any receiver
   handler runs.
2. cost convergecast: COST messages flow leaf-to-root, level by level.
3. best broadcast: the root's BEST payload flows root-to-leaf.

One delivery rule covers all three kinds. A handler that returns None sends
nothing. A receiving handler runs only once every message it waits for has
arrived (from each neighbor, each child, or the parent); otherwise the cycle
stops with ``DeadlockDetected`` naming the senders it still waits for.

Handlers never touch each other's state directly; every interaction is a
recorded message, which is what makes the per-cycle accounting exact. Per
cycle an agent sends K scalars on each VALUE link and on its COST link, and
the BEST payload, at most K + 2 scalars, on each child link
(``SentScalars``). ``message_stats`` bounds each agent by that rule at a
BEST payload of K + 2, which a cycle can meet exactly.
"""

import csv
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

from .pseudotree import PseudoTree

__all__ = [
    "Message",
    "BestPayload",
    "best_length",
    "CycleStats",
    "SyncRuntime",
    "DeadlockDetected",
    "SentScalars",
    "traffic_base",
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

    def __len__(self) -> int:
        return best_length(len(self.improved), self.best_index is not None)


def best_length(count: int, success: bool) -> int:
    """The scalars of a BEST payload: ``count`` improved particle indices, plus
    the best index and fitness when the global best improved (``success``)."""
    return count + 2 * success


class Message(NamedTuple):
    """One sent message; its fields are the message log's CSV columns, in order."""

    cycle: int
    kind: str
    sender: int
    receiver: int
    payload_len: int


@dataclass(slots=True)
class CycleStats:
    cycle: int
    value_count: int = 0
    cost_count: int = 0
    best_count: int = 0
    payload_scalars: int = 0
    sent_scalars_by_agent: Mapping[int, int] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def total_messages(self) -> int:
        return self.value_count + self.cost_count + self.best_count


class SyncRuntime:
    """Mailboxes plus the three-phase cycle driver.

    ``handlers`` passed to :meth:`run_cycle` is a sequence indexed by agent
    id; each element provides the phase callbacks (``value_payload``,
    ``handle_values``, ``handle_costs``, ``cost_payload``, ``best_payload``,
    ``handle_best``, ``end_cycle``). Agents at the same tree level are
    processed in ascending id, so a full run is schedule-independent.

    Every kind is delivered by one rule: a payload of None sends nothing, and
    a handler runs only once every message it waits for has arrived. A VALUE
    or COST payload is a ``(K,)`` array and a BEST payload a ``BestPayload``;
    either's size is ``len(payload)``.
    """

    def __init__(self, tree: PseudoTree, log_messages: bool = False):
        self.tree = tree
        self.log: list[Message] | None = [] if log_messages else None
        self._levels = tree.levels()
        self._mail: dict[tuple[str, int], dict] = {}  # (kind, receiver) -> {sender: payload}

    def run_cycle(self, handlers, cycle: int) -> CycleStats:
        start = time.perf_counter()
        stats = CycleStats(cycle=cycle)
        tree = self.tree

        # phase 1: VALUE exchange between constraint-graph neighbors
        for agent, peers in enumerate(tree.neighbors):
            if peers:
                self._send(stats, VALUE, agent, peers, handlers[agent].value_payload())
        for agent, peers in enumerate(tree.neighbors):
            handlers[agent].handle_values(self._collect(VALUE, agent, peers))

        # phase 2: COST convergecast, deepest level first
        for level in reversed(self._levels):
            for agent in level:
                handlers[agent].handle_costs(self._collect(COST, agent, tree.children[agent]))
                parent = tree.parent[agent]
                if parent is not None:
                    self._send(stats, COST, agent, (parent,), handlers[agent].cost_payload())

        # phase 3: BEST broadcast, root first; the root applies its own verdict
        for level in self._levels:
            for agent in level:
                parent = tree.parent[agent]
                if parent is None:
                    payload = handlers[agent].best_payload()
                else:
                    payload = self._collect(BEST, agent, (parent,))[parent]
                    handlers[agent].handle_best(payload)
                self._send(stats, BEST, agent, tree.children[agent], payload)

        for handler in handlers:
            handler.end_cycle()

        stats.duration_s = time.perf_counter() - start
        return stats

    def _collect(self, kind: str, agent: int, senders) -> dict:
        """``agent``'s ``kind`` messages by sender, taken out of its mailbox; each
        of ``senders`` must have sent one."""
        box = self._mail.pop((kind, agent), {})
        missing = [sender for sender in senders if sender not in box]
        if missing:
            raise DeadlockDetected(f"agent {agent} never received {kind} from {missing}")
        return box

    def _send(self, stats: CycleStats, kind: str, sender: int, receivers, payload) -> None:
        """Deliver ``payload`` to each receiver, counting and logging each message;
        a payload of None sends nothing."""
        if payload is None or not receivers:
            return
        size = len(payload)
        for receiver in receivers:
            self._mail.setdefault((kind, receiver), {})[sender] = payload
            if self.log is not None:
                self.log.append(Message(stats.cycle, kind, sender, receiver, size))
        count, sent = len(receivers), size * len(receivers)
        if kind == VALUE:
            stats.value_count += count
        elif kind == COST:
            stats.cost_count += count
        else:
            stats.best_count += count
        stats.payload_scalars += sent
        stats.sent_scalars_by_agent[sender] = stats.sent_scalars_by_agent.get(sender, 0) + sent


def traffic_base(tree: PseudoTree, num_particles: int) -> dict[int, tuple[int, int]]:
    """What one tree fixes of the traffic rule: for each agent that sends, the
    K*(|N_i| + [i has a parent]) scalars of its VALUE and COST links, and its
    number of child links |CH_i|."""
    K = num_particles
    return {agent: (K * (len(peers) + (tree.parent[agent] is not None)), len(tree.children[agent]))
            for agent, peers in enumerate(tree.neighbors) if peers}


class SentScalars(Mapping):
    """The traffic rule: the scalars each agent sends in a cycle whose BEST
    payload holds ``best_len`` scalars, K*(|N_i| + [i has a parent]) +
    best_len*|CH_i|.

    Each value is derived on read from ``base``, ``traffic_base``'s table of
    one tree. The map is read-only, so every row of one BEST length can share
    one. Its keys are the agents that send, so it equals the dict that
    ``SyncRuntime`` counts for the same cycle.
    """

    __slots__ = ("_base", "best_len")

    def __init__(self, base: dict[int, tuple[int, int]], best_len: int):
        self._base = base
        self.best_len = best_len

    def __getitem__(self, agent: int) -> int:
        fixed, children = self._base[agent]
        return fixed + self.best_len * children

    def __iter__(self) -> Iterator[int]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


def cycle_traffic(tree: PseudoTree, num_particles: int, best_len: int) -> SentScalars:
    """Each agent's scalars in a cycle whose BEST payload holds ``best_len``:
    K = ``num_particles`` on each VALUE link (one per neighbor) and on its
    COST link, and the BEST payload on each child link. So a cycle moves
    2|E| VALUE, |A|-1 COST and |A|-1 BEST messages."""
    return SentScalars(traffic_base(tree, num_particles), best_len)


def message_stats(cycle_stats: list[CycleStats], tree: PseudoTree, num_particles: int) -> dict:
    """Check the per-cycle payload bound; ``violations`` lists each
    ``(cycle, agent, sent, bound)`` that breaks it.

    An agent's bound is what ``cycle_traffic`` has it send with the largest
    BEST payload, K + 2 scalars: K*(|N_i| + [i has a parent]) + (K + 2)*|CH_i|.
    The bound is exact: a cycle in which every personal best and the global
    best improve, as in cycle 1 when every fitness is finite, sends it.
    """
    largest = cycle_traffic(tree, num_particles, best_length(num_particles, True))
    bounds = [largest.get(agent, 0) for agent in range(tree.num_agents)]
    violations = []
    for st in cycle_stats:
        for agent, sent in st.sent_scalars_by_agent.items():
            if sent > bounds[agent]:
                violations.append((st.cycle, agent, sent, bounds[agent]))
    return {"violations": violations}


def write_message_log_csv(messages: Iterable[Message], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "kind", "from", "to", "payload_len"])
        writer.writerows(messages)
