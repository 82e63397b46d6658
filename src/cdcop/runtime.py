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
recorded message, which is what makes the per-cycle accounting exact. The
message law is stated once, in ``Traffic``: per cycle an agent sends K
scalars on each VALUE link and on its COST link, and the BEST payload, at
most K + 2 scalars, on each child link. So a cycle's traffic is fixed by
one number, the BEST payload length L: the counts, each agent's scalars,
the bound that ``message_stats`` checks and ``MessageLog`` follow from
``Traffic``'s routes and L.
"""

import csv
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .pseudotree import PseudoTree

__all__ = [
    "Message",
    "BestPayload",
    "best_length",
    "CycleStats",
    "SyncRuntime",
    "DeadlockDetected",
    "Traffic",
    "MessageLog",
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
    """One cycle's traffic and wall time.

    The message count of each kind, the scalars they carried in all, and
    ``best_len``, the length of the root's BEST payload. What each agent
    sent is not stored: it is ``Traffic.sent_scalars(best_len)``.
    """

    cycle: int
    value_count: int = 0
    cost_count: int = 0
    best_count: int = 0
    payload_scalars: int = 0
    best_len: int = 0
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
                    if payload is not None:
                        stats.best_len = len(payload)
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
        count = len(receivers)
        if kind == VALUE:
            stats.value_count += count
        elif kind == COST:
            stats.cost_count += count
        else:
            stats.best_count += count
        stats.payload_scalars += size * count


class Traffic:
    """The message law of one pseudo-tree at K = ``num_particles``.

    ``routes`` is every ``(kind, sender, receiver)`` a cycle sends, in
    ``SyncRuntime``'s order: VALUE to each neighbor, COST to the parent
    deepest level first, BEST to each child root first. VALUE and COST carry
    K scalars and BEST the cycle's payload of L scalars, so the rest follows
    from them and L.
    """

    def __init__(self, tree: PseudoTree, num_particles: int):
        levels = tree.levels()
        self.tree, self.num_particles = tree, num_particles
        self.routes = [(VALUE, a, peer) for a, peers in enumerate(tree.neighbors) for peer in peers]
        self.routes += [(COST, a, tree.parent[a]) for level in reversed(levels) for a in level
                        if tree.parent[a] is not None]
        self.routes += [(BEST, a, child) for level in levels for a in level
                        for child in tree.children[a]]
        kinds = [kind for kind, _, _ in self.routes]
        self.counts = tuple(map(kinds.count, (VALUE, COST, BEST)))  # 2|E|, |A|-1, |A|-1
        # each sender's K-scalar links and child links; VALUE comes first, so ids ascend
        links: dict[int, list[int]] = {}
        for kind, sender, _ in self.routes:
            links.setdefault(sender, [0, 0])[kind == BEST] += 1
        self._base = {a: (num_particles * fixed, children) for a, (fixed, children) in links.items()}

    def sent_scalars(self, best_len: int) -> dict[int, int]:
        """The scalars each sending agent sends in a cycle whose BEST payload
        holds ``best_len`` scalars: K*(|N_i| + [i has a parent]) + best_len*|CH_i|."""
        return {a: fixed + best_len * children for a, (fixed, children) in self._base.items()}

    def payload_scalars(self, best_len: int) -> int:
        """The scalars all messages of such a cycle carry."""
        value, cost, best = self.counts
        return self.num_particles * (value + cost) + best_len * best

    def cycle_stats(self, cycle: int, best_len: int) -> CycleStats:
        """The counts of a cycle whose BEST payload holds ``best_len`` scalars."""
        return CycleStats(cycle, *self.counts, self.payload_scalars(best_len), best_len)


class MessageLog:
    """A run's messages in ``SyncRuntime``'s order, each made when read: cycle
    t sends every route of ``traffic``, BEST with ``best_lens[t - 1]`` scalars."""

    __slots__ = ("_traffic", "_best_lens")

    def __init__(self, traffic: Traffic, best_lens: list[int]):
        self._traffic, self._best_lens = traffic, best_lens

    def __len__(self) -> int:
        return len(self._best_lens) * len(self._traffic.routes)

    def __iter__(self) -> Iterator[Message]:
        K, routes = self._traffic.num_particles, self._traffic.routes
        for cycle, best_len in enumerate(self._best_lens, start=1):
            for kind, sender, receiver in routes:
                yield Message(cycle, kind, sender, receiver, best_len if kind == BEST else K)


def message_stats(cycle_stats: list[CycleStats], tree: PseudoTree, num_particles: int) -> dict:
    """Check the per-cycle payload bound; ``violations`` lists each
    ``(cycle, agent, sent, bound)`` that breaks it.

    An agent's bound is what ``Traffic`` has it send with the largest BEST
    payload, K + 2 scalars. The bound is exact: a cycle in which every personal
    best and the global best improve, as in cycle 1 when every fitness is
    finite, sends it. Only the BEST links carry the cycle's BEST length L, so
    a cycle keeps every bound exactly when L <= K + 2, and one with a longer
    payload breaks the bound of each agent with children.
    """
    largest = best_length(num_particles, True)
    over = [st for st in cycle_stats if st.best_len > largest]
    if not over:
        return {"violations": []}
    traffic = Traffic(tree, num_particles)
    bounds = traffic.sent_scalars(largest)
    return {"violations": [(st.cycle, a, sent, bounds[a]) for st in over
                           for a, sent in traffic.sent_scalars(st.best_len).items()
                           if sent > bounds[a]]}


def write_message_log_csv(messages: Iterable[Message], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cycle", "kind", "from", "to", "payload_len"])
        writer.writerows(messages)
