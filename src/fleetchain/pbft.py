"""Five-phase quorum consensus over a simulated lossy message bus.

The protocol is the normal case of PBFT (Castro & Liskov, OSDI 1999):
REQUEST -> PRE-PREPARE -> PREPARE -> COMMIT -> REPLY with n >= 3f + 1
validators.  A round orders exactly one request and node 0 is its primary,
so there are no views or sequence numbers: each node holds the one slot
that the request fills.  A node is *prepared* once it holds the primary's
pre-prepare plus 2f matching prepares from distinct senders, *committed*
after 2f + 1 matching commits; the client accepts a result after f + 1
matching replies.  View changes are out of scope: a faulty primary simply
yields a not-decided round.

The bus delivers messages through a seeded priority queue with optional
per-link drop probabilities and random delays, so every run is
reproducible from its seed and loss schedule.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from operator import countOf
from typing import NamedTuple

from .ledger import Block

PH_REQUEST = "REQUEST"
PH_PRE_PREPARE = "PRE-PREPARE"
PH_PREPARE = "PREPARE"
PH_COMMIT = "COMMIT"
PH_REPLY = "REPLY"

FAULT_SILENT = "silent"
FAULT_CORRUPT = "corrupt"

PRIMARY = 0
CLIENT = -1

# each delivered message is delayed uniformly within [DELAY_MIN_S, DELAY_MAX_S)
DELAY_MIN_S = 0.0005
DELAY_MAX_S = 0.005


class PbftMessage(NamedTuple):
    phase: str
    digest: str
    sender: int
    block: Block | None = None


def _flip_digest(digest: str) -> str:
    # deterministic corruption: invert the first hex nibble
    first = format(15 - int(digest[0], 16), "x")
    return first + digest[1:]


class ValidatorNode:
    """One replica; ``on_message`` returns the messages it wants sent."""

    def __init__(self, node_id: int, n: int, f: int) -> None:
        self.id = node_id
        self.n = n
        self.f = f
        self.fault: str | None = None
        self.chain: list[Block] = []
        # what the primary pre-prepared: the digest and the block it certifies
        self.digest: str | None = None
        self.block: Block | None = None
        # votes as {sender: digest}, so each sender counts once
        self.prepares: dict[int, str] = {}
        self.commits: dict[int, str] = {}
        self.sent_prepare = False
        self.sent_commit = False

    def _broadcast(self, msg: PbftMessage) -> list[tuple[int, PbftMessage]]:
        return [(peer, msg) for peer in range(self.n) if peer != self.id]

    def on_message(self, msg: PbftMessage) -> list[tuple[int, PbftMessage]]:
        if self.fault == FAULT_SILENT:
            return []
        phase = msg.phase

        if phase == PH_PREPARE:
            self.prepares[msg.sender] = msg.digest
            out = self._advance()

        elif phase == PH_COMMIT:
            self.commits[msg.sender] = msg.digest
            out = self._advance()

        elif phase == PH_REQUEST:
            if self.id != PRIMARY:
                return []
            self.digest, self.block = msg.digest, msg.block
            out = self._broadcast(PbftMessage(PH_PRE_PREPARE, msg.digest, self.id, msg.block))

        elif phase == PH_PRE_PREPARE:
            if msg.sender != PRIMARY or self.digest is not None:
                return []
            if msg.block is None or msg.block.block_hash != msg.digest:
                return []  # digest does not certify the carried block
            # only backups receive a pre-prepare: the primary sends it to its peers
            self.digest, self.block = msg.digest, msg.block
            self.sent_prepare = True
            self.prepares[self.id] = msg.digest
            out = self._broadcast(PbftMessage(PH_PREPARE, msg.digest, self.id))
            out.extend(self._advance())

        else:
            return []
        if self.fault == FAULT_CORRUPT:
            return [(dst, m._replace(digest=_flip_digest(m.digest))) for dst, m in out]
        return out

    # matching votes from distinct senders: the vote logs are keyed by sender
    def prepared(self) -> bool:
        digest = self.digest
        return digest is not None and countOf(self.prepares.values(), digest) >= 2 * self.f

    def committed(self) -> bool:
        digest = self.digest
        return digest is not None and countOf(self.commits.values(), digest) >= 2 * self.f + 1

    def _advance(self) -> list[tuple[int, PbftMessage]]:
        """Messages that the votes now logged call for."""
        out: list[tuple[int, PbftMessage]] = []
        if not self.sent_commit and self.prepared():
            self.sent_commit = True
            self.commits[self.id] = self.digest
            out = self._broadcast(PbftMessage(PH_COMMIT, self.digest, self.id))
        if not self.chain and self.committed():
            self.chain.append(self.block)
            out.append((CLIENT, PbftMessage(PH_REPLY, self.digest, self.id)))
        return out


class SimulatedNetwork:
    """Seeded store-and-forward bus with per-link loss and random delay."""

    def __init__(
        self,
        seed: int = 0,
        default_drop: float = 0.0,
        link_drop: dict[tuple[int, int], float] | None = None,
    ) -> None:
        if not 0.0 <= default_drop <= 1.0:
            raise ValueError("default_drop must be in [0, 1]")
        self.rng = random.Random(seed)
        self.default_drop = default_drop
        self.link_drop = dict(link_drop or {})
        self.now = 0.0
        self.sent = 0
        self.dropped = 0
        self._queue: list[tuple[float, int, int, PbftMessage]] = []
        self._counter = 0

    def send(self, src: int, dst: int, msg: PbftMessage) -> None:
        self.sent += 1
        if src == CLIENT or dst == CLIENT:
            drop = 0.0  # client links are out of scope for the loss schedule
        else:
            drop = self.link_drop.get((src, dst), self.default_drop)
        draw = self.rng.random
        if draw() < drop:
            self.dropped += 1
            return
        # Random.uniform(DELAY_MIN_S, DELAY_MAX_S), without the call
        delay = DELAY_MIN_S + (DELAY_MAX_S - DELAY_MIN_S) * draw()
        self._counter += 1
        heapq.heappush(self._queue, (self.now + delay, self._counter, dst, msg))

    def run(self, nodes: dict[int, ValidatorNode], client: "Client") -> None:
        queue, send = self._queue, self.send
        while queue:
            t, _, dst, msg = heapq.heappop(queue)
            self.now = max(self.now, t)
            if dst == CLIENT:
                client.on_reply(msg)
                continue
            for next_dst, next_msg in nodes[dst].on_message(msg):
                send(dst, next_dst, next_msg)


class Client:
    """Accepts a digest once f + 1 matching replies arrive."""

    def __init__(self, f: int) -> None:
        self.f = f
        self.replies: dict[int, str] = {}
        self.accepted: str | None = None

    def on_reply(self, msg: PbftMessage) -> None:
        if msg.phase != PH_REPLY:
            return
        self.replies[msg.sender] = msg.digest
        # only this digest's count grew, so only it can have reached f + 1
        if self.accepted is None and countOf(self.replies.values(), msg.digest) >= self.f + 1:
            self.accepted = msg.digest


@dataclass(frozen=True)
class ConsensusResult:
    decided: bool
    accepted_digest: str | None
    appended: dict[int, bool]
    replies: int
    nodes: dict[int, ValidatorNode] = field(repr=False)
    network: SimulatedNetwork = field(repr=False)

    def honest_chains(self) -> dict[int, list[Block]]:
        return {nid: node.chain for nid, node in self.nodes.items() if node.fault is None}


def run_consensus(
    block: Block,
    *,
    n: int = 4,
    f: int = 1,
    seed: int = 0,
    faults: dict[int, str] | None = None,
    network: SimulatedNetwork | None = None,
) -> ConsensusResult:
    """One consensus round proposing ``block`` to ``n`` validators.

    Args:
        block: proposal; its hash is the protocol digest.
        n: cluster size; must satisfy n >= 3f + 1.
        f: tolerated fault count.
        seed: drives the bus when no explicit ``network`` is given.
        faults: node id -> "silent" | "corrupt" for at most f nodes.
        network: preconfigured bus (e.g. with per-link drop schedules).

    Returns:
        A :class:`ConsensusResult`; ``decided`` reflects client acceptance.
    """
    if n < 3 * f + 1:
        raise ValueError(f"need n >= 3f + 1, got n={n}, f={f}")
    faults = dict(faults or {})
    for nid, kind in faults.items():
        if kind not in (FAULT_SILENT, FAULT_CORRUPT):
            raise ValueError(f"unknown fault kind {kind!r}")
        if not 0 <= nid < n:
            raise ValueError(f"fault node {nid} out of range")
    if len(faults) > f:
        raise ValueError(f"{len(faults)} faulty nodes exceeds f={f}")

    nodes = {i: ValidatorNode(i, n, f) for i in range(n)}
    for nid, kind in faults.items():
        nodes[nid].fault = kind
    net = network if network is not None else SimulatedNetwork(seed=seed)
    client = Client(f)

    net.send(CLIENT, PRIMARY, PbftMessage(PH_REQUEST, block.block_hash, CLIENT, block))
    net.run(nodes, client)

    return ConsensusResult(
        decided=client.accepted is not None,
        accepted_digest=client.accepted,
        appended={i: bool(node.chain) for i, node in nodes.items()},
        replies=len(client.replies),
        nodes=nodes,
        network=net,
    )


class ValidatorCluster:
    """Reusable consensus front-end for a ledger: one round per proposal."""

    def __init__(self, n: int = 4, f: int = 1, seed: int = 0) -> None:
        if n < 3 * f + 1:
            raise ValueError(f"need n >= 3f + 1, got n={n}, f={f}")
        self.n = n
        self.f = f
        self.seed = seed
        self.rounds = 0

    def propose(self, block: Block) -> bool:
        result = run_consensus(block, n=self.n, f=self.f, seed=self.seed + self.rounds)
        self.rounds += 1
        return result.decided
