"""Five-phase quorum consensus over a simulated lossy message bus.

The protocol is the classic primary-backup commit sequence
REQUEST -> PRE-PREPARE -> PREPARE -> COMMIT -> REPLY with n >= 3f + 1
validators.  A node is *prepared* once it holds the pre-prepare plus 2f
matching prepares from distinct senders, *committed* after 2f + 1 matching
commits; the client accepts a result after f + 1 matching replies.  View
changes are out of scope: a faulty primary simply yields a not-decided
round.

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
PHASES = (PH_REQUEST, PH_PRE_PREPARE, PH_PREPARE, PH_COMMIT, PH_REPLY)

FAULT_SILENT = "silent"
FAULT_CORRUPT = "corrupt"

CLIENT = -1


class PbftMessage(NamedTuple):
    phase: str
    view: int
    seq: int
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
        self.next_seq = 0
        # per (view, seq): phase -> {sender: digest}
        self.log: dict[tuple[int, int], dict[str, dict[int, str]]] = {}
        self.blocks: dict[tuple[int, int], Block] = {}
        self.sent_prepare: set[tuple[int, int]] = set()
        self.sent_commit: set[tuple[int, int]] = set()
        self.executed: set[tuple[int, int]] = set()

    def is_primary(self, view: int) -> bool:
        return view % self.n == self.id

    def _slot(self, view: int, seq: int) -> dict[str, dict[int, str]]:
        slot = self.log.get((view, seq))
        if slot is None:
            slot = self.log[(view, seq)] = {ph: {} for ph in PHASES}
        return slot

    def _accepted(self, view: int, seq: int) -> tuple[dict[str, dict[int, str]], str | None]:
        """The slot, and the digest the view's primary pre-prepared in it."""
        slot = self._slot(view, seq)
        return slot, slot[PH_PRE_PREPARE].get(view % self.n)

    def _broadcast(self, msg: PbftMessage) -> list[tuple[int, PbftMessage]]:
        return [(peer, msg) for peer in range(self.n) if peer != self.id]

    def on_message(self, msg: PbftMessage) -> list[tuple[int, PbftMessage]]:
        if self.fault == FAULT_SILENT:
            return []
        phase, view, seq = msg.phase, msg.view, msg.seq

        if phase == PH_PREPARE or phase == PH_COMMIT:
            slot = self._slot(view, seq)
            slot[phase][msg.sender] = msg.digest
            out = self._advance(view, seq, slot)

        elif phase == PH_REQUEST:
            if not self.is_primary(view):
                return []
            seq = self.next_seq
            self.next_seq += 1
            self._slot(view, seq)[PH_PRE_PREPARE][self.id] = msg.digest
            self.blocks[(view, seq)] = msg.block
            out = self._broadcast(
                PbftMessage(PH_PRE_PREPARE, view, seq, msg.digest, self.id, msg.block)
            )

        elif phase == PH_PRE_PREPARE:
            if msg.sender != view % self.n:
                return []
            if msg.block is None or msg.block.block_hash != msg.digest:
                return []  # digest does not certify the carried block
            slot = self._slot(view, seq)
            if msg.sender in slot[PH_PRE_PREPARE]:
                return []
            slot[PH_PRE_PREPARE][msg.sender] = msg.digest
            self.blocks[(view, seq)] = msg.block
            out = []
            if (view, seq) not in self.sent_prepare and not self.is_primary(view):
                self.sent_prepare.add((view, seq))
                slot[PH_PREPARE][self.id] = msg.digest
                out = self._broadcast(PbftMessage(PH_PREPARE, view, seq, msg.digest, self.id))
            out.extend(self._advance(view, seq, slot))

        else:
            return []
        return self._tainted(out) if self.fault == FAULT_CORRUPT else out

    def prepared(self, view: int, seq: int) -> bool:
        slot, digest = self._accepted(view, seq)
        return digest is not None and self._prepared(slot, digest)

    def committed(self, view: int, seq: int) -> bool:
        slot, digest = self._accepted(view, seq)
        return digest is not None and self._committed(slot, digest)

    # matching votes from distinct senders: the phase logs are keyed by sender
    def _prepared(self, slot: dict[str, dict[int, str]], digest: str) -> bool:
        return countOf(slot[PH_PREPARE].values(), digest) >= 2 * self.f

    def _committed(self, slot: dict[str, dict[int, str]], digest: str) -> bool:
        return countOf(slot[PH_COMMIT].values(), digest) >= 2 * self.f + 1

    def _advance(
        self, view: int, seq: int, slot: dict[str, dict[int, str]]
    ) -> list[tuple[int, PbftMessage]]:
        """Messages that the votes now in ``slot`` (of ``(view, seq)``) call for."""
        digest = slot[PH_PRE_PREPARE].get(view % self.n)
        if digest is None:
            return []
        key = (view, seq)
        if key not in self.sent_commit and self._prepared(slot, digest):
            self.sent_commit.add(key)
            slot[PH_COMMIT][self.id] = digest
            out = self._broadcast(PbftMessage(PH_COMMIT, view, seq, digest, self.id))
            out.extend(self._advance(view, seq, slot))
            return out
        if key not in self.executed and self._committed(slot, digest):
            block = self.blocks.get(key)
            if block is not None:
                self.executed.add(key)
                self.chain.append(block)
                return [(CLIENT, PbftMessage(PH_REPLY, view, seq, digest, self.id))]
        return []

    def _tainted(self, out: list[tuple[int, PbftMessage]]) -> list[tuple[int, PbftMessage]]:
        mangled = []
        for dst, msg in out:
            mangled.append(
                (dst, PbftMessage(msg.phase, msg.view, msg.seq, _flip_digest(msg.digest), msg.sender, msg.block))
            )
        return mangled


class SimulatedNetwork:
    """Seeded store-and-forward bus with per-link loss and random delay."""

    def __init__(
        self,
        seed: int = 0,
        default_drop: float = 0.0,
        delay_range: tuple[float, float] = (0.0005, 0.005),
        link_drop: dict[tuple[int, int], float] | None = None,
    ) -> None:
        if not 0.0 <= default_drop <= 1.0:
            raise ValueError("default_drop must be in [0, 1]")
        self.rng = random.Random(seed)
        self.default_drop = default_drop
        self.delay_range = delay_range
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
        lo, hi = self.delay_range
        delay = lo + (hi - lo) * draw()  # Random.uniform(lo, hi), without the call
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
            node = nodes.get(dst)
            if node is None:
                continue
            for next_dst, next_msg in node.on_message(msg):
                send(node.id, next_dst, next_msg)


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
        counts: dict[str, int] = {}
        for digest in self.replies.values():
            counts[digest] = counts.get(digest, 0) + 1
            if counts[digest] >= self.f + 1 and self.accepted is None:
                self.accepted = digest


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
    view: int = 0,
    faults: dict[int, str] | None = None,
    network: SimulatedNetwork | None = None,
) -> ConsensusResult:
    """One consensus round proposing ``block`` to ``n`` validators.

    Args:
        block: proposal; its hash is the protocol digest.
        n: cluster size; must satisfy n >= 3f + 1.
        f: tolerated fault count.
        seed: drives the bus when no explicit ``network`` is given.
        view: fixed view for the round; the primary is ``view % n``.
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

    primary = view % n
    net.send(CLIENT, primary, PbftMessage(PH_REQUEST, view, 0, block.block_hash, CLIENT, block))
    net.run(nodes, client)

    appended = {i: bool(nodes[i].chain) for i in range(n)}
    return ConsensusResult(
        decided=client.accepted is not None,
        accepted_digest=client.accepted,
        appended=appended,
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
        result = run_consensus(
            block, n=self.n, f=self.f, seed=self.seed + self.rounds
        )
        self.rounds += 1
        return result.decided
