"""Quorum consensus: decision outcomes under faults, and safety sweeps.

The n=4, f=1 cluster is the smallest that satisfies n >= 3f + 1, so the
quorum arithmetic is easy to check by hand: prepared needs 2 matching
prepares, committed needs 3 matching commits, the client accepts at 2
matching replies.
"""

from __future__ import annotations

import pytest

from fleetchain.ledger import ZERO_HASH, anchor_tx, make_block
from fleetchain.pbft import (
    CLIENT,
    FAULT_CORRUPT,
    FAULT_SILENT,
    PH_COMMIT,
    PH_PRE_PREPARE,
    PH_PREPARE,
    PH_REPLY,
    Client,
    PbftMessage,
    SimulatedNetwork,
    ValidatorCluster,
    ValidatorNode,
    run_consensus,
)
from fleetchain.store import ContentRef, sha256_hex


def proposal(tag: str = "t"):
    ref = ContentRef(
        path=f"reports/{tag}.csv",
        digest=sha256_hex(tag.encode()),
        size_bytes=len(tag),
        brick_ids=("brick-00",),
    )
    return make_block(0, ZERO_HASH, [anchor_tx(ref, {"kind": "report"}, "bench", 1.0)])


# --- whole rounds ------------------------------------------------------------

def test_all_honest_round_decides():
    block = proposal()
    result = run_consensus(block, seed=3)
    assert result.decided
    assert result.accepted_digest == block.block_hash
    assert result.appended == {0: True, 1: True, 2: True, 3: True}
    assert result.replies == 4
    for chain in result.honest_chains().values():
        assert chain == [block]


def test_all_honest_message_count_exact():
    # 1 request + 3 pre-prepares + 3 backups x 3 prepares
    # + 4 nodes x 3 commits + 4 replies = 29, nothing dropped
    result = run_consensus(proposal(), seed=11)
    assert result.network.sent == 29
    assert result.network.dropped == 0


def test_one_silent_backup_still_decides():
    block = proposal()
    result = run_consensus(block, seed=5, faults={2: FAULT_SILENT})
    assert result.decided
    assert result.accepted_digest == block.block_hash
    assert not result.appended[2]
    assert result.replies == 3
    assert set(result.honest_chains()) == {0, 1, 3}
    for chain in result.honest_chains().values():
        assert chain == [block]


def test_two_unreachable_backups_stall_the_round():
    # deafen every validator link into nodes 1 and 2: one lost backup is
    # tolerated, two leave only a single prepare voice -- short of quorum
    drops = {(src, dst): 1.0 for dst in (1, 2) for src in range(4) if src != dst}
    net = SimulatedNetwork(seed=9, link_drop=drops)
    result = run_consensus(proposal(), seed=9, network=net)
    assert not result.decided
    assert result.replies == 0
    assert all(chain == [] for chain in result.honest_chains().values())


def test_corrupt_backup_is_outvoted():
    block = proposal()
    result = run_consensus(block, seed=7, faults={1: FAULT_CORRUPT})
    assert result.decided
    # mangled digests can gather at most one reply, never f + 1
    assert result.accepted_digest == block.block_hash
    for chain in result.honest_chains().values():
        assert chain == [block]


def test_corrupt_primary_round_not_decided():
    block = proposal()
    result = run_consensus(block, seed=7, faults={0: FAULT_CORRUPT})
    # backups check the carried block actually hashes to the digest
    assert not result.decided
    assert result.replies == 0
    assert all(chain == [] for chain in result.honest_chains().values())


def test_single_deaf_link_is_tolerated():
    block = proposal()
    net = SimulatedNetwork(seed=1, link_drop={(0, 1): 1.0})
    result = run_consensus(block, seed=1, network=net)
    assert result.decided
    assert not result.appended[1]  # never saw the pre-prepare
    assert result.network.dropped >= 1
    assert result.replies == 3


# --- protocol stepping -------------------------------------------------------

def test_backup_walks_the_phases():
    """Drive one backup message by message and watch each transition."""
    block = proposal()
    digest = block.block_hash
    node = ValidatorNode(1, n=4, f=1)

    out = node.on_message(PbftMessage(PH_PRE_PREPARE, digest, 0, block))
    # accepted: logs its own prepare and broadcasts it to the other three
    assert [(dst, m.phase) for dst, m in out] == [(0, PH_PREPARE), (2, PH_PREPARE), (3, PH_PREPARE)]
    assert not node.prepared()

    out = node.on_message(PbftMessage(PH_PREPARE, digest, 2))
    # own prepare + one peer = 2f matching: prepared, so commit goes out
    assert node.prepared()
    assert [(dst, m.phase) for dst, m in out] == [(0, PH_COMMIT), (2, PH_COMMIT), (3, PH_COMMIT)]
    assert not node.committed()

    node.on_message(PbftMessage(PH_COMMIT, digest, 0))
    assert not node.committed()  # own + 1 peer = 2 < 2f + 1
    out = node.on_message(PbftMessage(PH_COMMIT, digest, 3))
    assert node.committed()
    assert node.chain == [block]
    assert [(dst, m.phase) for dst, m in out] == [(CLIENT, PH_REPLY)]


def test_backup_rejects_pre_prepare_from_non_primary():
    block = proposal()
    node = ValidatorNode(2, n=4, f=1)
    assert node.on_message(PbftMessage(PH_PRE_PREPARE, block.block_hash, 3, block)) == []
    assert not node.sent_prepare


def test_backup_rejects_digest_that_does_not_certify_block():
    block = proposal()
    node = ValidatorNode(1, n=4, f=1)
    wrong = "f" * 64
    assert node.on_message(PbftMessage(PH_PRE_PREPARE, wrong, 0, block)) == []
    assert node.on_message(PbftMessage(PH_PRE_PREPARE, block.block_hash, 0, None)) == []


def test_client_accepts_at_f_plus_one_matching():
    client = Client(f=1)
    client.on_reply(PbftMessage(PH_REPLY, "aa", 0))
    assert client.accepted is None
    client.on_reply(PbftMessage(PH_REPLY, "bb", 1))
    assert client.accepted is None  # two replies, but no two match
    client.on_reply(PbftMessage(PH_REPLY, "bb", 2))
    assert client.accepted == "bb"
    client.on_reply(PbftMessage(PH_COMMIT, "cc", 3))  # not a reply
    assert client.accepted == "bb"


# --- determinism and safety --------------------------------------------------

def test_same_seed_same_transcript():
    block = proposal()
    a = run_consensus(block, seed=42, faults={3: FAULT_SILENT})
    b = run_consensus(block, seed=42, faults={3: FAULT_SILENT})
    assert (a.decided, a.accepted_digest, a.replies) == (b.decided, b.accepted_digest, b.replies)
    assert (a.network.sent, a.network.dropped) == (b.network.sent, b.network.dropped)


def test_honest_chains_never_diverge():
    """Seeds x faults x loss rates: an honest chain either holds the decided
    block or is still empty -- never different content."""
    block = proposal()
    fault_cases = [None, {1: FAULT_SILENT}, {3: FAULT_CORRUPT}, {0: FAULT_CORRUPT}, {0: FAULT_SILENT}]
    for seed in range(12):
        for faults in fault_cases:
            for drop in (0.0, 0.1, 0.3):
                net = SimulatedNetwork(seed=seed * 100, default_drop=drop)
                result = run_consensus(block, seed=seed, faults=faults, network=net)
                for chain in result.honest_chains().values():
                    assert chain in ([], [block])
                if result.decided:
                    assert result.accepted_digest == block.block_hash


def test_round_validation():
    block = proposal()
    with pytest.raises(ValueError, match="3f"):
        run_consensus(block, n=3, f=1)
    with pytest.raises(ValueError, match="unknown fault"):
        run_consensus(block, faults={1: "sleepy"})
    with pytest.raises(ValueError, match="out of range"):
        run_consensus(block, faults={9: FAULT_SILENT})
    with pytest.raises(ValueError, match="exceeds f"):
        run_consensus(block, faults={1: FAULT_SILENT, 2: FAULT_SILENT})
    with pytest.raises(ValueError, match="default_drop"):
        SimulatedNetwork(default_drop=1.5)


def test_cluster_counts_rounds():
    cluster = ValidatorCluster(n=4, f=1, seed=7)
    assert cluster.propose(proposal("a"))
    assert cluster.propose(proposal("b"))
    assert cluster.rounds == 2
    with pytest.raises(ValueError, match="3f"):
        ValidatorCluster(n=3, f=1)
