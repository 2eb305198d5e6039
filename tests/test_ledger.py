"""Anchor ledger: canonical hashing, rule screening, linkage, audit.

The encoding and merkle oracles below restate the wire rules from scratch
(struct + hashlib only) so a silent change to the canonical byte layout
cannot slip past as "both sides moved".
"""

from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetchain.ledger import (
    RESPONSE_ANNOTATE,
    RESPONSE_REJECT,
    VERIFY_MISMATCH,
    VERIFY_MISSING,
    VERIFY_OK,
    ZERO_HASH,
    AnchorTx,
    Block,
    Chain,
    ChainIntegrityError,
    ContractRule,
    Rejection,
    anchor_tx,
    append_anchor,
    compute_block_hash,
    compute_tx_id,
    encode_tx_fields,
    evaluate_rules,
    export_chain,
    import_chain,
    make_block,
    merkle_root,
    verify_anchor,
    verify_chain,
)
from fleetchain.pbft import ValidatorCluster
from fleetchain.store import ContentRef, sha256_hex


def ref_of(path="r/report.csv", data=b"csv,data\n", bricks=("brick-00",)):
    return ContentRef(path=path, digest=sha256_hex(data), size_bytes=len(data), brick_ids=bricks)


def stored_tx(volume, path, data, meta=None, submitter="ops", timestamp=1.5):
    return anchor_tx(volume.write(path, data), meta or {"kind": "report"}, submitter, timestamp)


def build_chain(volume, n):
    chain = Chain()
    txs = []
    for i in range(n):
        tx = stored_tx(volume, f"reports/r{i}.csv", f"row,{i}\n".encode())
        assert isinstance(append_anchor(chain, tx), Block)
        txs.append(tx)
    return chain, txs


# --- canonical encoding ------------------------------------------------------

def oracle_encode(path, digest, size, bricks, meta, submitter, timestamp):
    def s(text):
        raw = text.encode("utf-8")
        return struct.pack(">Q", len(raw)) + raw

    out = s(path) + s(digest) + struct.pack(">Q", size) + struct.pack(">Q", len(bricks))
    for brick in bricks:
        out += s(brick)
    out += struct.pack(">Q", len(meta))
    for key, value in meta:
        out += s(key) + s(value)
    return out + s(submitter) + struct.pack(">d", timestamp)


def test_encoding_matches_oracle():
    ref = ContentRef("tröt/å.csv", sha256_hex(b"x"), 7, ("brick-00", "brick-02"))
    meta = (("kind", "report"), ("route", "R.VT"))
    got = encode_tx_fields(ref, meta, "ops", 1699.25)
    want = oracle_encode("tröt/å.csv", ref.digest, 7, ref.brick_ids, meta, "ops", 1699.25)
    assert got == want
    assert compute_tx_id(ref, meta, "ops", 1699.25) == hashlib.sha256(want).hexdigest()


@given(
    path=st.text(max_size=20),
    size=st.integers(min_value=0, max_value=2**40),
    meta=st.lists(st.tuples(st.text(max_size=8), st.text(max_size=8)), max_size=4),
    submitter=st.text(max_size=10),
    timestamp=st.floats(allow_nan=False, allow_infinity=False),
)
def test_tx_id_matches_oracle(path, size, meta, submitter, timestamp):
    ref = ContentRef(path, sha256_hex(path.encode()), size, ("b0",))
    want = hashlib.sha256(
        oracle_encode(path, ref.digest, size, ("b0",), meta, submitter, timestamp)
    ).hexdigest()
    assert compute_tx_id(ref, meta, submitter, timestamp) == want


def test_negative_size_refused():
    ref = ContentRef("p", sha256_hex(b""), -1, ())
    with pytest.raises(ValueError, match="negative"):
        encode_tx_fields(ref, (), "", 0.0)


def test_anchor_tx_sorts_meta_for_canonical_id():
    ref = ref_of()
    a = anchor_tx(ref, {"zeta": "1", "alpha": "2"}, "ops", 0.0)
    b = anchor_tx(ref, [("alpha", "2"), ("zeta", "1")], "ops", 0.0)
    assert a.index_meta == (("alpha", "2"), ("zeta", "1"))
    assert a.tx_id == b.tx_id


# --- merkle tree -------------------------------------------------------------

def test_merkle_hand_computed():
    leaves = [sha256_hex(bytes([i])) for i in range(3)]
    raw = [bytes.fromhex(t) for t in leaves]

    assert merkle_root([]) == ZERO_HASH
    assert merkle_root(leaves[:1]) == leaves[0]
    assert merkle_root(leaves[:2]) == hashlib.sha256(raw[0] + raw[1]).hexdigest()
    # odd layer: the third leaf pairs with itself
    h01 = hashlib.sha256(raw[0] + raw[1]).digest()
    h22 = hashlib.sha256(raw[2] + raw[2]).digest()
    assert merkle_root(leaves) == hashlib.sha256(h01 + h22).hexdigest()


def test_block_hash_hand_computed():
    tx_ids = [sha256_hex(b"only")]
    payload = struct.pack(">Q", 5) + bytes.fromhex(ZERO_HASH) + bytes.fromhex(merkle_root(tx_ids))
    assert compute_block_hash(5, ZERO_HASH, tx_ids) == hashlib.sha256(payload).hexdigest()


# --- contract rules ----------------------------------------------------------

def test_first_reject_wins():
    tx = anchor_tx(ref_of(), {}, "ops", 0.0)
    rules = [
        ContractRule("skip-me", trigger=lambda t: False, response=RESPONSE_REJECT),
        ContractRule("large-files", trigger=lambda t: True, response=RESPONSE_REJECT),
        ContractRule("never-reached", trigger=lambda t: True, response=RESPONSE_REJECT),
    ]
    outcome = evaluate_rules(tx, rules)
    assert isinstance(outcome, Rejection)
    assert outcome.rule == "large-files"


def test_annotation_rehashes_tx():
    tx = anchor_tx(ref_of(), {"kind": "report"}, "ops", 0.0)
    rule = ContractRule(
        "tag-csv",
        trigger=lambda t: t.content.path.endswith(".csv"),
        response=RESPONSE_ANNOTATE,
        annotation=("screened", "yes"),
    )
    outcome = evaluate_rules(tx, [rule])
    assert isinstance(outcome, AnchorTx)
    assert ("screened", "yes") in outcome.index_meta
    assert outcome.tx_id != tx.tx_id  # meta is part of the id
    assert outcome.tx_id == anchor_tx(
        tx.content, dict(tx.index_meta) | {"screened": "yes"}, "ops", 0.0
    ).tx_id


def test_authorization_gate():
    rule = ContractRule("ops-only", trigger=lambda t: True, authorized=frozenset({"ops"}))
    ok = evaluate_rules(anchor_tx(ref_of(), {}, "ops", 0.0), [rule])
    assert isinstance(ok, AnchorTx)
    denied = evaluate_rules(anchor_tx(ref_of(), {}, "mallory", 0.0), [rule])
    assert isinstance(denied, Rejection)
    assert denied.rule == "ops-only"
    assert "mallory" in denied.reason


def test_rule_validation():
    with pytest.raises(ValueError, match="unknown response"):
        ContractRule("bad", trigger=lambda t: True, response="explode")
    with pytest.raises(ValueError, match="no annotation"):
        ContractRule("bad", trigger=lambda t: True, response=RESPONSE_ANNOTATE)


# --- chain building ----------------------------------------------------------

def test_five_block_chain_links_and_verifies(volume):
    chain, txs = build_chain(volume, 5)
    assert chain.height == 5
    assert chain.blocks[0].prev_hash == ZERO_HASH
    for i in range(1, 5):
        assert chain.blocks[i].prev_hash == chain.blocks[i - 1].block_hash
    assert chain.tip_hash == chain.blocks[-1].block_hash
    assert chain.tx_ids() == {t.tx_id for t in txs}
    verify_chain(chain)  # no raise


def test_duplicate_tx_rejected_before_rules(volume):
    chain = Chain()
    tx = stored_tx(volume, "p", b"x")
    append_anchor(chain, tx)
    outcome = append_anchor(
        chain, tx, rules=[ContractRule("r", trigger=lambda t: True, response=RESPONSE_REJECT)]
    )
    assert isinstance(outcome, Rejection)
    assert "duplicate" in outcome.reason
    assert outcome.rule is None  # never reached rule evaluation
    assert chain.height == 1


def test_duplicate_rejected_on_imported_chain(volume):
    chain, txs = build_chain(volume, 3)
    imported = import_chain(export_chain(chain))
    outcome = append_anchor(imported, txs[1])
    assert isinstance(outcome, Rejection)
    assert "duplicate" in outcome.reason
    assert imported.height == 3


def test_find_tx_returns_first_occurrence_on_import():
    tx = anchor_tx(ref_of(), {}, "ops", 0.0)
    b0 = make_block(0, ZERO_HASH, [tx])
    b1 = make_block(1, b0.block_hash, [tx])
    chain = import_chain(export_chain(Chain([b0, b1])))
    block, _ = chain.find_tx(tx.tx_id)
    assert block.height == 0


def test_find_tx_returns_first_occurrence_of_annotated_duplicate():
    # both transactions annotate to the same id, so it lands twice
    rule = ContractRule(
        "tag", trigger=lambda t: True, response=RESPONSE_ANNOTATE, annotation=("kind", "csv")
    )
    chain = Chain()
    first = append_anchor(chain, anchor_tx(ref_of(), {"kind": "a"}, "ops", 0.0), [rule])
    second = append_anchor(chain, anchor_tx(ref_of(), {"kind": "b"}, "ops", 0.0), [rule])
    assert isinstance(first, Block) and isinstance(second, Block)
    tx_id = first.tx_list[0].tx_id
    assert second.tx_list[0].tx_id == tx_id
    block, _ = chain.find_tx(tx_id)
    assert block is first


def test_find_tx_returns_swapped_in_block(volume):
    chain, txs = build_chain(volume, 3)
    victim = chain.blocks[1]
    tx = victim.tx_list[0]
    forged = AnchorTx(
        tx_id=tx.tx_id,
        content=ContentRef(tx.content.path, tx.content.digest, 999, tx.content.brick_ids),
        index_meta=tx.index_meta,
        submitter=tx.submitter,
        timestamp=tx.timestamp,
    )
    swapped = Block(victim.height, victim.prev_hash, (forged,), victim.block_hash)
    chain.blocks[1] = swapped
    block, found = chain.find_tx(txs[1].tx_id)
    assert block is swapped
    assert found is forged


def test_consensus_decline_blocks_append(volume):
    class Declines:
        def propose(self, block):
            return False

    chain = Chain()
    outcome = append_anchor(chain, stored_tx(volume, "p", b"x"), cluster=Declines())
    assert isinstance(outcome, Rejection)
    assert "did not decide" in outcome.reason
    assert chain.height == 0


def test_consensus_accept_appends(volume):
    chain = Chain()
    cluster = ValidatorCluster(n=4, f=1, seed=13)
    outcome = append_anchor(chain, stored_tx(volume, "p", b"x"), cluster=cluster)
    assert isinstance(outcome, Block)
    assert chain.height == 1
    assert cluster.confirmed == 1


# --- tamper detection --------------------------------------------------------

def test_tampered_tx_caught_at_its_height(volume):
    chain, _ = build_chain(volume, 5)
    victim = chain.blocks[2]
    tx = victim.tx_list[0]
    forged = AnchorTx(
        tx_id=tx.tx_id,  # id kept, content fields silently inflated
        content=ContentRef(tx.content.path, tx.content.digest, tx.content.size_bytes + 7, tx.content.brick_ids),
        index_meta=tx.index_meta,
        submitter=tx.submitter,
        timestamp=tx.timestamp,
    )
    chain.blocks[2] = Block(victim.height, victim.prev_hash, (forged,), victim.block_hash)
    with pytest.raises(ChainIntegrityError) as err:
        verify_chain(chain)
    assert err.value.height == 2


def test_broken_link_caught(volume):
    chain, _ = build_chain(volume, 4)
    b3 = chain.blocks[3]
    chain.blocks[3] = make_block(3, sha256_hex(b"not the tip"), b3.tx_list)
    with pytest.raises(ChainIntegrityError, match="link broken") as err:
        verify_chain(chain)
    assert err.value.height == 3


def test_wrong_height_field_caught(volume):
    chain, _ = build_chain(volume, 2)
    b1 = chain.blocks[1]
    chain.blocks[1] = Block(9, b1.prev_hash, b1.tx_list, b1.block_hash)
    with pytest.raises(ChainIntegrityError, match="height"):
        verify_chain(chain)


# --- export / import ---------------------------------------------------------

def test_export_import_round_trip(volume):
    chain, txs = build_chain(volume, 3)
    text = export_chain(chain)
    imported = import_chain(text)
    assert imported.imported
    assert export_chain(imported) == text
    verify_chain(imported)  # linkage and block hashes re-validate
    block, tx = imported.find_tx(txs[1].tx_id)
    assert block.height == 1
    assert tx.content.path == txs[1].content.path
    assert tx.content.digest == txs[1].content.digest
    assert tx.content.size_bytes == txs[1].content.size_bytes
    assert tx.content.brick_ids == ()  # reduced text form


@given(
    specs=st.lists(
        st.tuples(
            st.text(alphabet="abcXYZ019/._- ", min_size=1, max_size=24),
            st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3),
            st.integers(min_value=0, max_value=2**40),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_block_exports_concatenate_to_the_chain_export(specs):
    chain = Chain()
    appended = ""
    for i, (path, meta, size) in enumerate(specs):
        ref = ContentRef(path, sha256_hex(str(i).encode()), size, ("brick-00",))
        block = append_anchor(chain, anchor_tx(ref, meta, "prop", float(i)))
        assert isinstance(block, Block)
        appended += export_chain(Chain([block]))
    assert appended == export_chain(chain)
    assert export_chain(import_chain(appended)) == appended


def test_export_format(volume):
    chain, txs = build_chain(volume, 1)
    block = chain.blocks[0]
    tx = txs[0]
    assert export_chain(chain) == (
        f"0,{ZERO_HASH},{block.block_hash},1\n"
        f"  {tx.tx_id},{tx.content.path},{tx.content.digest},{tx.content.size_bytes}\n"
    )
    assert export_chain(Chain()) == ""
    empty = import_chain("")
    assert empty.height == 0 and empty.tip_hash == ZERO_HASH


def test_imported_chain_catches_tx_id_tamper(volume):
    chain, txs = build_chain(volume, 2)
    text = export_chain(chain)
    victim = txs[1].tx_id
    flipped = ("0" if victim[0] != "0" else "1") + victim[1:]
    tampered = import_chain(text.replace(victim, flipped))
    # merkle root over tx ids no longer matches the recorded block hash
    with pytest.raises(ChainIntegrityError, match="does not match contents") as err:
        verify_chain(tampered)
    assert err.value.height == 1


def test_import_validation():
    with pytest.raises(ValueError, match="without block header"):
        import_chain("  deadbeef,p,d,1\n")
    with pytest.raises(ValueError, match="bad block header"):
        import_chain("0,aa,bb\n")
    with pytest.raises(ValueError, match="promises 2 txs"):
        import_chain(f"0,{ZERO_HASH},{'a' * 64},2\n  t,p,d,1\n")
    with pytest.raises(ValueError, match="bad tx line"):
        import_chain(f"0,{ZERO_HASH},{'a' * 64},1\n  only,three,fields\n")


# --- anchored-file audit -----------------------------------------------------

def test_verify_anchor_ok(volume):
    chain, txs = build_chain(volume, 3)
    result = verify_anchor(chain, txs[2].tx_id, volume)
    assert result.status == VERIFY_OK
    assert result.height == 2


def test_verify_anchor_unknown_tx(volume):
    chain, _ = build_chain(volume, 1)
    result = verify_anchor(chain, "0" * 64, volume)
    assert result.status == VERIFY_MISSING
    assert "not present" in result.detail


def test_verify_anchor_path_absent(volume):
    chain = Chain()
    tx = anchor_tx(ref_of("never/written.bin", b"ghost"), {}, "ops", 0.0)
    append_anchor(chain, tx)
    result = verify_anchor(chain, tx.tx_id, volume)
    assert result.status == VERIFY_MISSING
    assert "absent from store" in result.detail


def test_verify_anchor_rewritten_content(volume):
    # a later write of the path leaves the anchored version's blob in place,
    # and the audit reads that version
    chain = Chain()
    tx = stored_tx(volume, "p", b"original")
    append_anchor(chain, tx)
    volume.write("p", b"replaced")
    result = verify_anchor(chain, tx.tx_id, volume)
    assert result.status == VERIFY_OK


def test_verify_anchor_corrupted_blob(volume):
    chain = Chain()
    tx = stored_tx(volume, "p", b"original")
    append_anchor(chain, tx)
    brick = volume.bricks[tx.content.brick_ids[0]]
    brick.blob_path(tx.content.digest).write_bytes(b"scribble")
    result = verify_anchor(chain, tx.tx_id, volume)
    assert result.status == VERIFY_MISMATCH
    assert "digest mismatch on brick" in result.detail


def test_verify_anchor_size_mismatch(volume):
    chain = Chain()
    written = volume.write("p", b"five!")
    lying = ContentRef("p", written.digest, 999, written.brick_ids)
    tx = anchor_tx(lying, {}, "ops", 0.0)
    append_anchor(chain, tx)
    result = verify_anchor(chain, tx.tx_id, volume)
    assert result.status == VERIFY_MISMATCH
    assert "stored size 5 != anchored 999" in result.detail


def test_verify_anchor_checks_whole_chain_first(volume):
    chain, txs = build_chain(volume, 3)
    b1 = chain.blocks[1]
    chain.blocks[1] = make_block(1, sha256_hex(b"wrong"), b1.tx_list)
    # auditing a tx in the *intact* genesis block still fails: linkage first
    result = verify_anchor(chain, txs[0].tx_id, volume)
    assert result.status == VERIFY_MISMATCH
    assert result.height == 1
    assert "link broken" in result.detail
