"""Hash-linked anchor ledger with rule screening and store-backed audit.

An anchor transaction pins a stored file: its logical path, sha256 digest,
size, owning bricks, and free-form index tags.  Transactions are encoded
canonically (length-prefixed UTF-8 strings, fixed-width big-endian
integers) so every hash is reproducible from the fields alone.  Blocks
chain over sha256: each block hashes its height, the previous block hash,
and the merkle root of its transaction ids; the genesis predecessor is the
all-zero hash.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

from .store import IntegrityError, NotFoundError, ContentRef, Volume, sha256_hex

ZERO_HASH = "0" * 64

RESPONSE_ACCEPT = "accept"
RESPONSE_REJECT = "reject"
RESPONSE_ANNOTATE = "annotate"

VERIFY_OK = "ok"
VERIFY_MISMATCH = "mismatch"
VERIFY_MISSING = "missing"


class ChainIntegrityError(Exception):
    """A block fails re-validation; carries the offending height."""

    def __init__(self, height: int, message: str) -> None:
        self.height = height
        super().__init__(f"block {height}: {message}")


# --- canonical encoding -----------------------------------------------------

def _enc_u64(value: int) -> bytes:
    if value < 0:
        raise ValueError("cannot encode negative integer")
    return value.to_bytes(8, "big")


def _enc_f64(value: float) -> bytes:
    return struct.pack(">d", value)


def _enc_bytes(value: bytes) -> bytes:
    return _enc_u64(len(value)) + value


def _enc_str(value: str) -> bytes:
    return _enc_bytes(value.encode("utf-8"))


def encode_tx_fields(
    content: ContentRef,
    index_meta: Sequence[tuple[str, str]],
    submitter: str,
    timestamp: float,
) -> bytes:
    parts = [
        _enc_str(content.path),
        _enc_str(content.digest),
        _enc_u64(content.size_bytes),
        _enc_u64(len(content.brick_ids)),
    ]
    parts.extend(_enc_str(b) for b in content.brick_ids)
    parts.append(_enc_u64(len(index_meta)))
    for key, value in index_meta:
        parts.append(_enc_str(key))
        parts.append(_enc_str(value))
    parts.append(_enc_str(submitter))
    parts.append(_enc_f64(timestamp))
    return b"".join(parts)


def compute_tx_id(
    content: ContentRef,
    index_meta: Sequence[tuple[str, str]],
    submitter: str,
    timestamp: float,
) -> str:
    return hashlib.sha256(encode_tx_fields(content, index_meta, submitter, timestamp)).hexdigest()


@dataclass(frozen=True)
class AnchorTx:
    """One anchored file reference; ``tx_id`` is the hash of the fields."""

    tx_id: str
    content: ContentRef
    index_meta: tuple[tuple[str, str], ...]
    submitter: str
    timestamp: float


def anchor_tx(
    content: ContentRef,
    index_meta: dict[str, str] | Sequence[tuple[str, str]] | None = None,
    submitter: str = "",
    timestamp: float = 0.0,
) -> AnchorTx:
    """Build a transaction; meta keys are sorted for canonical hashing."""
    if index_meta is None:
        meta: tuple[tuple[str, str], ...] = ()
    elif isinstance(index_meta, dict):
        meta = tuple(sorted(index_meta.items()))
    else:
        meta = tuple(sorted((str(k), str(v)) for k, v in index_meta))
    tx_id = compute_tx_id(content, meta, submitter, timestamp)
    return AnchorTx(
        tx_id=tx_id,
        content=content,
        index_meta=meta,
        submitter=submitter,
        timestamp=timestamp,
    )


# --- blocks -----------------------------------------------------------------

def merkle_root(tx_ids: Sequence[str]) -> str:
    """Pairwise sha256 tree over transaction id bytes; an odd layer carries
    its last element up doubled; no transactions give the zero root."""
    if not tx_ids:
        return ZERO_HASH
    layer = [bytes.fromhex(t) for t in tx_ids]
    while len(layer) > 1:
        if len(layer) % 2 == 1:
            layer.append(layer[-1])
        layer = [
            hashlib.sha256(layer[i] + layer[i + 1]).digest() for i in range(0, len(layer), 2)
        ]
    return layer[0].hex()


def compute_block_hash(height: int, prev_hash: str, tx_ids: Sequence[str]) -> str:
    payload = _enc_u64(height) + bytes.fromhex(prev_hash) + bytes.fromhex(merkle_root(tx_ids))
    return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: str
    tx_list: tuple[AnchorTx, ...]
    block_hash: str


def make_block(height: int, prev_hash: str, txs: Sequence[AnchorTx]) -> Block:
    tx_list = tuple(txs)
    return Block(
        height=height,
        prev_hash=prev_hash,
        tx_list=tx_list,
        block_hash=compute_block_hash(height, prev_hash, [t.tx_id for t in tx_list]),
    )


# --- contract rules ---------------------------------------------------------

@dataclass(frozen=True)
class ContractRule:
    """Declarative screening rule applied to incoming transactions.

    ``trigger`` decides whether the rule applies.  ``authorized`` (when not
    None) lists submitters allowed to pass a triggered rule; anyone else is
    rejected citing the rule.  ``response`` is what a triggered, authorized
    rule does: accept, reject, or annotate the transaction with a tag.
    """

    name: str
    trigger: Callable[[AnchorTx], bool]
    response: str = RESPONSE_ACCEPT
    authorized: frozenset[str] | None = None
    annotation: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if self.response not in (RESPONSE_ACCEPT, RESPONSE_REJECT, RESPONSE_ANNOTATE):
            raise ValueError(f"unknown response {self.response!r}")
        if self.response == RESPONSE_ANNOTATE and self.annotation is None:
            raise ValueError(f"rule {self.name!r} annotates but has no annotation")


@dataclass(frozen=True)
class Rejection:
    reason: str
    rule: str | None = None


def evaluate_rules(tx: AnchorTx, rules: Sequence[ContractRule]) -> AnchorTx | Rejection:
    """Apply rules in declaration order; the first reject wins.

    Annotations accumulate onto the transaction (re-hashed, since meta is
    part of the id).  A triggered rule with an authorization list rejects
    unauthorized submitters regardless of its response.
    """
    current = tx
    for rule in rules:
        if not rule.trigger(current):
            continue
        if rule.authorized is not None and current.submitter not in rule.authorized:
            return Rejection(
                reason=f"submitter {current.submitter!r} not authorized", rule=rule.name
            )
        if rule.response == RESPONSE_REJECT:
            return Rejection(reason="rejected by rule", rule=rule.name)
        if rule.response == RESPONSE_ANNOTATE:
            key, value = rule.annotation
            meta = dict(current.index_meta)
            meta[key] = value
            current = anchor_tx(
                current.content, meta, current.submitter, current.timestamp
            )
    return current


# --- chain ------------------------------------------------------------------

class Chain:
    """In-memory block sequence with a ``tx_id -> height`` index.

    The constructor indexes the blocks it is given; after that
    :func:`append_anchor` is the only appender and keeps the index current.
    When an id occurs more than once the index holds its first height.
    ``imported`` chains carry reduced transaction fields (see
    :func:`import_chain`) and skip id re-hashing during verification."""

    def __init__(self, blocks: Iterable[Block] = (), imported: bool = False) -> None:
        self.blocks: list[Block] = list(blocks)
        self.imported = imported
        self.tx_heights: dict[str, int] = {}
        for height, block in enumerate(self.blocks):
            for tx in block.tx_list:
                self.tx_heights.setdefault(tx.tx_id, height)

    @property
    def tip_hash(self) -> str:
        return self.blocks[-1].block_hash if self.blocks else ZERO_HASH

    @property
    def height(self) -> int:
        return len(self.blocks)

    def tx_ids(self) -> set[str]:
        return set(self.tx_heights)

    def find_tx(self, tx_id: str) -> tuple[Block, AnchorTx] | None:
        """The block at the indexed height and its first tx with this id;
        a block swapped into ``blocks`` since is the one returned."""
        height = self.tx_heights.get(tx_id)
        if height is None:
            return None
        block = self.blocks[height]
        for tx in block.tx_list:
            if tx.tx_id == tx_id:
                return block, tx
        return None


class ConsensusCluster(Protocol):
    def propose(self, block: Block) -> bool: ...


def append_anchor(
    chain: Chain,
    tx: AnchorTx,
    rules: Sequence[ContractRule] = (),
    cluster: ConsensusCluster | None = None,
) -> Block | Rejection:
    """Screen, batch, and link one transaction as the next block.

    Duplicate transaction ids are rejected before rule evaluation.  When a
    ``cluster`` is given the block only links after the round decides.
    """
    if tx.tx_id in chain.tx_heights:
        return Rejection(reason=f"duplicate tx_id {tx.tx_id}")
    outcome = evaluate_rules(tx, rules)
    if isinstance(outcome, Rejection):
        return outcome
    block = make_block(chain.height, chain.tip_hash, [outcome])
    if cluster is not None and not cluster.propose(block):
        return Rejection(reason="consensus round did not decide")
    chain.tx_heights.setdefault(outcome.tx_id, chain.height)
    chain.blocks.append(block)
    return block


def verify_chain(chain: Chain) -> None:
    """Re-validate linkage from genesis; raises at the first bad height."""
    prev = ZERO_HASH
    for i, block in enumerate(chain.blocks):
        if block.height != i:
            raise ChainIntegrityError(i, f"height field says {block.height}")
        if block.prev_hash != prev:
            raise ChainIntegrityError(i, "previous-hash link broken")
        if not chain.imported:
            for tx in block.tx_list:
                recomputed = compute_tx_id(
                    tx.content, tx.index_meta, tx.submitter, tx.timestamp
                )
                if recomputed != tx.tx_id:
                    raise ChainIntegrityError(i, f"tx {tx.tx_id} does not hash to its id")
        expected = compute_block_hash(
            block.height, block.prev_hash, [t.tx_id for t in block.tx_list]
        )
        if expected != block.block_hash:
            raise ChainIntegrityError(i, "block hash does not match contents")
        prev = block.block_hash


@dataclass(frozen=True)
class VerifyResult:
    status: str  # ok | mismatch | missing
    detail: str
    height: int | None = None


def verify_anchor(chain: Chain, tx_id: str, volume: Volume) -> VerifyResult:
    """Audit one anchored file against the chain and the store.

    Checks, in order: the transaction exists; the whole chain re-validates;
    the stored bytes hash to the anchored digest and match the anchored
    size.  The anchored version of the path is read; only when it is gone is
    the current version read, to name what replaced it.  A missing path
    reports "missing"; every other discrepancy is a "mismatch" naming what
    broke.
    """
    located = chain.find_tx(tx_id)
    if located is None:
        return VerifyResult(VERIFY_MISSING, f"tx {tx_id} not present in chain")
    block, tx = located
    try:
        verify_chain(chain)
    except ChainIntegrityError as exc:
        return VerifyResult(VERIFY_MISMATCH, str(exc), height=exc.height)
    try:
        try:
            data = volume.read(tx.content.path, tx.content.digest)
        except NotFoundError:
            data = volume.read(tx.content.path)
    except NotFoundError:
        return VerifyResult(
            VERIFY_MISSING, f"path {tx.content.path!r} absent from store", height=block.height
        )
    except IntegrityError as exc:
        return VerifyResult(VERIFY_MISMATCH, str(exc), height=block.height)
    actual = sha256_hex(data)
    if actual != tx.content.digest:
        return VerifyResult(
            VERIFY_MISMATCH,
            f"stored digest {actual} != anchored {tx.content.digest}",
            height=block.height,
        )
    if len(data) != tx.content.size_bytes:
        return VerifyResult(
            VERIFY_MISMATCH,
            f"stored size {len(data)} != anchored {tx.content.size_bytes}",
            height=block.height,
        )
    return VerifyResult(VERIFY_OK, "content and linkage verified", height=block.height)


# --- text export ------------------------------------------------------------

def export_chain(chain: Chain) -> str:
    """Line format: ``height,prev,hash,tx_count`` then two-space-indented
    ``tx_id,path,digest,size`` per transaction."""
    lines = []
    for block in chain.blocks:
        lines.append(
            f"{block.height},{block.prev_hash},{block.block_hash},{len(block.tx_list)}"
        )
        for tx in block.tx_list:
            lines.append(
                f"  {tx.tx_id},{tx.content.path},{tx.content.digest},{tx.content.size_bytes}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def import_chain(text: str) -> Chain:
    """Parse :func:`export_chain` output.

    The text form keeps only the audit-relevant content fields, so the
    resulting chain is marked ``imported``: linkage and merkle structure
    re-validate, transaction ids are taken as recorded.
    """
    blocks: list[Block] = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("  "):
            raise ValueError(f"unexpected tx line without block header: {line!r}")
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad block header: {line!r}")
        height, prev_hash, block_hash = int(parts[0]), parts[1], parts[2]
        tx_count = int(parts[3])
        txs = []
        for j in range(tx_count):
            i += 1
            if i >= len(lines) or not lines[i].startswith("  "):
                raise ValueError(f"block {height} promises {tx_count} txs, found {j}")
            tparts = lines[i].strip().split(",")
            if len(tparts) != 4:
                raise ValueError(f"bad tx line: {lines[i]!r}")
            tx_id, path, digest, size = tparts
            txs.append(
                AnchorTx(
                    tx_id=tx_id,
                    content=ContentRef(
                        path=path, digest=digest, size_bytes=int(size), brick_ids=()
                    ),
                    index_meta=(),
                    submitter="",
                    timestamp=0.0,
                )
            )
        blocks.append(
            Block(height=height, prev_hash=prev_hash, tx_list=tuple(txs), block_hash=block_hash)
        )
        i += 1
    return Chain(blocks, imported=True)
