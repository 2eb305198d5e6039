"""Hash-linked anchor ledger with store-backed audit.

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
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol, Sequence

from .store import (
    BlobGoneError,
    ContentRef,
    IntegrityError,
    NotFoundError,
    Volume,
    check_field,
    sha256_hex,
)

ZERO_HASH = "0" * 64

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


# --- chain ------------------------------------------------------------------

class Chain:
    """In-memory block sequence with a ``tx_id -> height`` index.

    The constructor indexes the blocks it is given; after that
    :func:`append_anchor`, through :meth:`link`, is the only appender and
    keeps the index current.
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

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self.tx_heights

    def link(self, block: Block) -> None:
        """Append ``block``, which :func:`append_anchor` has checked."""
        for tx in block.tx_list:
            self.tx_heights.setdefault(tx.tx_id, self.height)
        self.blocks.append(block)

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


@dataclass
class ChainTip:
    """What linking the next block needs of a chain: its height, tip hash
    and tx ids, as :func:`scan_tip` reads them without building a block.
    It holds no blocks, so :func:`verify_chain` and :func:`verify_anchor`
    refuse it rather than verify it vacuously."""

    height: int = 0
    tip_hash: str = ZERO_HASH
    tx_ids: set[str] = field(default_factory=set)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self.tx_ids

    def link(self, block: Block) -> None:
        """Advance past ``block``, which :func:`append_anchor` has checked."""
        self.tx_ids.update(tx.tx_id for tx in block.tx_list)
        self.height += 1
        self.tip_hash = block.block_hash


class ConsensusCluster(Protocol):
    def propose(self, block: Block) -> bool: ...


@dataclass(frozen=True)
class Rejection:
    reason: str


def append_anchor(
    chain: Chain | ChainTip, tx: AnchorTx, *, cluster: ConsensusCluster | None = None
) -> Block | Rejection:
    """Link one transaction as the next block.

    A duplicate transaction id is rejected before any consensus round.
    When a ``cluster`` is given the block only links after the round decides.
    """
    if tx.tx_id in chain:
        return Rejection(reason=f"duplicate tx_id {tx.tx_id}")
    block = make_block(chain.height, chain.tip_hash, [tx])
    if cluster is not None and not cluster.propose(block):
        return Rejection(reason="consensus round did not decide")
    chain.link(block)
    return block


def _require_blocks(chain: Chain) -> None:
    if not isinstance(chain, Chain):
        raise TypeError(f"verification needs a Chain of blocks, not {type(chain).__name__}")


def verify_chain(chain: Chain) -> None:
    """Re-validate linkage from genesis; raises at the first bad height."""
    _require_blocks(chain)
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
    size.  The anchored version of the path is read; only when no replica
    recorded it for the path is the current version read, to name what is
    stored instead.  A missing path, or an anchored version whose blob is
    gone, reports "missing"; every other discrepancy is a "mismatch" naming
    what broke.
    """
    _require_blocks(chain)
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
        except BlobGoneError:
            raise
        except NotFoundError:
            data = volume.read(tx.content.path)
    except BlobGoneError as exc:
        return VerifyResult(VERIFY_MISSING, str(exc), height=block.height)
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

def check_tx_path(path: str) -> None:
    """Refuse a path that the comma-separated tx line, or the tab-separated
    rows of the store's sidecars, cannot hold."""
    if "," in path:
        raise ValueError(f"path {path!r}: chain.txt tx fields must not contain commas")
    check_field(path, "path")


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


def _parse_export(text: str) -> Iterator[tuple[int, str, str, list[tuple[str, str, str, int]]]]:
    """``(height, prev_hash, block_hash, txs)`` per block of
    :func:`export_chain` output, each tx as ``(tx_id, path, digest, size)``;
    blank lines are skipped.  Raises ``ValueError`` at the first malformed
    line."""
    block = None  # the block being read: height, prev_hash, block_hash, tx_count
    txs: list[tuple[str, str, str, int]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if block is not None:
            if len(txs) < block[3]:
                if not line.startswith("  "):
                    break
                tparts = stripped.split(",")
                if len(tparts) != 4:
                    raise ValueError(f"bad tx line: {line!r}")
                tx_id, path, digest, size = tparts
                txs.append((tx_id, path, digest, int(size)))
                continue
            yield block[0], block[1], block[2], txs
            block, txs = None, []
        if line.startswith("  "):
            raise ValueError(f"unexpected tx line without block header: {line!r}")
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad block header: {line!r}")
        block = int(parts[0]), parts[1], parts[2], int(parts[3])
    if block is not None:
        if len(txs) < block[3]:
            raise ValueError(f"block {block[0]} promises {block[3]} txs, found {len(txs)}")
        yield block[0], block[1], block[2], txs


def import_chain(text: str) -> Chain:
    """Parse :func:`export_chain` output.

    The text form keeps only the audit-relevant content fields, so the
    resulting chain is marked ``imported``: linkage and merkle structure
    re-validate, transaction ids are taken as recorded.
    """
    blocks = [
        Block(
            height=height,
            prev_hash=prev_hash,
            tx_list=tuple(
                AnchorTx(
                    tx_id=tx_id,
                    content=ContentRef(path=path, digest=digest, size_bytes=size, brick_ids=()),
                    index_meta=(),
                    submitter="",
                    timestamp=0.0,
                )
                for tx_id, path, digest, size in txs
            ),
            block_hash=block_hash,
        )
        for height, prev_hash, block_hash, txs in _parse_export(text)
    ]
    return Chain(blocks, imported=True)


def scan_tip(text: str) -> ChainTip:
    """Height, tip hash and tx ids of :func:`export_chain` output, parsed
    as :func:`import_chain` parses it (refusing the same texts) but
    building no block or transaction."""
    tip = ChainTip()
    for _, _, block_hash, txs in _parse_export(text):
        tip.height += 1
        tip.tip_hash = block_hash
        for tx in txs:
            tip.tx_ids.add(tx[0])
    return tip
