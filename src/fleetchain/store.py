"""Replicated content-addressed file store with per-operation accounting.

A volume spreads logical paths over bricks via a consistent-hash ring and
keeps ``replica_count`` byte-identical copies.  Every brick is a directory:

    <root>/blobs/<sha256-hex>     content-addressed payload files
    <root>/index.tsv              path<TAB>digest<TAB>size, last entry wins
    <root>/xattr.tsv              path<TAB>key<TAB>value, last entry wins

Both sidecars are append-only, one line per write or FXATTROP; loading
keeps the last entry, and nothing compacts them or deletes superseded blobs.
Each tracked file operation (WRITE, READDIRP, LOOKUP, FXATTROP, FSYNC)
updates the serving brick's call and latency counters; a ``read`` resolves
the path first and is accounted as a LOOKUP on the brick that serves it.
Latency comes from an injectable monotonic clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .clock import MONOTONIC
from .ring import HashRing

FOP_WRITE = "WRITE"
FOP_READDIRP = "READDIRP"
FOP_LOOKUP = "LOOKUP"
FOP_FXATTROP = "FXATTROP"
FOP_FSYNC = "FSYNC"
TRACKED_FOPS = (FOP_WRITE, FOP_READDIRP, FOP_LOOKUP, FOP_FXATTROP, FOP_FSYNC)

VOLUME_META = "volume.json"
STATS_FILE = "stats.tsv"


class StoreError(Exception):
    pass


class NotFoundError(StoreError):
    pass


class UnavailableError(StoreError):
    pass


class IntegrityError(StoreError):
    """Stored bytes disagree with the recorded digest; names the brick."""

    def __init__(self, brick_id: str, path: str, expected: str, actual: str) -> None:
        self.brick_id = brick_id
        self.path = path
        super().__init__(
            f"digest mismatch on brick {brick_id!r} for {path!r}: "
            f"expected {expected}, got {actual}"
        )


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class FopStats:
    """Running call/latency counters for one operation on one brick."""

    op: str
    calls: int = 0
    min_us: float = 0.0
    max_us: float = 0.0
    sum_us: float = 0.0

    def record(self, duration_us: float) -> None:
        if self.calls == 0 or duration_us < self.min_us:
            self.min_us = duration_us
        if duration_us > self.max_us:
            self.max_us = duration_us
        self.calls += 1
        self.sum_us += duration_us

    @property
    def avg_us(self) -> float:
        return self.sum_us / self.calls if self.calls else 0.0


@dataclass(frozen=True)
class ContentRef:
    """Where a logical path landed and what its content hashes to."""

    path: str
    digest: str
    size_bytes: int
    brick_ids: tuple[str, ...]


@dataclass(frozen=True)
class DirEntry:
    name: str
    path: str
    is_dir: bool
    size_bytes: int
    digest: str | None


def _rows(sidecar: Path) -> list[list[str]]:
    """Tab-separated rows of an append-only sidecar, oldest first."""
    if not sidecar.exists():
        return []
    return [line.split("\t") for line in sidecar.read_text().splitlines() if line]


def _append_row(sidecar: Path, *fields: str) -> None:
    with sidecar.open("a") as fh:
        fh.write("\t".join(fields) + "\n")


class Brick:
    """One storage target rooted at a directory."""

    def __init__(self, brick_id: str, root: Path) -> None:
        self.id = brick_id
        self.root = Path(root)
        self.live = True
        self.index: dict[str, tuple[str, int]] = {}
        # every (path, digest) the index ever recorded, current or superseded
        self.versions: set[tuple[str, str]] = set()
        self.xattrs: dict[str, dict[str, str]] = {}
        self.stats: dict[str, FopStats] = {op: FopStats(op) for op in TRACKED_FOPS}
        self.lock = threading.Lock()
        self.blobs = self.root / "blobs"
        self.index_file = self.root / "index.tsv"
        self.xattr_file = self.root / "xattr.tsv"
        self.blobs.mkdir(parents=True, exist_ok=True)
        for path, digest, size in _rows(self.index_file):
            self.index[path] = (digest, int(size))
            self.versions.add((path, digest))
        for path, key, value in _rows(self.xattr_file):
            self.xattrs.setdefault(path, {})[key] = value

    def blob_path(self, digest: str) -> Path:
        return self.blobs / digest

    def append_index(self, path: str, digest: str, size: int) -> None:
        self.index[path] = (digest, size)
        self.versions.add((path, digest))
        _append_row(self.index_file, path, digest, str(size))

    def record(self, op: str, duration_us: float) -> None:
        with self.lock:
            self.stats[op].record(duration_us)


@dataclass(frozen=True)
class ProfileRow:
    brick_id: str
    pct_latency: float
    avg_us: float
    min_us: float
    max_us: float
    calls: int
    op: str


class Volume:
    """Brick group with consistent-hash placement and replication."""

    def __init__(
        self,
        bricks: Iterable[Brick],
        replica_count: int = 1,
        *,
        clock: Callable[[], float] = MONOTONIC,
    ) -> None:
        self.bricks = {b.id: b for b in bricks}
        if not self.bricks:
            raise ValueError("volume needs at least one brick")
        if not 1 <= replica_count <= len(self.bricks):
            raise ValueError(
                f"replica_count must be in 1..{len(self.bricks)}, got {replica_count}"
            )
        self.replica_count = replica_count
        self.clock = clock
        self.ring = HashRing.build(list(self.bricks))
        self._path_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()

    # --- placement ---------------------------------------------------------

    def place(self, path: str) -> list[str]:
        """Replica bricks for ``path`` in ring order."""
        return self.ring.place(path, self.replica_count)

    def _path_lock(self, path: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._path_locks.get(path)
            if lock is None:
                lock = self._path_locks[path] = threading.Lock()
            return lock

    def _timed(self, brick: Brick, op: str, fn: Callable[[], object]) -> object:
        t0 = self.clock()
        result = fn()
        brick.record(op, (self.clock() - t0) * 1e6)
        return result

    def _live_replicas(self, path: str, owners: Sequence[str] | None = None) -> list[Brick]:
        """Live bricks among ``owners``, by default the placement of ``path``."""
        if owners is None:
            owners = self.place(path)
        bricks = [self.bricks[b] for b in owners]
        live = [b for b in bricks if b.live]
        if not live:
            raise UnavailableError(f"all replicas down for {path!r}")
        return live

    # --- writes ------------------------------------------------------------

    def writer(self, path: str) -> "StreamWriter":
        """Chunked write handle; every chunk is one WRITE per replica."""
        return StreamWriter(self, path)

    def write(self, path: str, data: bytes) -> ContentRef:
        """Store ``data`` under ``path`` on every replica brick."""
        with self.writer(path) as w:
            w.write(data)
            return w.close()

    # --- reads and metadata ------------------------------------------------

    def read(self, path: str, digest: str | None = None) -> bytes:
        """Bytes of ``path`` from the first live replica holding them,
        digest-verified.  ``digest`` (default: the replica's current entry)
        must be one the replica's index recorded for ``path``."""
        for brick in self._live_replicas(path):
            want = brick.index.get(path, (None,))[0] if digest is None else digest
            if (path, want) not in brick.versions:
                continue
            blob = brick.blob_path(want)
            if not blob.is_file():
                continue
            data = self._timed(brick, FOP_LOOKUP, blob.read_bytes)
            actual = sha256_hex(data)
            if actual != want:
                raise IntegrityError(brick.id, path, want, actual)
            return data
        raise NotFoundError(f"{path!r} not found on any live replica")

    def lookup(self, path: str) -> ContentRef:
        """Metadata for ``path`` without transferring content."""
        owners = self.place(path)
        live = self._live_replicas(path, owners)
        for brick in live:
            entry = brick.index.get(path)
            if entry is None:
                continue
            digest, size = entry
            self._timed(brick, FOP_LOOKUP, lambda: None)
            return ContentRef(path=path, digest=digest, size_bytes=size, brick_ids=tuple(owners))
        raise NotFoundError(f"{path!r} not found on any live replica")

    def fsync(self, path: str) -> None:
        """Flush the blob behind ``path`` on every live replica."""
        live = self._live_replicas(path)
        found = False
        for brick in live:
            entry = brick.index.get(path)
            if entry is None:
                continue
            found = True
            blob = brick.blob_path(entry[0])

            def _do(blob: Path = blob) -> None:
                fd = os.open(blob, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

            self._timed(brick, FOP_FSYNC, _do)
        if not found:
            raise NotFoundError(f"{path!r} not found on any live replica")

    def readdirp(self, directory: str = "") -> list[DirEntry]:
        """Immediate children of ``directory`` with metadata, merged across
        live bricks."""
        prefix = directory.rstrip("/")
        prefix = prefix + "/" if prefix else ""
        merged: dict[str, DirEntry] = {}
        any_live = False
        for brick in self.bricks.values():
            if not brick.live:
                continue
            any_live = True

            def _do(brick: Brick = brick) -> list[DirEntry]:
                found: dict[str, DirEntry] = {}
                for path, (digest, size) in brick.index.items():
                    if not path.startswith(prefix):
                        continue
                    rest = path[len(prefix):]
                    if not rest:
                        continue
                    name, sep, _ = rest.partition("/")
                    if sep:
                        found[name] = DirEntry(name, prefix + name, True, 0, None)
                    else:
                        found[name] = DirEntry(name, path, False, size, digest)
                return list(found.values())

            for entry in self._timed(brick, FOP_READDIRP, _do):
                merged.setdefault(entry.name, entry)
        if not any_live:
            raise UnavailableError("all bricks down")
        return sorted(merged.values(), key=lambda e: e.name)

    def fxattrop(self, path: str, key: str, value: str) -> None:
        """Atomically set an extended attribute on every live replica."""
        if "\t" in key or "\n" in key or "\t" in value or "\n" in value:
            raise ValueError("xattr keys and values must not contain tabs or newlines")
        with self._path_lock(path):
            live = self._live_replicas(path)
            found = False
            for brick in live:
                if path not in brick.index:
                    continue
                found = True

                def _do(brick: Brick = brick) -> None:
                    # brick-level lock: setters on *other* paths share this
                    # brick's xattrs and its append-only sidecar
                    with brick.lock:
                        brick.xattrs.setdefault(path, {})[key] = value
                        _append_row(brick.xattr_file, path, key, value)

                self._timed(brick, FOP_FXATTROP, _do)
            if not found:
                raise NotFoundError(f"{path!r} not found on any live replica")

    def xattrs(self, path: str) -> dict[str, str]:
        for brick in self._live_replicas(path):
            if path in brick.index:
                return dict(brick.xattrs.get(path, {}))
        raise NotFoundError(f"{path!r} not found on any live replica")

    # --- availability ------------------------------------------------------

    def set_brick_down(self, brick_id: str) -> None:
        self.bricks[brick_id].live = False

    def set_brick_up(self, brick_id: str) -> None:
        self.bricks[brick_id].live = True

    # --- profiling ---------------------------------------------------------

    def profile(self) -> list[ProfileRow]:
        """Per-brick operation rows, each brick's rows sorted by rising
        latency share.  Shares are volume-wide: an operation's summed
        duration over the total duration of all operations on all bricks."""
        total_us = sum(
            st.sum_us for b in self.bricks.values() for st in b.stats.values()
        )
        rows: list[ProfileRow] = []
        for brick in self.bricks.values():
            brick_rows = []
            for op in TRACKED_FOPS:
                st = brick.stats[op]
                if st.calls == 0:
                    continue
                share = (st.sum_us / total_us * 100.0) if total_us > 0 else 0.0
                brick_rows.append(
                    ProfileRow(
                        brick_id=brick.id,
                        pct_latency=share,
                        avg_us=st.avg_us,
                        min_us=st.min_us,
                        max_us=st.max_us,
                        calls=st.calls,
                        op=op,
                    )
                )
            brick_rows.sort(key=lambda r: r.pct_latency)
            rows.extend(brick_rows)
        return rows


class StreamWriter:
    """Accumulates one logical file chunk by chunk on all replica bricks.
    As a context manager it aborts unless closed, so a failure frees the path."""

    def __init__(self, volume: Volume, path: str) -> None:
        if "\t" in path or "\n" in path:
            raise ValueError("paths must not contain tabs or newlines")
        self.volume = volume
        self.path = path
        self.size = 0
        self._hash = hashlib.sha256()
        self._closed = False
        self._lock = volume._path_lock(path)
        self._lock.acquire()
        try:
            self.owners = tuple(volume.place(path))
            self.replicas = volume._live_replicas(path, self.owners)
            self._tmp = {}
            for brick in self.replicas:
                tmp = brick.blobs / f".tmp-{id(self)}-{threading.get_ident()}"
                self._tmp[brick.id] = (tmp, tmp.open("wb"))
        except BaseException:
            self._lock.release()
            raise

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.abort()

    def write(self, chunk: bytes) -> None:
        if self._closed:
            raise StoreError("writer already closed")
        self._hash.update(chunk)
        self.size += len(chunk)
        for brick in self.replicas:
            _, fh = self._tmp[brick.id]
            self.volume._timed(brick, FOP_WRITE, lambda fh=fh: fh.write(chunk))

    def close(self) -> ContentRef:
        if self._closed:
            raise StoreError("writer already closed")
        digest = self._hash.hexdigest()
        try:
            for brick in self.replicas:
                tmp, fh = self._tmp[brick.id]
                fh.close()
                tmp.replace(brick.blob_path(digest))
                brick.append_index(self.path, digest, self.size)
        except BaseException:
            self.abort()
            raise
        self._closed = True
        self._lock.release()
        return ContentRef(self.path, digest, self.size, self.owners)

    def abort(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            for tmp, fh in self._tmp.values():
                fh.close()
                tmp.unlink(missing_ok=True)
        finally:
            self._lock.release()


# --- volume persistence helpers --------------------------------------------

def create_volume(
    directory: str | Path,
    n_bricks: int = 3,
    replica_count: int = 1,
    *,
    clock: Callable[[], float] = MONOTONIC,
) -> Volume:
    """Create an on-disk volume layout under ``directory``."""
    base = Path(directory)
    if (base / VOLUME_META).exists():
        raise StoreError(f"volume already exists at {base}")
    if n_bricks < 1:
        raise ValueError("n_bricks must be >= 1")
    brick_ids = [f"brick-{i:02d}" for i in range(n_bricks)]
    (base / "bricks").mkdir(parents=True, exist_ok=True)
    bricks = [Brick(bid, base / "bricks" / bid) for bid in brick_ids]
    meta = {"bricks": brick_ids, "replica_count": replica_count}
    (base / VOLUME_META).write_text(json.dumps(meta, indent=2) + "\n")
    return Volume(bricks, replica_count, clock=clock)


def open_volume(directory: str | Path, *, clock: Callable[[], float] = MONOTONIC) -> Volume:
    """Open a volume previously created by :func:`create_volume`, restoring
    indexes, xattrs, and saved operation counters."""
    base = Path(directory)
    meta_file = base / VOLUME_META
    if not meta_file.exists():
        raise StoreError(f"no volume at {base}")
    meta = json.loads(meta_file.read_text())
    bricks = [Brick(bid, base / "bricks" / bid) for bid in meta["bricks"]]
    volume = Volume(bricks, meta["replica_count"], clock=clock)
    stats_file = base / STATS_FILE
    if stats_file.exists():
        for line in stats_file.read_text().splitlines():
            if not line:
                continue
            bid, op, calls, min_us, max_us, sum_us = line.split("\t")
            st = volume.bricks[bid].stats[op]
            st.calls = int(calls)
            st.min_us = float(min_us)
            st.max_us = float(max_us)
            st.sum_us = float(sum_us)
    return volume


def save_volume(volume: Volume, directory: str | Path) -> None:
    """Persist operation counters; the brick sidecars are append-only and
    already hold every write and FXATTROP."""
    base = Path(directory)
    lines = []
    for brick in volume.bricks.values():
        for op in TRACKED_FOPS:
            st = brick.stats[op]
            lines.append(
                f"{brick.id}\t{op}\t{st.calls}\t{st.min_us!r}\t{st.max_us!r}\t{st.sum_us!r}"
            )
    (base / STATS_FILE).write_text("\n".join(lines) + "\n")


# --- profile rendering ------------------------------------------------------

def profile_text(rows: list[ProfileRow]) -> str:
    """Fixed-width table of profile rows grouped by brick."""
    out = []
    by_brick: dict[str, list[ProfileRow]] = {}
    for row in rows:
        by_brick.setdefault(row.brick_id, []).append(row)
    for brick_id, brick_rows in by_brick.items():
        out.append(f"Brick: {brick_id}")
        out.append(
            f"{'%-latency':>10} {'AVG (us)':>12} {'MIN (us)':>12} {'MAX (us)':>14} "
            f"{'# of calls':>10} {'Operation':<10}"
        )
        for r in brick_rows:
            out.append(
                f"{r.pct_latency:>10.2f} {r.avg_us:>12.2f} {r.min_us:>12.2f} "
                f"{r.max_us:>14.2f} {r.calls:>10d} {r.op:<10}"
            )
        out.append("")
    if not rows:
        out.append("(no operations recorded)")
    return "\n".join(out).rstrip("\n") + "\n"


def profile_csv(rows: list[ProfileRow]) -> str:
    lines = ["brick,pct_latency,avg_us,min_us,max_us,calls,op"]
    for r in rows:
        lines.append(
            f"{r.brick_id},{r.pct_latency:.6f},{r.avg_us:.6f},"
            f"{r.min_us:.6f},{r.max_us:.6f},{r.calls},{r.op}"
        )
    return "\n".join(lines) + "\n"
