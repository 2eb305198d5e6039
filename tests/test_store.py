"""Replicated store: placement, failover, integrity, and FOP accounting.

Accounting tests run on a FakeClock with a dyadic step (2**-10 s) so every
measured duration, running sum, and average is exactly representable and
strict equality holds — no tolerance bands hiding an off-by-one clock call.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetchain.clock import FakeClock
from fleetchain.ring import HashRing
from fleetchain.store import (
    FOP_FSYNC,
    FOP_FXATTROP,
    FOP_LOOKUP,
    FOP_READDIRP,
    FOP_WRITE,
    TRACKED_FOPS,
    Brick,
    IntegrityError,
    NotFoundError,
    StoreError,
    UnavailableError,
    Volume,
    create_volume,
    open_volume,
    profile_csv,
    profile_text,
    save_volume,
    sha256_hex,
)

STEP = 2.0**-10          # exactly representable; see module docstring
STEP_US = STEP * 1e6     # 976.5625, also exact


def dyadic_volume(tmp_path, n_bricks=3, replica_count=1):
    clock = FakeClock(step=STEP)
    vol = create_volume(
        tmp_path / "vol", n_bricks=n_bricks, replica_count=replica_count, clock=clock
    )
    return vol, clock


def owner_bricks(volume, path):
    return [volume.bricks[b] for b in volume.place(path)]


# --- round trips ------------------------------------------------------------

def test_write_read_round_trip(volume):
    ref = volume.write("fleet/day1.csv", b"ts,lat,lon\n1,2,3\n")
    assert volume.read("fleet/day1.csv") == b"ts,lat,lon\n1,2,3\n"
    assert ref.path == "fleet/day1.csv"
    assert ref.digest == sha256_hex(b"ts,lat,lon\n1,2,3\n")
    assert ref.size_bytes == 17
    assert len(ref.brick_ids) == 1


def test_empty_payload_round_trip(volume):
    ref = volume.write("empty.bin", b"")
    assert ref.size_bytes == 0
    assert ref.digest == sha256_hex(b"")
    assert volume.read("empty.bin") == b""


def test_overwrite_last_entry_wins(volume):
    volume.write("cfg", b"v1")
    ref = volume.write("cfg", b"v2-longer")
    assert volume.read("cfg") == b"v2-longer"
    assert volume.lookup("cfg").digest == ref.digest
    assert volume.lookup("cfg").size_bytes == 9


@given(chunks=st.lists(st.binary(max_size=64), min_size=1, max_size=8))
def test_chunked_write_equals_whole_write(tmp_path_factory, chunks):
    base = tmp_path_factory.mktemp("chunked")
    vol = create_volume(base / "vol", n_bricks=2, replica_count=2)
    w = vol.writer("blob")
    for chunk in chunks:
        w.write(chunk)
    ref = w.close()
    whole = b"".join(chunks)
    assert ref.digest == sha256_hex(whole)
    assert ref.size_bytes == len(whole)
    assert vol.read("blob") == whole


def test_read_unknown_path_raises(volume):
    with pytest.raises(NotFoundError, match="nope"):
        volume.read("nope")


# --- on-disk layout ---------------------------------------------------------

def test_layout_blob_index_meta(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    data = b"payload bytes"
    ref = vol.write("a/b.bin", data)
    vol.fxattrop("a/b.bin", "anchor", "tx-1")
    save_volume(vol, tmp_path / "vol")

    assert (tmp_path / "vol" / "volume.json").exists()
    brick_root = tmp_path / "vol" / "bricks" / ref.brick_ids[0]
    assert (brick_root / "blobs" / ref.digest).read_bytes() == data
    assert f"a/b.bin\t{ref.digest}\t{len(data)}\n" in (brick_root / "index.tsv").read_text()
    assert "a/b.bin\tanchor\ttx-1\n" in (brick_root / "xattr.tsv").read_text()
    assert (tmp_path / "vol" / "stats.tsv").exists()


def test_sidecars_are_append_only(tmp_path):
    vol, _ = dyadic_volume(tmp_path, n_bricks=1)
    brick_root = tmp_path / "vol" / "bricks" / "brick-00"
    index_file, xattr_file = brick_root / "index.tsv", brick_root / "xattr.tsv"
    vol.write("p", b"one")
    vol.fxattrop("p", "state", "sealed")
    inodes = (index_file.stat().st_ino, xattr_file.stat().st_ino)

    vol.write("p", b"two!")
    vol.fxattrop("p", "state", "final")
    save_volume(vol, tmp_path / "vol")

    # both entries stay; nothing is compacted or replaced
    assert index_file.read_text().splitlines() == [
        f"p\t{sha256_hex(b'one')}\t3",
        f"p\t{sha256_hex(b'two!')}\t4",
    ]
    assert xattr_file.read_text().splitlines() == ["p\tstate\tsealed", "p\tstate\tfinal"]
    assert (index_file.stat().st_ino, xattr_file.stat().st_ino) == inodes
    # the last entry wins on reload
    reopened = open_volume(tmp_path / "vol")
    assert reopened.read("p") == b"two!"
    assert reopened.xattrs("p") == {"state": "final"}


def test_create_refuses_existing_volume(tmp_path):
    create_volume(tmp_path / "vol", n_bricks=1)
    with pytest.raises(StoreError, match="already exists"):
        create_volume(tmp_path / "vol", n_bricks=1)


def test_open_missing_volume(tmp_path):
    with pytest.raises(StoreError, match="no volume"):
        open_volume(tmp_path / "missing")


def test_volume_validation(tmp_path):
    with pytest.raises(ValueError, match="n_bricks"):
        create_volume(tmp_path / "v0", n_bricks=0)
    with pytest.raises(ValueError, match="replica_count"):
        create_volume(tmp_path / "v1", n_bricks=2, replica_count=3)
    with pytest.raises(ValueError, match="replica_count"):
        create_volume(tmp_path / "v2", n_bricks=2, replica_count=0)
    with pytest.raises(ValueError, match="at least one brick"):
        Volume([])


def test_path_guard(volume):
    with pytest.raises(ValueError, match="tabs or newlines"):
        volume.write("bad\tpath", b"x")
    with pytest.raises(ValueError, match="tabs or newlines"):
        volume.write("bad\npath", b"x")


# --- replication and failover -----------------------------------------------

def test_replicas_hold_identical_bytes(tmp_path):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    ref = vol.write("f", b"replicated")
    assert len(ref.brick_ids) == 2
    for bid in ref.brick_ids:
        blob = vol.bricks[bid].blob_path(ref.digest)
        assert blob.read_bytes() == b"replicated"


def test_write_places_its_path_once(tmp_path, monkeypatch):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    owners = vol.place("f")
    vol.set_brick_down(owners[0])
    placed = []
    place = HashRing.place

    def counting_place(ring, path, replica_count):
        placed.append(path)
        return place(ring, path, replica_count)

    monkeypatch.setattr(HashRing, "place", counting_place)
    ref = vol.write("f", b"placed once")
    assert placed == ["f"]
    # the reference names every owner, the one that was down included
    assert ref.brick_ids == tuple(owners)


def test_read_fails_over_when_first_replica_down(tmp_path):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    ref = vol.write("f", b"still here")
    first, second = ref.brick_ids
    vol.set_brick_down(first)
    assert vol.read("f") == b"still here"
    # served by the surviving replica, accounted there
    assert vol.bricks[second].stats[FOP_LOOKUP].calls == 1
    assert vol.bricks[first].stats[FOP_LOOKUP].calls == 0
    vol.set_brick_down(second)
    with pytest.raises(UnavailableError, match="all replicas down"):
        vol.read("f")
    vol.set_brick_up(first)
    assert vol.read("f") == b"still here"


def test_read_skips_replica_missing_its_blob(tmp_path):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    ref = vol.write("f", b"content")
    vol.bricks[ref.brick_ids[0]].blob_path(ref.digest).unlink()
    # absence is treated as partial-write debris: quietly fail over
    assert vol.read("f") == b"content"


def test_corrupted_blob_raises_not_fails_over(tmp_path):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    ref = vol.write("f", b"original")
    bad_brick = ref.brick_ids[0]
    vol.bricks[bad_brick].blob_path(ref.digest).write_bytes(b"tampered")
    # a clean second copy exists, but corruption must surface loudly
    with pytest.raises(IntegrityError) as err:
        vol.read("f")
    assert err.value.brick_id == bad_brick
    assert err.value.path == "f"
    assert bad_brick in str(err.value)


def test_write_with_all_owners_down(tmp_path):
    vol, _ = dyadic_volume(tmp_path, n_bricks=1)
    vol.set_brick_down("brick-00")
    with pytest.raises(UnavailableError):
        vol.write("p", b"x")


# --- FOP accounting ---------------------------------------------------------

def test_every_fop_costs_exactly_one_step(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    vol.write("d/x", b"xx")
    vol.write("d/y", b"yy")
    vol.read("d/x")
    vol.lookup("d/x")
    vol.fsync("d/x")
    vol.fxattrop("d/x", "k", "v")
    vol.readdirp("d")

    totals = {op: 0 for op in TRACKED_FOPS}
    for brick in vol.bricks.values():
        for op, st_ in brick.stats.items():
            totals[op] += st_.calls
            if st_.calls:
                assert st_.min_us == STEP_US
                assert st_.max_us == STEP_US
                assert st_.avg_us == STEP_US
                assert st_.sum_us == st_.calls * STEP_US
    # read resolves the path and is accounted as a LOOKUP
    assert totals[FOP_WRITE] == 2
    assert totals[FOP_LOOKUP] == 2
    assert totals[FOP_FSYNC] == 1
    assert totals[FOP_FXATTROP] == 1
    assert totals[FOP_READDIRP] == 3  # one per live brick


def test_fsync_of_a_named_version(tmp_path):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    first = vol.write("p", b"first")
    vol.write("p", b"second")
    reopened = open_volume(tmp_path / "vol")
    reopened.fsync("p", first.digest)  # the superseded version, by its digest
    assert sum(b.stats[FOP_FSYNC].calls for b in reopened.bricks.values()) == 2
    assert all(b._index is None for b in reopened.bricks.values())  # no index parsed
    with pytest.raises(NotFoundError):
        reopened.fsync("p", sha256_hex(b"never written"))


@pytest.mark.parametrize("by_digest", [False, True])
def test_fsync_without_any_blob_is_not_found(tmp_path, by_digest):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    ref = vol.write("p", b"gone")
    for brick in owner_bricks(vol, "p"):
        brick.blob_path(ref.digest).unlink()
    with pytest.raises(NotFoundError, match="'p' not found"):
        vol.fsync("p", ref.digest if by_digest else None)
    assert sum(b.stats[FOP_FSYNC].calls for b in vol.bricks.values()) == 0


def test_read_is_accounted_as_lookup(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    ref = vol.write("solo", b"z")
    owner = vol.bricks[ref.brick_ids[0]]
    vol.read("solo")
    assert owner.stats[FOP_WRITE].calls == 1
    assert owner.stats[FOP_LOOKUP].calls == 1
    assert owner.stats[FOP_READDIRP].calls == 0
    assert owner.stats[FOP_FSYNC].calls == 0


def test_each_chunk_is_one_write_per_replica(tmp_path):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    w = vol.writer("big")
    for _ in range(5):
        w.write(b"chunk")
    ref = w.close()
    for bid in ref.brick_ids:
        assert vol.bricks[bid].stats[FOP_WRITE].calls == 5


# --- directory listing ------------------------------------------------------

def test_readdirp_merges_and_sorts(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    vol.write("logs/a.txt", b"AAAA")
    vol.write("logs/b/inner.txt", b"deep")
    vol.write("logs/c.txt", b"c")
    vol.write("other/x", b"x")

    entries = vol.readdirp("logs")
    assert [e.name for e in entries] == ["a.txt", "b", "c.txt"]
    a, b, c = entries
    assert (a.is_dir, a.size_bytes, a.digest) == (False, 4, sha256_hex(b"AAAA"))
    assert (b.is_dir, b.size_bytes, b.digest) == (True, 0, None)
    assert a.path == "logs/a.txt"
    assert b.path == "logs/b"
    assert c.size_bytes == 1


def test_readdirp_root_and_trailing_slash(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    vol.write("logs/a", b"1")
    vol.write("top.bin", b"2")
    root = vol.readdirp("")
    assert [(e.name, e.is_dir) for e in root] == [("logs", True), ("top.bin", False)]
    assert vol.readdirp("logs/") == vol.readdirp("logs")


def test_readdirp_all_bricks_down(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    for bid in list(vol.bricks):
        vol.set_brick_down(bid)
    with pytest.raises(UnavailableError, match="all bricks down"):
        vol.readdirp("")


# --- extended attributes ----------------------------------------------------

def test_xattr_set_and_read_back(volume):
    volume.write("doc", b"d")
    volume.fxattrop("doc", "anchor", "tx-9")
    volume.fxattrop("doc", "state", "sealed")
    volume.fxattrop("doc", "state", "final")  # overwrite
    assert volume.xattrs("doc") == {"anchor": "tx-9", "state": "final"}


def test_xattr_guards(volume):
    volume.write("doc", b"d")
    with pytest.raises(ValueError):
        volume.fxattrop("doc", "bad\tkey", "v")
    with pytest.raises(ValueError):
        volume.fxattrop("doc", "k", "bad\nvalue")
    with pytest.raises(NotFoundError):
        volume.fxattrop("ghost", "k", "v")


# --- abort ------------------------------------------------------------------

def test_abort_leaves_no_trace(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    w = vol.writer("doomed")
    w.write(b"half-written")
    w.abort()
    with pytest.raises(NotFoundError):
        vol.read("doomed")
    for brick in vol.bricks.values():
        assert list((brick.root / "blobs").glob(".tmp-*")) == []
    w.abort()  # idempotent
    with pytest.raises(StoreError, match="already closed"):
        w.write(b"more")


def test_failed_chunk_write_frees_the_path(tmp_path, monkeypatch):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    real_timed = Volume._timed

    def full_disk(self, brick, op, fn):
        if op == FOP_WRITE:
            raise OSError(28, "No space left on device")
        return real_timed(self, brick, op, fn)

    monkeypatch.setattr(Volume, "_timed", full_disk)
    with pytest.raises(OSError, match="No space"):
        vol.write("p", b"payload")
    monkeypatch.undo()

    assert not vol._path_lock("p").locked()
    for brick in vol.bricks.values():
        assert list(brick.blobs.glob(".tmp-*")) == []
    with pytest.raises(NotFoundError):
        vol.read("p")
    vol.write("p", b"payload")
    assert vol.read("p") == b"payload"


def test_failed_close_frees_the_path_without_with(tmp_path, monkeypatch):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)

    def full_disk(self, path, digest, size):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Brick, "append_index", full_disk)
    writer = vol.writer("p")
    writer.write(b"payload")
    with pytest.raises(OSError, match="No space"):
        writer.close()
    monkeypatch.undo()

    assert not vol._path_lock("p").locked()
    for brick in vol.bricks.values():
        assert list(brick.blobs.glob(".tmp-*")) == []
    vol.write("p", b"payload")
    assert vol.read("p") == b"payload"


def test_failed_replica_open_removes_the_other_temporaries(tmp_path):
    vol, _ = dyadic_volume(tmp_path, replica_count=2)
    first, second = owner_bricks(vol, "p")
    second.blobs.rmdir()  # its temporary blob cannot be created
    with pytest.raises(FileNotFoundError):
        vol.write("p", b"payload")
    assert list(first.blobs.glob(".tmp-*")) == []
    assert not vol._path_lock("p").locked()
    second.blobs.mkdir()
    vol.write("p", b"payload")
    assert vol.read("p") == b"payload"


def test_read_selects_a_version_by_digest(tmp_path):
    vol, _ = dyadic_volume(tmp_path, n_bricks=1)
    first = vol.write("p", b"first")
    vol.write("p", b"second")
    other = vol.write("q", b"other")
    assert vol.read("p") == b"second"
    assert vol.read("p", first.digest) == b"first"
    for digest in (sha256_hex(b"never written"), other.digest, "/etc/hostname"):
        # a digest is served only for a path the index recorded it under
        with pytest.raises(NotFoundError):
            vol.read("p", digest)
    save_volume(vol, tmp_path / "vol")
    reopened = open_volume(tmp_path / "vol", clock=FakeClock(step=STEP))
    assert reopened.read("p", first.digest) == b"first"
    with pytest.raises(NotFoundError):
        reopened.read("p", other.digest)
    blob = owner_bricks(vol, "p")[0].blob_path(first.digest)
    blob.write_bytes(b"scribble")
    with pytest.raises(IntegrityError):
        vol.read("p", first.digest)


# --- persistence ------------------------------------------------------------

def test_save_open_round_trip(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    vol.write("a/x", b"xx")
    vol.write("a/y", b"yyy")
    vol.fxattrop("a/x", "k", "v")
    vol.read("a/y")
    save_volume(vol, tmp_path / "vol")

    reopened = open_volume(tmp_path / "vol", clock=FakeClock(step=STEP))
    for bid, brick in vol.bricks.items():  # compare before reads bump counters
        restored = reopened.bricks[bid]
        for op in TRACKED_FOPS:
            # exact float round trip via repr in the stats sidecar
            assert restored.stats[op].calls == brick.stats[op].calls
            assert restored.stats[op].min_us == brick.stats[op].min_us
            assert restored.stats[op].max_us == brick.stats[op].max_us
            assert restored.stats[op].sum_us == brick.stats[op].sum_us
    assert reopened.read("a/x") == b"xx"
    assert reopened.read("a/y") == b"yyy"
    assert reopened.xattrs("a/x") == {"k": "v"}
    assert reopened.replica_count == vol.replica_count


def test_reopen_without_save_still_has_index(tmp_path):
    # index.tsv is appended per write, so a crash before save loses nothing
    vol, _ = dyadic_volume(tmp_path)
    vol.write("p", b"survives")
    reopened = open_volume(tmp_path / "vol")
    assert reopened.read("p") == b"survives"


# --- profiling --------------------------------------------------------------

def test_profile_shares_track_call_counts(tmp_path):
    vol, _ = dyadic_volume(tmp_path, n_bricks=1)
    for i in range(4):
        vol.write(f"p{i}", b"x")   # 4 WRITE
    vol.read("p0")                 # 1 LOOKUP
    rows = vol.profile()
    assert [r.op for r in rows] == [FOP_LOOKUP, FOP_WRITE]  # rising share
    lookup, write = rows
    assert write.calls == 4 and lookup.calls == 1
    assert write.pct_latency == pytest.approx(80.0, rel=1e-12)
    assert lookup.pct_latency == pytest.approx(20.0, rel=1e-12)
    assert sum(r.pct_latency for r in rows) == pytest.approx(100.0, rel=1e-12)
    for r in rows:
        assert r.avg_us == r.min_us == r.max_us == STEP_US


def test_profile_empty(tmp_path):
    vol, _ = dyadic_volume(tmp_path)
    assert vol.profile() == []
    assert profile_text([]) == "(no operations recorded)\n"


def test_profile_text_format(tmp_path):
    vol, _ = dyadic_volume(tmp_path, n_bricks=1)
    vol.write("p", b"x")
    text = profile_text(vol.profile())
    lines = text.splitlines()
    assert lines[0] == "Brick: brick-00"
    assert lines[1].split() == ["%-latency", "AVG", "(us)", "MIN", "(us)", "MAX", "(us)", "#", "of", "calls", "Operation"]
    assert lines[2].split() == ["100.00", "976.56", "976.56", "976.56", "1", "WRITE"]


def test_profile_csv_format(tmp_path):
    vol, _ = dyadic_volume(tmp_path, n_bricks=1)
    vol.write("p", b"x")
    lines = profile_csv(vol.profile()).splitlines()
    assert lines[0] == "brick,pct_latency,avg_us,min_us,max_us,calls,op"
    assert lines[1] == "brick-00,100.000000,976.562500,976.562500,976.562500,1,WRITE"


# --- concurrency ------------------------------------------------------------

def test_concurrent_writes_distinct_paths(tmp_path):
    vol = create_volume(tmp_path / "vol", n_bricks=3, replica_count=2)
    payload = {f"dir{t}/file{i}": f"{t}:{i}".encode() for t in range(8) for i in range(10)}

    def worker(items):
        for path, data in items:
            vol.write(path, data)

    items = sorted(payload.items())
    with ThreadPoolExecutor(max_workers=8) as pool:
        for t in range(8):
            pool.submit(worker, items[t * 10:(t + 1) * 10])

    for path, data in payload.items():
        assert vol.read(path) == data
    # every chunk write hit both replicas, none lost
    total = sum(b.stats[FOP_WRITE].calls for b in vol.bricks.values())
    assert total == len(payload) * 2
    # appended index lines all survive a cold reopen
    reopened = open_volume(tmp_path / "vol")
    for path, data in payload.items():
        assert reopened.read(path) == data


def test_sidecars_loaded_on_first_use_keep_concurrent_appends(tmp_path):
    vol = create_volume(tmp_path / "vol", n_bricks=3, replica_count=2)
    for i in range(200):
        vol.write(f"old{i}", f"old {i}".encode())
        vol.fxattrop(f"old{i}", "k", str(i))

    def worker(volume, start, run, t):
        start.wait(timeout=60)
        for i in range(10):
            if t % 2:  # readers parse each sidecar while the writers append to it
                old = f"old{(t * 10 + i) * 3 % 200}"
                assert volume.read(old) == old.replace("old", "old ").encode()
                assert volume.xattrs(old) == {"k": old[3:]}
            else:
                path = f"new{run}/{t}/{i}"
                volume.write(path, path.encode())
                volume.fxattrop(path, "k", "v")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in range(4):
            reopened = open_volume(tmp_path / "vol")  # nothing parsed yet
            start = threading.Barrier(8)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(worker, reopened, start, run, t) for t in range(8)]
                for future in futures:
                    future.result(timeout=60)
            # an append lost between a sidecar's read and its load shows here
            cold = open_volume(tmp_path / "vol")
            for brick_id, brick in reopened.bricks.items():
                assert brick.index == cold.bricks[brick_id].index
                assert brick.versions == cold.bricks[brick_id].versions
                assert brick.xattrs == cold.bricks[brick_id].xattrs
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_writes_same_path_serialize(tmp_path):
    vol = create_volume(tmp_path / "vol", n_bricks=3, replica_count=1)
    contents = [f"writer-{i}".encode() * 50 for i in range(8)]
    barrier = threading.Barrier(8)

    def worker(data):
        barrier.wait()
        vol.write("contested", data)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for data in contents:
            pool.submit(worker, data)

    final = vol.read("contested")  # digest-verified: no interleaving possible
    assert final in contents


def test_concurrent_xattrs_same_brick(tmp_path):
    vol = create_volume(tmp_path / "vol", n_bricks=3, replica_count=1)
    target = vol.place("seed")[0]
    paths = []
    i = 0
    while len(paths) < 2:  # two distinct paths owned by one brick
        path = f"p{i}"
        if vol.place(path)[0] == target:
            paths.append(path)
            vol.write(path, b"x")
        i += 1

    def worker(path, n):
        for k in range(20):
            vol.fxattrop(path, f"key-{n}-{k}", str(k))

    with ThreadPoolExecutor(max_workers=8) as pool:
        for n in range(4):
            for path in paths:
                pool.submit(worker, path, n)

    for path in paths:
        attrs = vol.xattrs(path)
        assert len(attrs) == 4 * 20
    # the shared sidecar parses cleanly after the storm
    reopened = open_volume(tmp_path / "vol")
    for path in paths:
        assert reopened.xattrs(path) == vol.xattrs(path)
