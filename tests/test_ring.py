"""Ring placement against a brute-force oracle and balance statistics."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from fleetchain.ring import HashRing, VNODES_PER_BRICK, fnv1a64, ring_hash

BRICKS = ("brick-00", "brick-01", "brick-02")

M64 = 0xFFFFFFFFFFFFFFFF


def oracle_fnv1a64(data: bytes) -> int:
    # independent re-statement of the published algorithm
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & M64
    return h


def oracle_ring_hash(data: bytes) -> int:
    # FNV-1a pushed through the murmur3 fmix64 finalizer
    h = oracle_fnv1a64(data)
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & M64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & M64
    h ^= h >> 33
    return h


def oracle_place(brick_ids, vnodes, path, replica_count):
    """Brute force: sort all vnode hashes, walk clockwise from the first
    point at or after the key, collecting distinct bricks."""
    points = sorted(
        (oracle_ring_hash(f"{b}#{i}".encode()), b)
        for b in brick_ids
        for i in range(vnodes)
    )
    key = oracle_ring_hash(path.encode())
    owners = []
    n = len(points)
    start = next((i for i, (h, _) in enumerate(points) if h >= key), 0)
    i = start
    while len(owners) < replica_count:
        b = points[i % n][1]
        if b not in owners:
            owners.append(b)
        i += 1
    return owners


# --- hash function ----------------------------------------------------------

def test_fnv_reference_vectors():
    # published FNV-1a 64 test values
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv_str_is_utf8_bytes():
    assert fnv1a64("päth") == fnv1a64("päth".encode("utf-8"))


@given(st.binary(max_size=64))
def test_fnv_matches_oracle(data):
    assert fnv1a64(data) == oracle_fnv1a64(data)


@given(st.binary(max_size=64))
def test_ring_hash_matches_oracle(data):
    assert ring_hash(data) == oracle_ring_hash(data)


# --- placement --------------------------------------------------------------

def test_place_matches_brute_force_oracle():
    ring = HashRing.build(BRICKS, vnodes_per_brick=16)
    for k in range(200):
        path = f"dir/file-{k}.dat"
        for rc in (1, 2, 3):
            assert ring.place(path, rc) == oracle_place(BRICKS, 16, path, rc)


def test_replicas_are_distinct():
    ring = HashRing.build(BRICKS)
    for k in range(100):
        owners = ring.place(f"p{k}", 3)
        assert sorted(owners) == sorted(BRICKS)


def test_placement_stable_across_builds():
    a = HashRing.build(BRICKS)
    b = HashRing.build(BRICKS)
    assert a.points == b.points
    assert [a.place(f"x{i}", 2) for i in range(50)] == [
        b.place(f"x{i}", 2) for i in range(50)
    ]


def test_balance_three_bricks():
    ring = HashRing.build(BRICKS)
    counts = {b: 0 for b in BRICKS}
    n = 10_000
    for k in range(n):
        counts[ring.place(f"load/{k}", 1)[0]] += 1
    for b in BRICKS:
        assert abs(counts[b] / n - 1 / 3) < 0.05


def test_removal_moves_only_the_lost_bricks_keys():
    full = HashRing.build(BRICKS)
    reduced = HashRing.build(BRICKS[:2])
    n = 10_000
    moved = 0
    for k in range(n):
        path = f"move/{k}"
        before = full.place(path, 1)[0]
        after = reduced.place(path, 1)[0]
        if before != after:
            moved += 1
            assert before == BRICKS[2]  # only keys of the removed brick move
    share_of_removed = sum(
        1 for k in range(n) if full.place(f"move/{k}", 1)[0] == BRICKS[2]
    )
    assert moved == share_of_removed


def test_single_brick_owns_everything():
    ring = HashRing.build(("solo",), vnodes_per_brick=4)
    assert ring.place("anything", 1) == ["solo"]


def test_build_validation():
    with pytest.raises(ValueError, match="at least one"):
        HashRing.build(())
    with pytest.raises(ValueError, match="duplicate"):
        HashRing.build(("a", "a"))
    with pytest.raises(ValueError, match="vnodes"):
        HashRing.build(("a",), vnodes_per_brick=0)


def test_place_validation():
    ring = HashRing.build(BRICKS)
    with pytest.raises(ValueError, match="replica_count"):
        ring.place("p", 0)
    with pytest.raises(ValueError, match="replica_count"):
        ring.place("p", 4)


@pytest.mark.parametrize("vnodes", [1, 7, 100, 1001])
@pytest.mark.parametrize(
    "brick_ids",
    [
        ("solo",),
        BRICKS[:2],
        BRICKS,
        ("brück-0", "磚-1", "🧱", "", "b#1"),
        tuple(f"node {k}" for k in range(5)),
    ],
)
def test_build_points_equal_the_unstreamed_vnode_hashes(brick_ids, vnodes):
    # the reference: each vnode label hashed whole, not carried on from
    # the hash state of its "<brick_id>#" prefix
    expected = sorted((ring_hash(f"{b}#{i}"), b) for b in brick_ids for i in range(vnodes))
    assert HashRing.build(brick_ids, vnodes_per_brick=vnodes).points == tuple(expected)


def test_default_vnode_count():
    ring = HashRing.build(BRICKS)
    assert len(ring.points) == 3 * VNODES_PER_BRICK
