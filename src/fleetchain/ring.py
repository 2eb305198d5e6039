"""Consistent-hash placement ring with virtual nodes.

Placement uses a fast 64-bit FNV-1a hash finished with a full-avalanche
mixer (content integrity elsewhere uses sha256; this ring only spreads
paths).  Bare FNV-1a leaves trailing-byte differences poorly mixed into
the high bits, which makes the vnodes of one brick cluster on the ring;
the finalizer restores a uniform spread.  Each brick contributes many
virtual points so removing or adding a brick relocates roughly 1/n of
the keys.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

FNV64_OFFSET = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

VNODES_PER_BRICK = 512


def fnv1a64(data: bytes | str) -> int:
    """64-bit FNV-1a; non-cryptographic, stable across runs and platforms."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * FNV64_PRIME) & _MASK64
    return h


def _mix64(h: int) -> int:
    # murmur3 fmix64 finalizer: published constants, full avalanche
    h ^= h >> 33
    h = (h * 0xFF51AFD7ED558CCD) & _MASK64
    h ^= h >> 33
    h = (h * 0xC4CEB9FE1A85EC53) & _MASK64
    h ^= h >> 33
    return h


def ring_hash(data: bytes | str) -> int:
    """Position on the placement ring: mixed FNV-1a."""
    return _mix64(fnv1a64(data))


@dataclass(frozen=True)
class HashRing:
    points: tuple[tuple[int, str], ...]  # sorted (hash, brick_id)
    brick_ids: tuple[str, ...]
    vnodes_per_brick: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hashes", tuple(p[0] for p in self.points))

    @classmethod
    def build(cls, brick_ids: Sequence[str], vnodes_per_brick: int = VNODES_PER_BRICK) -> "HashRing":
        if not brick_ids:
            raise ValueError("ring needs at least one brick")
        if len(set(brick_ids)) != len(brick_ids):
            raise ValueError("duplicate brick ids")
        if vnodes_per_brick < 1:
            raise ValueError("vnodes_per_brick must be >= 1")
        points = []
        for brick_id in brick_ids:
            # FNV-1a streams: hash the "<brick_id>#" prefix once, then each
            # vnode number from that state, as ring_hash(f"{brick_id}#{i}")
            prefix = fnv1a64(f"{brick_id}#")
            for i in range(vnodes_per_brick):
                h = prefix
                for byte in str(i).encode():
                    h = ((h ^ byte) * FNV64_PRIME) & _MASK64
                points.append((_mix64(h), brick_id))
        points.sort()
        return cls(
            points=tuple(points),
            brick_ids=tuple(brick_ids),
            vnodes_per_brick=vnodes_per_brick,
        )

    def place(self, path: str, replica_count: int) -> list[str]:
        """Owner bricks for ``path``: the first vnode at or after the path's
        hash plus the next distinct bricks clockwise."""
        if not 1 <= replica_count <= len(self.brick_ids):
            raise ValueError(
                f"replica_count must be in 1..{len(self.brick_ids)}, got {replica_count}"
            )
        h = ring_hash(path)
        start = bisect_left(self._hashes, h)
        if start == len(self.points):
            start = 0
        owners: list[str] = []
        i = start
        while len(owners) < replica_count:
            brick = self.points[i][1]
            if brick not in owners:
                owners.append(brick)
            i = (i + 1) % len(self.points)
        return owners
