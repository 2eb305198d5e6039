"""Injectable time sources.

Anything that measures latency takes a ``clock`` callable returning seconds.
Production code passes ``time.monotonic``; tests pass a :class:`FakeClock`
so measured durations are exact and reproducible.
"""

from __future__ import annotations

import time

MONOTONIC = time.monotonic


class FakeClock:
    """Deterministic clock: advances by ``step`` on every call."""

    def __init__(self, start: float = 0.0, step: float = 0.0) -> None:
        self.now = float(start)
        self.step = float(step)
        self.calls = 0

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        self.calls += 1
        return t
