"""Write-throughput sweep over a file-size x record-size grid.

Cells are visited row-major (file size ascending, then record size
ascending).  Each valid cell writes a seeded pseudo-random file of
``file_kb`` KiB in ``record_kb`` KiB chunks through the store, fsyncs it,
repeats, and reports the median per-repetition elapsed time.  Cells whose
record exceeds their file size cannot be written in one full chunk and are
marked skipped.  Throughput is KiB per second:

    throughput_kb_s = file_kb * repetitions / elapsed_s

with ``elapsed_s`` the median repetition time scaled to all repetitions,
so the reported figure is the median throughput.
"""

from __future__ import annotations

import random
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .clock import MONOTONIC
from .store import UnavailableError, Volume

DEFAULT_FILE_SIZES_KB = (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
DEFAULT_RECORD_SIZES_KB = (64, 128, 256, 512, 1024, 2048)
DEFAULT_REPETITIONS = 5


def powers_of_two(lo: int, hi: int) -> tuple[int, ...]:
    """All powers of two in [lo, hi]; bounds must themselves be powers of two."""
    for bound in (lo, hi):
        if bound < 1 or bound & (bound - 1):
            raise ValueError(f"{bound} is not a positive power of two")
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v *= 2
    return tuple(out)


@dataclass(frozen=True)
class BenchGrid:
    file_sizes_kb: tuple[int, ...] = DEFAULT_FILE_SIZES_KB
    record_sizes_kb: tuple[int, ...] = DEFAULT_RECORD_SIZES_KB
    repetitions: int = DEFAULT_REPETITIONS

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for name, sizes in (
            ("file_sizes_kb", self.file_sizes_kb),
            ("record_sizes_kb", self.record_sizes_kb),
        ):
            if not sizes:
                raise ValueError(f"{name} must not be empty")
            if any(s < 1 for s in sizes):
                raise ValueError(f"{name} entries must be positive")
            if list(sizes) != sorted(sizes):
                raise ValueError(f"{name} must be ascending")

    def cells(self) -> list[tuple[int, int]]:
        """Row-major (file_kb, record_kb) positions, including invalid ones."""
        return [(f, r) for f in self.file_sizes_kb for r in self.record_sizes_kb]


@dataclass(frozen=True)
class BenchCell:
    file_kb: int
    record_kb: int
    throughput_kb_s: float
    elapsed_s: float
    skipped: bool = False


@dataclass(frozen=True)
class BenchResult:
    cells: tuple[BenchCell, ...]
    aborted: bool = False

    def valid_cells(self) -> list[BenchCell]:
        return [c for c in self.cells if not c.skipped]


def _run_cell(
    volume: Volume,
    file_kb: int,
    record_kb: int,
    repetitions: int,
    seed: int,
    clock: Callable[[], float],
) -> BenchCell:
    data = random.Random(f"{seed}:{file_kb}:{record_kb}").randbytes(file_kb * 1024)
    record_bytes = record_kb * 1024
    chunks = [data[i : i + record_bytes] for i in range(0, len(data), record_bytes)]
    elapsed = []
    for rep in range(repetitions):
        path = f"bench/f{file_kb}k_r{record_kb}k/rep{rep}"
        t0 = clock()
        with volume.writer(path) as writer:
            for chunk in chunks:
                writer.write(chunk)
            digest = writer.close().digest
        volume.fsync(path, digest)
        elapsed.append(clock() - t0)
    median = statistics.median(elapsed)
    elapsed_s = max(median * repetitions, 1e-9)
    throughput = file_kb * repetitions / elapsed_s
    return BenchCell(
        file_kb=file_kb,
        record_kb=record_kb,
        throughput_kb_s=throughput,
        elapsed_s=elapsed_s,
    )


def run_bench(
    volume: Volume,
    grid: BenchGrid,
    *,
    seed: int = 0,
    clock: Callable[[], float] = MONOTONIC,
    threads: int = 1,
) -> BenchResult:
    """Sweep the grid against ``volume``.

    With ``threads > 1`` cells run concurrently; each cell still owns its
    paths exclusively, and the returned order stays row-major.  A store
    outage aborts the sweep: completed cells are returned with
    ``aborted=True``.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    positions = grid.cells()
    results: dict[tuple[int, int], BenchCell] = {}
    todo = []
    for f, r in positions:
        if r > f:
            results[(f, r)] = BenchCell(f, r, 0.0, 0.0, skipped=True)
        else:
            todo.append((f, r))

    aborted = False
    if threads == 1:
        for f, r in todo:
            try:
                results[(f, r)] = _run_cell(volume, f, r, grid.repetitions, seed, clock)
            except UnavailableError:
                aborted = True
                break
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {
                pool.submit(_run_cell, volume, f, r, grid.repetitions, seed, clock): (f, r)
                for f, r in todo
            }
            for fut, pos in futures.items():
                try:
                    results[pos] = fut.result()
                except UnavailableError:
                    aborted = True

    cells = tuple(results[pos] for pos in positions if pos in results)
    return BenchResult(cells=cells, aborted=aborted)


def bench_csv(result: BenchResult) -> str:
    """One row per valid cell in sweep order."""
    lines = ["file_kb,record_kb,throughput_kb_s"]
    for cell in result.valid_cells():
        lines.append(f"{cell.file_kb},{cell.record_kb},{cell.throughput_kb_s:.2f}")
    return "\n".join(lines) + "\n"
