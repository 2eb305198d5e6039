"""Throughput sweep: grid shape, skip rules, and exact fake-clock figures.

With a shared FakeClock the elapsed time of one repetition is pure call
counting: 1 call for t0, 2 per chunk write per replica, 2 per replica for
the fsync, 1 for the final reading --

    per_rep = (2 * replicas * (chunks + 1) + 1) * step

The dyadic step (2**-10 s) keeps every sum exact, so throughput asserts
use plain equality against the same arithmetic.
"""

from __future__ import annotations

import pytest

from fleetchain.bench import (
    DEFAULT_FILE_SIZES_KB,
    DEFAULT_RECORD_SIZES_KB,
    BenchGrid,
    _run_cell,
    bench_csv,
    powers_of_two,
    run_bench,
)
from fleetchain.clock import MONOTONIC, FakeClock
from fleetchain.store import FOP_WRITE, Volume, create_volume

STEP = 2.0**-10


def clocked_volume(tmp_path, replica_count=1, step=STEP):
    clock = FakeClock(step=step)
    vol = create_volume(tmp_path / "vol", n_bricks=3, replica_count=replica_count, clock=clock)
    return vol, clock


def expected_throughput(file_kb, record_kb, reps, replicas, step=STEP):
    chunks = file_kb // record_kb
    per_rep = (2 * replicas * (chunks + 1) + 1) * step
    return file_kb * reps / (per_rep * reps)


# --- grid definition ---------------------------------------------------------

def test_powers_of_two():
    assert powers_of_two(4, 64) == (4, 8, 16, 32, 64)
    assert powers_of_two(8, 8) == (8,)
    with pytest.raises(ValueError, match="not a positive power of two"):
        powers_of_two(3, 8)
    with pytest.raises(ValueError, match="not a positive power of two"):
        powers_of_two(0, 8)
    with pytest.raises(ValueError, match="empty range"):
        powers_of_two(16, 8)


def test_default_grid_shape():
    grid = BenchGrid()
    assert grid.file_sizes_kb == DEFAULT_FILE_SIZES_KB
    assert grid.record_sizes_kb == DEFAULT_RECORD_SIZES_KB
    cells = grid.cells()
    assert len(cells) == 60
    assert cells[0] == (4, 64) and cells[-1] == (2048, 2048)  # row-major
    assert sum(1 for f, r in cells if r <= f) == 21


def test_grid_validation():
    with pytest.raises(ValueError, match="repetitions"):
        BenchGrid(repetitions=0)
    with pytest.raises(ValueError, match="must not be empty"):
        BenchGrid(file_sizes_kb=())
    with pytest.raises(ValueError, match="ascending"):
        BenchGrid(file_sizes_kb=(8, 4))
    with pytest.raises(ValueError, match="positive"):
        BenchGrid(record_sizes_kb=(0, 4))


# --- sweeps ------------------------------------------------------------------

def test_skip_cells_where_record_exceeds_file(tmp_path):
    vol, clock = clocked_volume(tmp_path)
    grid = BenchGrid(file_sizes_kb=(4, 8), record_sizes_kb=(8, 16), repetitions=1)
    result = run_bench(vol, grid, clock=clock)
    flags = {(c.file_kb, c.record_kb): c.skipped for c in result.cells}
    assert flags == {(4, 8): True, (4, 16): True, (8, 8): False, (8, 16): True}
    skipped = [c for c in result.cells if c.skipped]
    assert all(c.throughput_kb_s == 0.0 and c.elapsed_s == 0.0 for c in skipped)
    assert not result.aborted


def test_fake_clock_throughput_exact(tmp_path):
    vol, clock = clocked_volume(tmp_path)
    grid = BenchGrid(file_sizes_kb=(8,), record_sizes_kb=(2, 4, 8), repetitions=3)
    result = run_bench(vol, grid, seed=1, clock=clock)
    by_record = {c.record_kb: c for c in result.valid_cells()}
    assert by_record[2].throughput_kb_s == expected_throughput(8, 2, 3, replicas=1)
    assert by_record[4].throughput_kb_s == expected_throughput(8, 4, 3, replicas=1)
    assert by_record[8].throughput_kb_s == expected_throughput(8, 8, 3, replicas=1)
    assert by_record[8].elapsed_s == 15 * STEP  # 3 reps x (2*(1+1)+1) steps


def test_fake_clock_throughput_two_replicas(tmp_path):
    vol, clock = clocked_volume(tmp_path, replica_count=2)
    grid = BenchGrid(file_sizes_kb=(8,), record_sizes_kb=(8,), repetitions=3)
    result = run_bench(vol, grid, seed=1, clock=clock)
    (cell,) = result.valid_cells()
    assert cell.throughput_kb_s == expected_throughput(8, 8, 3, replicas=2)


def test_zero_step_clock_hits_elapsed_floor(tmp_path):
    vol, clock = clocked_volume(tmp_path, step=0.0)
    grid = BenchGrid(file_sizes_kb=(8,), record_sizes_kb=(8,), repetitions=3)
    (cell,) = run_bench(vol, grid, clock=clock).valid_cells()
    assert cell.elapsed_s == 1e-9
    assert cell.throughput_kb_s == 8 * 3 / 1e-9


def test_bench_writes_expected_files(tmp_path):
    vol, clock = clocked_volume(tmp_path)
    grid = BenchGrid(file_sizes_kb=(8,), record_sizes_kb=(2,), repetitions=2)
    run_bench(vol, grid, seed=5, clock=clock)
    for rep in range(2):
        assert vol.lookup(f"bench/f8k_r2k/rep{rep}").size_bytes == 8 * 1024


def test_seeded_data_is_deterministic(tmp_path):
    grid = BenchGrid(file_sizes_kb=(4, 8), record_sizes_kb=(4,), repetitions=2)
    vol_a, clock_a = clocked_volume(tmp_path / "a")
    vol_b, clock_b = clocked_volume(tmp_path / "b")
    vol_c, clock_c = clocked_volume(tmp_path / "c")
    res_a = run_bench(vol_a, grid, seed=3, clock=clock_a)
    res_b = run_bench(vol_b, grid, seed=3, clock=clock_b)
    res_c = run_bench(vol_c, grid, seed=4, clock=clock_c)
    assert res_a == res_b  # identical cells, timings, flags
    assert vol_a.lookup("bench/f8k_r4k/rep0").digest == vol_b.lookup("bench/f8k_r4k/rep0").digest
    assert vol_a.lookup("bench/f8k_r4k/rep0").digest != vol_c.lookup("bench/f8k_r4k/rep0").digest


def test_outage_aborts_sweep_keeping_finished_cells(tmp_path):
    vol, _ = clocked_volume(tmp_path)
    inner = FakeClock(step=STEP)
    calls = {"n": 0}

    def tripping_clock():
        # bench clock only: t0 + final per rep, so 3 reps = 6 calls per
        # cell; call 7 is the second cell's t0 -- down everything there
        calls["n"] += 1
        if calls["n"] == 7:
            for bid in list(vol.bricks):
                vol.set_brick_down(bid)
        return inner()

    grid = BenchGrid(file_sizes_kb=(4, 8, 16), record_sizes_kb=(4,), repetitions=3)
    result = run_bench(vol, grid, clock=tripping_clock)
    assert result.aborted
    assert [(c.file_kb, c.record_kb) for c in result.cells] == [(4, 4)]
    assert result.cells[0].throughput_kb_s > 0


def test_threaded_sweep_same_shape(tmp_path):
    grid = BenchGrid(file_sizes_kb=(4, 8), record_sizes_kb=(2, 4), repetitions=2)
    vol_1 = create_volume(tmp_path / "v1", n_bricks=3, replica_count=1)
    vol_2 = create_volume(tmp_path / "v2", n_bricks=3, replica_count=1)
    seq = run_bench(vol_1, grid, clock=MONOTONIC, threads=1)
    par = run_bench(vol_2, grid, clock=MONOTONIC, threads=2)
    assert [(c.file_kb, c.record_kb, c.skipped) for c in par.cells] == [
        (c.file_kb, c.record_kb, c.skipped) for c in seq.cells
    ]
    assert all(c.throughput_kb_s > 0 for c in par.valid_cells())
    with pytest.raises(ValueError, match="threads"):
        run_bench(vol_1, grid, threads=0)


# --- rendering ---------------------------------------------------------------

def test_bench_csv_format(tmp_path):
    vol, clock = clocked_volume(tmp_path)
    grid = BenchGrid(file_sizes_kb=(4, 8), record_sizes_kb=(4, 8), repetitions=1)
    lines = bench_csv(run_bench(vol, grid, clock=clock)).splitlines()
    assert lines[0] == "file_kb,record_kb,throughput_kb_s"
    # only the three valid cells appear, in sweep order
    assert len(lines) == 4
    assert lines[1] == f"4,4,{expected_throughput(4, 4, 1, replicas=1):.2f}"
    assert lines[2] == f"8,4,{expected_throughput(8, 4, 1, replicas=1):.2f}"
    assert lines[3] == f"8,8,{expected_throughput(8, 8, 1, replicas=1):.2f}"


def test_failed_cell_frees_its_path(tmp_path, monkeypatch):
    vol, clock = clocked_volume(tmp_path, replica_count=2)
    real_timed = Volume._timed

    def full_disk(self, brick, op, fn):
        if op == FOP_WRITE:
            raise OSError(28, "No space left on device")
        return real_timed(self, brick, op, fn)

    monkeypatch.setattr(Volume, "_timed", full_disk)
    with pytest.raises(OSError):
        _run_cell(vol, 4, 4, 1, 0, clock)
    monkeypatch.undo()

    assert not vol._path_lock("bench/f4k_r4k/rep0").locked()
    for brick in vol.bricks.values():
        assert list(brick.blobs.glob(".tmp-*")) == []
    assert not _run_cell(vol, 4, 4, 1, 0, clock).skipped
