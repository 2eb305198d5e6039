"""The benchmark's own tests.  Not collected by a bare ``pytest`` run (the
name does not match ``test_*.py``); run them explicitly:

    python3 -m pytest -q perfbench/check_bench.py

The minimal-size runs take about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import TooFewSamples, percentile  # noqa: E402
from tracing import Span, self_times  # noqa: E402

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, 0, "cli.anchor", 0.0, 10.0),
        Span(1, 0, 0, "ledger.append", 1.0, 5.0),
        Span(2, 1, 0, "pbft.round", 2.0, 3.0),
        Span(3, 0, 0, "store.save", 6.0, 8.0),
    ]
    assert self_times(spans) == {0: 4.0, 1: 3.0, 2: 1.0, 3: 2.0}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_emits_every_named_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0",
                     "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_without_sources_exits_nonzero_printing_no_result():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "--workload", "workflow", "--seed", "0",
                         "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
