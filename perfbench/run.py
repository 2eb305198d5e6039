"""Benchmark of the fleetchain pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload anchor-verify --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``; ``--workload all`` runs each in
its own process, one after another.  A run sets up its workload, checks
the set-up state, then runs closed-loop steps until ``--seconds`` have
passed.  It prints one line per metric, a provenance line, and as its last
line a JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json.
With ``--trace 1`` every other step runs with the layer wrappers of
``tracing.py`` installed; the metrics are the per-layer ones, derived from
the traced steps, plus ``trace.overhead_ratio`` (median traced step time
over median untraced step time).  Spans are written to
``.perfbench_work/spans-<workload>-s<seed>.jsonl``.

Exit codes: 0 when the run completed (``correct`` says whether every output
check passed), 2 on bad arguments or when ``src/fleetchain`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import TooFewSamples, median, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("simulate-calibrate", "workflow", "anchor-verify")
SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_STEPS = 2  # an untraced and a traced step; two simulate reports to compare
SHOWN_ERRORS = 5
# seconds for simulate and workflow calls, milliseconds for the fast ones
CALL_UNITS = {"simulate": ("s", 1.0), "workflow": ("s", 1.0),
              "anchor": ("ms", 1e3), "verify": ("ms", 1e3)}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str | None:
    """HEAD of the checkout; None outside a git checkout.  The ceiling
    keeps git from looking above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fop_totals(volume_dir: Path | None) -> dict[str, int]:
    """Persisted per-operation call counts of a volume, summed over bricks."""
    from fleetchain.store import open_volume

    totals: dict[str, int] = {}
    if volume_dir is None or not (volume_dir / "volume.json").exists():
        return totals
    for row in open_volume(volume_dir).profile():
        totals[row.op] = totals.get(row.op, 0) + row.calls
    return totals


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``fleetchain <argv>`` in this process with stdout and stderr captured."""
    from fleetchain import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed call, not a failed run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    return rc, out.getvalue()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, chain_height

    rundir = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](seed, run_cli)
        setup_times = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup(rundir / f"setup{rep}")
            setup_times.append(time.perf_counter() - t0)
        # Earlier set-ups are removed only with the run directory: ext4 without
        # a journal skips inodes freed in the last 30-60 s when it creates a
        # file, so deleting thousands here would slow the set-ups and calls after.
        errors = [f"set-up check: {e}" for e in wl.check_setup()]
        height_start = chain_height(wl.ledger)
        fops_start = fop_totals(wl.volume)

        tracer = Tracer()
        call_times: dict[str, list[float]] = {}
        # (calls, call time) of each step, keyed by whether it was traced
        steps: dict[bool, list[tuple[int, float]]] = {False: [], True: []}
        attempted = failed = persisting = 0
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_STEPS or time.perf_counter() < deadline:
            traced = trace and i % 2 == 1
            step_time = 0.0
            step_calls = 0
            for call in wl.step(i):
                tracer.call = i
                with contextlib.ExitStack() as scope:
                    if traced:
                        scope.enter_context(tracer.patched())
                        scope.enter_context(tracer.span(f"cli.{call.kind}", io=True))
                    t0 = time.perf_counter()
                    rc, out = run_cli(call.argv)
                    dt = time.perf_counter() - t0
                attempted += 1
                persisting += call.kind in ("anchor", "workflow")
                step_time += dt
                step_calls += 1
                if not traced:
                    call_times.setdefault(call.kind, []).append(dt)
                error = wl.check(call, rc, out)
                if error is not None:
                    failed += 1
                    errors.append(f"step {i} {call.kind}: {error}")
            steps[traced].append((step_calls, step_time))
            i += 1

        height_end = chain_height(wl.ledger)
        fops_end = fop_totals(wl.volume)
        bytes_per_block = wl.ledger.stat().st_size / height_end if height_end else 0.0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for e in errors[:SHOWN_ERRORS]:
        print(f"error: {e}", file=sys.stderr)
    if len(errors) > SHOWN_ERRORS:
        print(f"error: ... {len(errors) - SHOWN_ERRORS} more", file=sys.stderr)

    setup_s = median(setup_times)
    print(f"workload {name} seed {seed} trace {int(trace)}: {i} steps, {attempted} calls")
    print(f"setup_s {setup_s:.4f} s (median of {len(setup_times)})")
    for kind, times in call_times.items():
        unit, scale = CALL_UNITS[kind]
        print(f"{kind}.p50_{unit} {median(times) * scale:.4f} {unit} (n={len(times)})")
        try:
            print(f"{kind}.p90_{unit} {percentile(times, 90) * scale:.4f} {unit} (n={len(times)})")
        except TooFewSamples as exc:
            print(f"{kind}.p90_{unit} n/a ({exc})")
    print(f"failed_ratio {failed / attempted:.4f} ({failed} of {attempted})")

    metrics: dict[str, tuple[float, str]]
    if trace:
        spans_file = WORK / f"spans-{name}-s{seed}.jsonl"
        tracer.dump(spans_file)
        fop_calls = {
            op: (fops_end.get(op, 0) - fops_start.get(op, 0)) / persisting
            for op in fops_end
        } if persisting else {}
        metrics = layer_metrics(tracer.spans, fop_calls=fop_calls,
                                bytes_per_block=bytes_per_block)
        metrics["trace.overhead_ratio"] = (
            median([t for _, t in steps[True]]) / median([t for _, t in steps[False]]),
            "ratio")
        print(f"spans {len(tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    else:
        all_calls = [t for times in call_times.values() for t in times]
        metrics = {
            "setup_s": (setup_s, "s"),
            "call_p50_ms": (median(all_calls) * 1e3, "ms"),
            "calls_per_s": (median([n / t for n, t in steps[False]]), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for key, (value, unit) in metrics.items():
            if key != "setup_s":
                print(f"{key} {value:.4f} {unit}")

    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "git_commit": git_commit(),
        "chain_height_start": height_start, "chain_height_end": height_end,
        "flush_policy": wl.flush_policy,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().rsplit("\n", 1)[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fleetchain" / "__init__.py").is_file():
        print(f"error: no fleetchain sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
