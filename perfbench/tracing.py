"""Spans around fleetchain's layers, recorded from outside the program.

``Tracer.patched()`` replaces each public layer function named in
``PATCHES`` with a wrapper, at the place where its caller looks it up
(``fleetchain.cli.import_chain``, ``fleetchain.platoon.simulate_convoy``,
``fleetchain.pbft.run_consensus``, ...), and restores the originals on exit.
Each wrapper records one span: name, start, end, parent span and the
benchmark call it belongs to, plus counts taken where the work happens.
Spans stay in memory; ``dump`` writes them out once the run ends.

``layer_metrics`` turns the spans into the per-layer metrics named in
``BENCHMARK.json``.  A layer the workload never enters reports 0.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from stats import median

PROC_IO = Path("/proc/self/io")
WORKFLOW_TASKS = ("wp1", "dc", "df", "ag", "da")
PROFILED_FOPS = ("WRITE", "FSYNC", "LOOKUP")


def read_io() -> dict[str, int]:
    """Byte counters of this process: ``rchar`` and ``wchar``."""
    fields = dict(line.split(": ") for line in PROC_IO.read_text().splitlines())
    return {"rchar": int(fields["rchar"]), "wchar": int(fields["wchar"])}


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- counts taken from a layer's arguments and result ----------------------

def _points_parsed(args, result) -> dict[str, float]:
    trips, _dropped = result
    return {"points": sum(len(t.points) for t in trips)}


def _points_out(args, result) -> dict[str, float]:
    return {"points": len(result.points)}


def _task_times(args, result) -> dict[str, float]:
    """Per-kind task durations of a workflow run (lanes summed)."""
    out = {f"task.{t}": 0.0 for t in WORKFLOW_TASKS}
    for entry in result.entries:
        tid = entry.task_id
        kind = tid if tid in WORKFLOW_TASKS else tid.rstrip("0123456789")
        if kind in WORKFLOW_TASKS:
            out[f"task.{kind}"] += entry.end - entry.start
    return out


def _pbft_counts(args, result) -> dict[str, float]:
    return {"msgs": result.network.sent, "decided": float(result.decided)}


def _user_bytes(args, result) -> dict[str, float]:
    return {"user_bytes": result.size_bytes}


# module, attribute (``Class.method`` for methods), span name, counter,
# whether to record /proc/self/io deltas around the span
PATCHES: tuple[tuple[str, str, str, Callable | None, bool], ...] = (
    ("fleetchain.fcd", "parse_fcd", "fcd.parse", _points_parsed, False),
    ("fleetchain.fcd", "extract_route_trips", "fcd.extract", None, False),
    ("fleetchain.cli", "synthetic_trip", "synth.trip", None, False),
    ("fleetchain.cli", "impute_trip", "impute.trip", _points_out, False),
    ("fleetchain.impute", "fit_hermite", "hermite.fit", None, False),
    ("fleetchain.cli", "calibrate", "platoon.calibrate", None, False),
    ("fleetchain.cli", "run_scenarios", "platoon.scenarios", None, False),
    ("fleetchain.platoon", "simulate_convoy", "platoon.rollout", None, False),
    ("fleetchain.cli", "execute", "workflow.execute", _task_times, False),
    ("fleetchain.cli", "import_chain", "ledger.import", None, False),
    ("fleetchain.cli", "export_chain", "ledger.export", None, False),
    ("fleetchain.cli", "append_anchor", "ledger.append", None, False),
    ("fleetchain.cli", "verify_anchor", "ledger.verify_anchor", None, False),
    ("fleetchain.ledger", "verify_chain", "ledger.verify_chain", None, False),
    ("fleetchain.pbft", "run_consensus", "pbft.round", _pbft_counts, False),
    ("fleetchain.cli", "open_volume", "store.open", None, False),
    ("fleetchain.cli", "save_volume", "store.save", None, True),
    ("fleetchain.store", "Volume.write", "store.write", _user_bytes, True),
    ("fleetchain.store", "Volume.fsync", "store.fsync", None, True),
    ("fleetchain.store", "Volume.read", "store.read", None, False),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[Span] = []

    def _open(self, name: str, io: bool) -> tuple[Span, dict[str, int] | None]:
        io0 = read_io() if io else None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.call, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span, io0

    def _close(self, span: Span, io0: dict[str, int] | None) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if io0 is not None:
            io1 = read_io()
            span.counts.update({k: io1[k] - io0[k] for k in io0})

    @contextmanager
    def span(self, name: str, io: bool = False) -> Iterator[Span]:
        span, io0 = self._open(name, io)
        try:
            yield span
        finally:
            self._close(span, io0)

    def _wrap(self, fn: Callable, name: str, counter: Callable | None, io: bool) -> Callable:
        def traced(*args, **kwargs):
            span, io0 = self._open(name, io)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, io0)
            if counter is not None:
                span.counts.update(counter(args, result))
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Install every wrapper in ``PATCHES``; restore originals on exit."""
        saved = []
        try:
            for module_name, attr, name, counter, io in PATCHES:
                owner = importlib.import_module(module_name)
                *outer, leaf = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, counter, io))
            yield
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# --- per-layer metrics -------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(
    spans: list[Span],
    *,
    fop_calls: dict[str, float],
    bytes_per_block: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as ``(value, unit)``.

    Durations are medians over the spans of one name.  ``fop_calls`` are
    per-persisting-call deltas read from ``Volume.profile()``;
    ``bytes_per_block`` is the ledger file size over its height at the end.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def med_s(name: str) -> float:
        return median([s.duration for s in named(name)])

    def med_count(name: str, key: str) -> float:
        # a call that raised has no counts
        return median([s.counts[key] for s in named(name) if key in s.counts])

    def total(group: list[Span], key: str) -> float:
        return sum(s.counts.get(key, 0) for s in group)

    parent_of = {s.id: s.parent for s in spans}
    names = {s.id: s.name for s in spans}

    def under(span: Span, ancestor: str) -> bool:
        p = span.parent
        while p is not None:
            if names[p] == ancestor:
                return True
            p = parent_of[p]
        return False

    calibrations = named("platoon.calibrate")
    rollouts_in_cal = sum(under(s, "platoon.calibrate") for s in named("platoon.rollout"))
    imputes = named("impute.trip")
    impute_points = total(imputes, "points")
    rounds = named("pbft.round")
    store_io = [s for n in ("store.write", "store.fsync", "store.save") for s in named(n)]
    user_bytes = total(named("store.write"), "user_bytes")
    own = self_times(spans)

    m: dict[str, tuple[float, str]] = {
        "platoon.calibrate_s": (med_s("platoon.calibrate"), "s"),
        "platoon.rollouts_per_calibrate": (
            rollouts_in_cal / len(calibrations) if calibrations else 0.0, "count"),
        "platoon.rollout_s": (med_s("platoon.rollout"), "s"),
        "platoon.scenarios_s": (med_s("platoon.scenarios"), "s"),
        "impute.trip_s": (med_s("impute.trip"), "s"),
        "impute.points_out": (med_count("impute.trip", "points"), "count"),
        "impute.us_per_point": (
            sum(s.duration for s in imputes) / impute_points * 1e6 if impute_points else 0.0,
            "us"),
        "hermite.fit_s": (med_s("hermite.fit"), "s"),
        "fcd.parse_s": (med_s("fcd.parse"), "s"),
        "fcd.points_parsed": (med_count("fcd.parse", "points"), "count"),
        "fcd.extract_s": (med_s("fcd.extract"), "s"),
        "synth.trip_s": (med_s("synth.trip"), "s"),
    }
    for task in WORKFLOW_TASKS:
        m[f"workflow.task_s.{task}"] = (med_count("workflow.execute", f"task.{task}"), "s")
    m.update({
        "ledger.import_s": (med_s("ledger.import"), "s"),
        "ledger.export_s": (med_s("ledger.export"), "s"),
        "ledger.append_s": (med_s("ledger.append"), "s"),
        "ledger.verify_chain_s": (med_s("ledger.verify_chain"), "s"),
        "ledger.bytes_per_block": (bytes_per_block, "B"),
        "store.open_s": (med_s("store.open"), "s"),
        "store.save_s": (med_s("store.save"), "s"),
        "store.write_s": (med_s("store.write"), "s"),
        "store.fsync_s": (med_s("store.fsync"), "s"),
        "store.read_s": (med_s("store.read"), "s"),
    })
    for op in PROFILED_FOPS:
        m[f"store.fop_calls.{op}"] = (fop_calls.get(op, 0.0), "count")
    m.update({
        "store.bytes_per_user_byte": (
            total(store_io, "wchar") / user_bytes if user_bytes else 0.0,
            "B/B"),
        "pbft.round_ms": (med_s("pbft.round") * 1e3, "ms"),
        "pbft.msgs_per_round": (med_count("pbft.round", "msgs"), "count"),
        "pbft.decided_ratio": (
            total(rounds, "decided") / len(rounds) if rounds else 0.0,
            "ratio"),
    })
    for command in ("simulate", "workflow", "anchor", "verify"):
        m[f"cli.self_ms.{command}"] = (
            median([own[s.id] for s in named(f"cli.{command}")]) * 1e3, "ms")
    m["cli.wchar_per_anchor"] = (med_count("cli.anchor", "wchar"), "B")
    m["cli.rchar_per_verify"] = (med_count("cli.verify", "rchar"), "B")
    return m
