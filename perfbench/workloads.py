"""The benchmark's three closed-loop workloads, one client each.

Every workload drives ``fleetchain.cli.main`` in-process, so the measured
path is the one users run.  Inputs come from the workload seed; the program
sees only the generated files and arguments.  A workload provides:

* ``setup(workdir)``: build the state the timed calls start from.  The run
  repeats it in fresh directories and times its calls on the last.
* ``check_setup()``: error messages about that state (empty when sound).
* ``step(i)``: the CLI calls of the ``i``-th closed-loop step.  Work done
  between the calls it yields is not timed.
* ``check(call, rc, out)``: an error message when a call's output is
  wrong, else None.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from fleetchain import fcd, synth
from fleetchain.config import Settings
from fleetchain.ledger import Block, Chain, anchor_tx, append_anchor, export_chain
from fleetchain.pbft import ValidatorCluster
from fleetchain.store import create_volume, save_volume

TX_ID = re.compile(r"[0-9a-f]{64}")

# runs ``fleetchain <argv>`` in-process; returns (exit code, stdout)
Cli = Callable[[list[str]], tuple[int, str]]


@dataclass(frozen=True)
class Call:
    kind: str  # the CLI subcommand: simulate | workflow | anchor | verify
    argv: list[str]


def verify_argv(tx: str, volume: Path, ledger: Path) -> list[str]:
    return ["verify", "--tx", tx, "--volume", str(volume), "--ledger", str(ledger)]


def chain_height(ledger: Path | None) -> int:
    """Blocks in a chain export: every line that is not an indented tx."""
    if ledger is None or not ledger.exists():
        return 0
    return sum(1 for ln in ledger.read_text().splitlines() if ln and not ln.startswith("  "))


class SimulateCalibrate:
    """``fleetchain simulate --calibrate`` over one seeded FCD CSV of one
    44.3 km, 300-sample synthetic trip at the default 1 m resolution.
    ``simulate`` calibrates on the first trip only, so one trip keeps every
    layer in the call while leaving the most calls in a run.  Set-up writes
    the CSV and runs one uncalibrated ``simulate`` over it."""

    name = "simulate-calibrate"
    flush_policy = "none: simulate writes no store or ledger"
    n_trips = 1

    def __init__(self, seed: int, cli: Cli) -> None:
        self.seed = seed
        self.cli = cli
        self.volume: Path | None = None
        self.ledger: Path | None = None

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        trips = [
            synth.synthetic_trip(f"trip{k}", seed=self.seed * 1000 + k)
            for k in range(self.n_trips)
        ]
        self.input = workdir / "trips.csv"
        self.input.write_text(fcd.serialize_fcd(trips))
        rc, out = self.cli(["simulate", "--input", str(self.input)])
        self.setup_error = self._report_error(rc, out)
        self.first_report: str | None = None

    def check_setup(self) -> list[str]:
        return [f"warm-up: {self.setup_error}"] if self.setup_error else []

    def step(self, i: int) -> Iterator[Call]:
        yield Call("simulate", ["simulate", "--calibrate", "--input", str(self.input)])

    def _report_error(self, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"simulate exited {rc}"
        lines = out.count("\n")
        if lines != 1 + self.n_trips * 2 * 4:  # header; 3 trucks + SUM per scenario and trip
            return f"simulate report has {lines} lines"
        return None

    def check(self, call: Call, rc: int, out: str) -> str | None:
        error = self._report_error(rc, out)
        if error is None:
            if self.first_report is None:
                self.first_report = out
            elif out != self.first_report:
                error = "simulate report differs from the first call's"
        return error


class Workflow:
    """``fleetchain workflow --vehicles 3`` in one persistent workdir.  Each
    call gets its own ``--seed``: an identical report would give an
    identical tx id, which the ledger rejects as a duplicate."""

    name = "workflow"
    flush_policy = "one fsync per anchored report, as fleetchain workflow does"
    vehicles = 3

    def __init__(self, seed: int, cli: Cli) -> None:
        self.seed = seed
        self.cli = cli

    def _argv(self, i: int) -> list[str]:
        return ["--seed", str(self.seed * 100_000 + i), "workflow",
                "--vehicles", str(self.vehicles), "--workdir", str(self.workdir)]

    def setup(self, workdir: Path) -> None:
        # one warm-up run creates the volume and chain the timed calls reuse
        self.workdir = workdir / "run"
        self.volume = self.workdir / "volume"
        self.ledger = self.workdir / "chain.txt"
        rc, out = self.cli(self._argv(0))
        self.setup_error = self.check(Call("workflow", []), rc, out)

    def check_setup(self) -> list[str]:
        return [f"warm-up: {self.setup_error}"] if self.setup_error else []

    def step(self, i: int) -> Iterator[Call]:
        yield Call("workflow", self._argv(i + 1))

    def check(self, call: Call, rc: int, out: str) -> str | None:
        if rc != 0:
            return f"workflow exited {rc}"
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        word, _, tx = last.partition(" ")
        if word != "anchored" or not TX_ID.fullmatch(tx):
            return f"workflow ended with {last!r}"
        rc, out = self.cli(verify_argv(tx, self.volume, self.ledger))
        if rc != 0 or not out.startswith("ok:"):
            return f"workflow tx {tx} did not verify: {out.strip()!r}"
        return None


def report_like_payload(seed: int, i: int) -> bytes:
    """About 900 B shaped like a ``report_csv`` output, unique per (seed, i)."""
    rng = random.Random(f"{seed}:{i}")
    lines = ["scenario,route,trip,truck,travel_time_s,emissions"]
    for trip in range(3):
        for scenario in ("connected", "not-connected"):
            for truck in ("T1", "T2", "T3", "SUM"):
                tt = "" if truck == "SUM" else f"{rng.randint(1800, 2400)}"
                lines.append(
                    f"{scenario},R.B,{i}-{trip},{truck},{tt},{rng.uniform(50, 900):.2f}"
                )
    return ("\n".join(lines) + "\n").encode()


class AnchorVerify:
    """Alternating ``fleetchain anchor`` of a fresh ~900 B file and
    ``fleetchain verify --tx`` of a uniformly chosen anchored tx, on a
    volume (3 bricks, replica 2, 4 validators) and chain pre-populated with
    ``prepopulated`` anchors through the library calls the CLI makes.

    Per-call cost grows with the chain, so every ``restore_every`` steps the
    brick indexes and the chain go back to their set-up state and the blobs
    written since are removed, untimed.  A faster program thus runs on the
    same chain lengths as a slower one.  The volume's operation counters
    (``stats.tsv``) are kept across restores."""

    name = "anchor-verify"
    flush_policy = "one fsync per anchor on every replica, as fleetchain anchor does"
    prepopulated = 2000
    restore_every = 25

    def __init__(self, seed: int, cli: Cli) -> None:
        self.seed = seed
        self.cli = cli
        self.rng = random.Random(seed)

    def setup(self, workdir: Path) -> None:
        settings = Settings()
        self.workdir = workdir
        self.volume = workdir / "volume"
        self.ledger = workdir / "chain.txt"
        (workdir / "inputs").mkdir(parents=True)
        volume = create_volume(
            self.volume, n_bricks=settings.bricks, replica_count=settings.replica
        )
        chain = Chain()
        self.txs: list[str] = []
        for i in range(self.prepopulated):
            logical = self._logical(i)
            # no fsync: it leaves the same files and was most of the set-up time
            ref = volume.write(logical, report_like_payload(self.seed, i))
            tx = anchor_tx(ref, {}, submitter="cli", timestamp=0.0)
            # a fresh cluster per anchor, as each `fleetchain anchor` call builds one
            cluster = ValidatorCluster(n=settings.validators, f=1, seed=0)
            if not isinstance(append_anchor(chain, tx, cluster=cluster), Block):
                raise RuntimeError(f"set-up anchor {i} was rejected")
            self.txs.append(tx.tx_id)
        self.ledger.write_text(export_chain(chain))
        save_volume(volume, self.volume)
        bricks = self.volume / "bricks"
        self.pristine = {p: p.read_bytes() for p in [self.ledger, *bricks.glob("*/*.tsv")]}
        self.pristine_blobs = set(bricks.glob("*/blobs/*"))

    def _restore(self) -> None:
        for path in (self.volume / "bricks").glob("*/blobs/*"):
            if path not in self.pristine_blobs:
                path.unlink()
        for path, data in self.pristine.items():
            path.write_bytes(data)
        del self.txs[self.prepopulated:]

    def check_setup(self) -> list[str]:
        errors = []
        tx = self.rng.choice(self.txs)
        rc, out = self.cli(verify_argv(tx, self.volume, self.ledger))
        if rc != 0 or not out.startswith("ok:"):
            errors.append(f"verify of pre-populated tx {tx}: exit {rc}, {out.strip()!r}")
        rc, out = self.cli(["profile", "--volume", str(self.volume)])
        if rc != 0 or "Brick: brick-00" not in out:
            errors.append(f"profile of the pre-populated volume: exit {rc}")
        return errors

    @staticmethod
    def _logical(i: int) -> str:
        return f"r{i:06d}.csv"

    def step(self, i: int) -> Iterator[Call]:
        if i and i % self.restore_every == 0:
            self._restore()
        n = self.prepopulated + i
        path = self.workdir / "inputs" / self._logical(n)
        path.write_bytes(report_like_payload(self.seed, n))
        yield Call("anchor", ["anchor", "--input", str(path), "--volume", str(self.volume),
                              "--ledger", str(self.ledger)])
        path.unlink()
        yield Call("verify", verify_argv(self.rng.choice(self.txs), self.volume, self.ledger))

    def check(self, call: Call, rc: int, out: str) -> str | None:
        if call.kind == "anchor":
            tx = out.strip()
            if rc != 0 or not TX_ID.fullmatch(tx):
                return f"anchor exited {rc} printing {tx!r}"
            self.txs.append(tx)
            return None
        if rc != 0 or not out.startswith("ok:"):
            return f"verify exited {rc} printing {out.strip()!r}"
        return None


WORKLOADS = {w.name: w for w in (SimulateCalibrate, Workflow, AnchorVerify)}
