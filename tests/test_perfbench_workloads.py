"""The benchmark's set-up still runs against the program.

``perfbench/workloads.py`` builds its start states through the CLI and,
for anchor-verify, through library calls (``create_volume``,
``anchor_tx``, ``append_anchor``, ``Chain``, ``export_chain``,
``save_volume``).  A change to one of those would otherwise show only when
the benchmark runs.  This runs every workload's ``setup`` and
``check_setup``, with the anchor-verify chain cut to a few blocks, and one
anchor-verify step.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from fleetchain import cli

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    module = importlib.import_module("workloads")
    monkeypatch.setattr(module.AnchorVerify, "prepopulated", 5)
    return module


@pytest.mark.parametrize("name", ["simulate-calibrate", "workflow", "anchor-verify"])
def test_setup_builds_a_sound_start_state(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](0, run_cli)
    workload.setup(tmp_path / "setup")
    assert workload.check_setup() == []


def test_anchor_verify_step_checks_out(workloads, tmp_path):
    workload = workloads.AnchorVerify(0, run_cli)
    workload.setup(tmp_path / "setup")
    kinds = []
    for call in workload.step(0):
        rc, out = run_cli(call.argv)
        assert workload.check(call, rc, out) is None
        kinds.append(call.kind)
    assert kinds == ["anchor", "verify"]
    assert len(workload.txs) == workload.prepopulated + 1
