"""The benchmark's layer spans still see the CLI pipeline.

``perfbench/tracing.py`` wraps layer functions at the names through which
``fleetchain.cli`` calls them (``fleetchain.cli.append_anchor``, ...).  If
the CLI stopped calling a layer through those names, a traced benchmark
run would report 0 for it instead of failing.  This runs ``workflow``,
``anchor`` and ``verify`` in-process under the benchmark's own tracer and
expects every span those commands go through.
"""

from __future__ import annotations

import importlib
from collections import Counter
from pathlib import Path

from fleetchain import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CFG = REPO_ROOT / "configs" / "demo.cfg"


def test_workflow_anchor_and_verify_spans_are_recorded(capsys, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    workdir = tmp_path / "run"
    store = ["--volume", str(workdir / "volume"), "--ledger", str(workdir / "chain.txt")]
    report = tmp_path / "report.csv"
    report.write_text("scenario,route,trip,truck,travel_time_s,emissions\n")

    with tracer.patched():
        argv = ["--config", str(DEMO_CFG), "workflow", "--vehicles", "1", "--workdir", str(workdir)]
        assert cli.main(argv) == 0
        assert cli.main(["anchor", "--input", str(report), *store]) == 0
        tx = capsys.readouterr().out.splitlines()[-1]
        assert cli.main(["verify", "--tx", tx, *store]) == 0

    spans = Counter(s.name for s in tracer.spans)
    for name in ("impute.trip", "platoon.scenarios", "workflow.execute", "ledger.import",
                 "store.open", "ledger.verify_anchor"):
        assert spans[name] >= 1, name
    # one anchor in the workflow's archiving task, one from `anchor`
    for name in ("ledger.append", "ledger.export", "store.save"):
        assert spans[name] == 2, name
