"""Byte-for-byte outputs of seeded CLI runs.

The hashes pin the simulate report and calibration line, and the ledger a
workflow leaves behind, so a speedup that moves any output byte fails here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from fleetchain import cli
from fleetchain.fcd import serialize_fcd
from fleetchain.synth import synthetic_trip

DEMO_CFG = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def run(capsys, *argv):
    code = cli.main(["--config", str(DEMO_CFG), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_calibrate_output_is_pinned(capsys, tmp_path):
    csv = tmp_path / "trips.csv"
    csv.write_text(serialize_fcd([synthetic_trip("SAL.Tr1", length_km=3.0, n_points=40, seed=11)]))
    code, out, err = run(capsys, "--seed", "4", "simulate", "--input", str(csv), "--calibrate")
    assert code == 0
    assert err == "calibrated speed_factor_connected=1.2114 drag_reduction=(0.6616, 0.6317, 0.6019)\n"
    assert sha256(out) == "cdce02ccec3ec756d7f3884c7be72dabef0b1136c87ba7ba2fa4e0f613219d44"
    assert sha256(err) == "7f77117659bf6a2c667dd5e3c936eadc3d1a5d8164e21703401c324d8b3ba378"


def test_workflow_ledger_is_pinned(capsys, tmp_path):
    workdir = tmp_path / "wf"
    anchored = []
    for seed in ("1", "2"):
        code, out, _ = run(capsys, "--seed", seed, "workflow", "--vehicles", "2",
                           "--workdir", str(workdir))
        assert code == 0
        anchored.append(out.splitlines()[-1])
    assert anchored == [
        "anchored 719824dfeac4d2a2a8c04818a92745ef1b76e19d0b85a2f90d363f6bf7511a6e",
        "anchored 7e753cde0d28db74ba9e5b8fca6c380950450a06c8910429c83d697c68e279b4",
    ]
    chain = (workdir / "chain.txt").read_bytes()
    assert sha256(chain) == "2cd1d69feddc7fbece3333a18dae751d7e20ea60202968d53f3a423e1764ed9d"
