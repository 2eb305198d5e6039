"""Byte-for-byte outputs of seeded CLI runs and consensus rounds.

The hashes pin the imputed CSV, the simulate report and calibration line,
the ledger a workflow leaves behind, the convoy rollouts and calibrations
over a grid of trips and configs, and the transcript of seeded PBFT rounds,
so a speedup or rewrite that moves any output byte fails here.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from fleetchain import cli
from fleetchain.fcd import serialize_fcd
from fleetchain.impute import impute_trip
from fleetchain.ledger import ZERO_HASH, anchor_tx, make_block
from fleetchain.pbft import FAULT_CORRUPT, FAULT_SILENT, SimulatedNetwork, run_consensus
from fleetchain.platoon import (
    CalibrationError,
    CalibrationTargets,
    EmissionModel,
    PlatoonConfig,
    calibrate,
    run_scenarios,
)
from fleetchain.store import ContentRef
from fleetchain.synth import synthetic_trip

DEMO_CFG = Path(__file__).resolve().parent.parent / "configs" / "demo.cfg"


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def run(capsys, *argv):
    code = cli.main(["--config", str(DEMO_CFG), *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("extra, points, digest", [
    # the default resolution comes from the config: 1 m
    ((), 3001, "a27738cfbf0b01f7f86389bcb806c2b05d557babfda8466fd3c63c65ec409f89"),
    (("--resolution-m", "0.5"), 6000,
     "ea434f12c7944fe3b88c6f275d6c108e81accee477d56a5080cb8b4a50d0d40f"),
    (("--factor", "7"), 274, "622c09242d581e4b3150b2f94405fbbc2bfe1dd6a27531567208dfe9ef41f597"),
], ids=["1m", "0.5m", "factor7"])
def test_impute_output_is_pinned(capsys, tmp_path, extra, points, digest):
    csv = tmp_path / "trips.csv"
    csv.write_text(serialize_fcd([synthetic_trip("SAL.Tr1", length_km=3.0, n_points=40, seed=11)]))
    code, out, err = run(capsys, "impute", "--input", str(csv), *extra)
    assert code == 0
    assert err == f"imputed 1 trips to {points} points\n"
    assert sha256(out) == digest


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


def test_convoy_rollouts_are_pinned():
    # 3 trips x 4 configs x 2 emission models x 2 seeds x 2 report forms,
    # plus one calibration per trip (or the error that refuses it)
    trajectories = [
        impute_trip(synthetic_trip(f"g{seed}", length_km=km, n_points=n, seed=seed), factor=f)
        for seed, km, n, f in ((1, 0.4, 8, 3), (5, 1.2, 15, 4), (9, 2.0, 25, 2))
    ]
    configs = [
        PlatoonConfig(),
        PlatoonConfig(step_s=0.5, noise_range=(0.8, 1.0)),
        PlatoonConfig(speed_factor_connected=0.8, drag_reduction=(0.9, 0.8, 0.7), step_s=2.5,
                      noise_range=(0.95, 1.05)),
        PlatoonConfig(speed_factor_connected=1.5, drag_reduction=(1.0, 1.0, 0.5),
                      noise_range=(1.0, 1.0)),
    ]
    models = [EmissionModel(), EmissionModel(c0=5.0, c1=3.0, c2=0.1, idle_floor=12.0)]
    targets = CalibrationTargets(travel_time_ratio=0.7833, emission_sum_ratio=0.8251)
    lines = []
    for traj in trajectories:
        for cfg in configs:
            for em in models:
                for seed in (0, 17):
                    for cumulative in (False, True):
                        lines.append(repr(run_scenarios(
                            traj, cfg, em, seed=seed, route_label="R", cumulative=cumulative,
                        )))
        try:
            calibrated = calibrate(traj, PlatoonConfig(), models[1], targets, seed=3)
            lines.append(repr((calibrated.speed_factor_connected, calibrated.drag_reduction)))
        except CalibrationError as exc:
            lines.append(repr(exc))
    assert len(lines) == 3 * (4 * 2 * 2 * 2 + 1)
    digest = sha256("\n".join(lines))
    assert digest == "dbb5466ed3184f4a4d95075bbe43966a1d53c9deced5fb20f5fe7142c1124bc3"


def test_consensus_transcript_is_pinned():
    # 24 seeds x 5 fault cases x 3 drop rates x 2 cluster shapes = 720 rounds
    lines = []
    for n, f in ((4, 1), (7, 2)):
        fault_cases = [
            {}, {1: FAULT_SILENT}, {0: FAULT_SILENT}, {n - 1: FAULT_CORRUPT}, {0: FAULT_CORRUPT},
        ]
        for seed in range(24):
            tag = f"r{n}-{seed}"
            ref = ContentRef(f"reports/{tag}.csv", sha256(tag), len(tag), ("brick-00",))
            tx = anchor_tx(ref, {"kind": "report"}, "gold", float(seed))
            block = make_block(seed, ZERO_HASH, [tx])
            for faults in fault_cases:
                for drop in (0.0, 0.1, 0.3):
                    net = SimulatedNetwork(seed=seed * 31 + n, default_drop=drop)
                    res = run_consensus(block, n=n, f=f, faults=faults, network=net)
                    chains = sorted(
                        (nid, [b.block_hash for b in chain])
                        for nid, chain in res.honest_chains().items()
                    )
                    lines.append(repr((
                        res.decided, res.accepted_digest, sorted(res.appended.items()),
                        res.replies, net.sent, net.dropped, repr(net.now), chains,
                    )))
    assert len(lines) == 720
    digest = sha256("\n".join(lines))
    assert digest == "b307c2bd49cda7cfe60762471be8e10d2e3d71ac897394ac4847328608d66d12"
