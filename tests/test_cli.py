"""Command-line behavior: exit codes, formats, and determinism.

Everything runs in-process through ``cli.main`` so coverage and tracebacks
work; exit codes are the contract under test: 0 ok, 1 domain error,
2 mismatch, 3 missing, 64 usage.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fleetchain import cli
from fleetchain.fcd import Trip, parse_fcd, serialize_fcd, write_gpx
from fleetchain.impute import impute_trip
from fleetchain.ledger import export_chain, import_chain
from fleetchain.store import sha256_hex
from fleetchain.synth import route_query_for, synthetic_trip
from fleetchain.workflow import build_graph

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_CFG = REPO_ROOT / "configs" / "demo.cfg"

HEX64 = re.compile(r"^[0-9a-f]{64}$")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_trip_csv(tmp_path, name="trips.csv", n_trips=1, length_km=1.0, n_points=10):
    trips = [
        synthetic_trip(f"SAL.Tr{i + 1}", length_km=length_km, n_points=n_points, seed=3 + i)
        for i in range(n_trips)
    ]
    path = tmp_path / name
    path.write_text(serialize_fcd(trips))
    return path, trips


def densified_csv(tmp_path, name="dense.csv"):
    trip = synthetic_trip("SAL.Tr1", length_km=1.0, n_points=10, seed=3)
    dense = impute_trip(trip, 1.0)
    path = tmp_path / name
    path.write_text(serialize_fcd([Trip(id=dense.trip_id, points=dense.points)]))
    return path


# --- exit codes --------------------------------------------------------------

def test_usage_errors_exit_64(capsys):
    for argv in ([], ["bogus"], ["ingest"], ["ingest", "--input", "x", "--format", "weird"]):
        code, _, _ = run(capsys, *argv)
        assert code == 64, argv


def test_missing_input_is_domain_error(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", "--input", str(tmp_path / "absent.csv"))
    assert code == 1
    assert err.startswith("error:")


def test_broken_config_is_domain_error(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp_speed = 9\n")
    csv, _ = small_trip_csv(tmp_path)
    code, _, err = run(capsys, "--config", str(cfg), "impute", "--input", str(csv))
    assert code == 1
    assert "unknown configuration key" in err


# --- ingest / extract / impute ----------------------------------------------

def test_ingest_round_trips_canonical_csv(capsys, tmp_path):
    csv, trips = small_trip_csv(tmp_path, n_trips=2)
    code, out, err = run(capsys, "ingest", "--input", str(csv))
    assert code == 0
    assert out == serialize_fcd(trips)  # canonical in, canonical out
    assert "ingested 2 trips (0 dropped)" in err


def test_ingest_gpx_by_extension(capsys, tmp_path):
    _, trips = small_trip_csv(tmp_path)
    gpx = tmp_path / "track.gpx"
    gpx.write_text(write_gpx(trips))
    code, out, _ = run(capsys, "ingest", "--input", str(gpx))
    assert code == 0
    parsed, _ = parse_fcd(out)
    assert [t.id for t in parsed] == ["SAL.Tr1"]
    assert len(parsed[0].points) == len(trips[0].points)


def test_extract_keeps_matching_trip(capsys, tmp_path):
    on_route = synthetic_trip("match", length_km=1.0, n_points=10, seed=1)
    elsewhere = synthetic_trip("far", start=(10.0, 10.0), length_km=1.0, n_points=10, seed=2)
    csv = tmp_path / "mixed.csv"
    csv.write_text(serialize_fcd([on_route, elsewhere]))
    query = route_query_for(length_km=1.0)
    code, out, err = run(
        capsys,
        "extract",
        "--input", str(csv),
        "--origin", f"{query.origin[0]},{query.origin[1]}",
        "--destination", f"{query.destination[0]},{query.destination[1]}",
        "--radius-m", "3000",
    )
    assert code == 0
    kept, _ = parse_fcd(out)
    assert [t.id for t in kept] == ["match"]
    assert "matched 1 of 2 trips" in err


def test_impute_factor_with_outputs(capsys, tmp_path):
    csv, trips = small_trip_csv(tmp_path, n_points=8)
    out_csv = tmp_path / "dense.csv"
    out_gpx = tmp_path / "dense.gpx"
    code, _, err = run(
        capsys,
        "impute", "--input", str(csv), "--factor", "4",
        "--output", str(out_csv), "--gpx", str(out_gpx),
    )
    assert code == 0
    dense, _ = parse_fcd(out_csv.read_text())
    assert len(dense[0].points) == (8 - 1) * 4 + 1
    assert "imputed 1 trips to 29 points" in err
    assert out_gpx.exists() and "<gpx" in out_gpx.read_text()


def test_impute_resolution_densifies(capsys, tmp_path):
    csv, trips = small_trip_csv(tmp_path)
    code, out, _ = run(capsys, "impute", "--input", str(csv), "--resolution-m", "5")
    assert code == 0
    dense, _ = parse_fcd(out)
    assert len(dense[0].points) > len(trips[0].points)


# --- simulate ----------------------------------------------------------------

def test_simulate_deterministic_output(capsys, tmp_path):
    csv = densified_csv(tmp_path)
    code_a, out_a, _ = run(capsys, "--seed", "5", "simulate", "--input", str(csv), "--route", "R.T")
    code_b, out_b, _ = run(capsys, "--seed", "5", "simulate", "--input", str(csv), "--route", "R.T")
    code_c, out_c, _ = run(capsys, "--seed", "6", "simulate", "--input", str(csv), "--route", "R.T")
    assert code_a == code_b == code_c == 0
    assert out_a == out_b  # byte-identical under one seed
    assert out_a != out_c
    assert out_a.splitlines()[1].startswith("connected,R.T,")
    assert any(",SUM," in line for line in out_a.splitlines())


def test_simulate_calibrate_reports_factors(capsys, tmp_path):
    csv = densified_csv(tmp_path)
    code, out, err = run(
        capsys, "--config", str(DEMO_CFG), "simulate", "--input", str(csv), "--calibrate"
    )
    assert code == 0
    assert "calibrated speed_factor_connected=" in err
    assert out  # report still emitted


def test_simulate_empty_input(capsys, tmp_path):
    empty = tmp_path / "none.csv"
    empty.write_text("timestamp,lat,lon,speed_kmh,trip_id\n")  # header, no rows
    code, _, err = run(capsys, "simulate", "--input", str(empty))
    assert code == 1
    assert "no trips" in err


# --- anchor / verify ---------------------------------------------------------

@pytest.fixture
def anchored(capsys, tmp_path):
    """One anchored report: returns (tx_id, volume_dir, ledger_file, data)."""
    report = tmp_path / "report.csv"
    data = b"scenario,total\nconnected,3500\n"
    report.write_bytes(data)
    vol = tmp_path / "vol"
    ledger = tmp_path / "chain.txt"
    cfg = tmp_path / "store.cfg"
    cfg.write_text("bricks = 3\nreplica = 1\n")  # single replica: tampers stay visible
    code, out, _ = run(
        capsys,
        "--config", str(cfg),
        "anchor", "--input", str(report), "--volume", str(vol), "--ledger", str(ledger),
        "--meta", "kind=report", "--submitter", "tester",
    )
    assert code == 0
    tx_id = out.strip()
    assert HEX64.match(tx_id)
    return tx_id, vol, ledger, data


def test_anchor_then_verify_ok(capsys, anchored):
    tx_id, vol, ledger, _ = anchored
    code, out, _ = run(capsys, "verify", "--tx", tx_id, "--volume", str(vol), "--ledger", str(ledger))
    assert code == 0
    assert out == "ok: content and linkage verified\n"


def test_anchor_appends_blocks(capsys, anchored, tmp_path):
    tx_id, vol, ledger, _ = anchored
    second = tmp_path / "other.csv"
    second.write_bytes(b"different bytes")
    code, out, _ = run(
        capsys, "anchor", "--input", str(second), "--volume", str(vol), "--ledger", str(ledger)
    )
    assert code == 0
    lines = ledger.read_text().splitlines()
    assert len(lines) == 4  #2 block headers + 2 tx lines
    assert lines[0].startswith("0,") and lines[2].startswith("1,")
    assert out.strip() != tx_id


def test_anchor_exports_only_its_new_block(capsys, anchored, tmp_path, monkeypatch):
    tx_id, vol, ledger, _ = anchored
    exported = []

    def counting_export(chain):
        exported.append(len(chain.blocks))
        return export_chain(chain)

    monkeypatch.setattr(cli, "export_chain", counting_export)
    second = tmp_path / "other.csv"
    second.write_bytes(b"different bytes")
    code, _, _ = run(
        capsys, "anchor", "--input", str(second), "--volume", str(vol), "--ledger", str(ledger)
    )
    assert code == 0
    assert exported == [1]
    assert ledger.read_text() == export_chain(import_chain(ledger.read_text()))


def test_anchor_duplicate_rejected(capsys, anchored, tmp_path):
    _, vol, ledger, data = anchored
    again = tmp_path / "report.csv"  # same bytes, same logical path
    code, _, err = run(
        capsys,
        "anchor", "--input", str(again), "--volume", str(vol), "--ledger", str(ledger),
        "--meta", "kind=report", "--submitter", "tester",
    )
    assert code == 1
    assert "duplicate" in err


def test_anchor_meta_needs_equals(capsys, tmp_path):
    report = tmp_path / "r.csv"
    report.write_text("x")
    code, _, err = run(
        capsys,
        "anchor", "--input", str(report), "--volume", str(tmp_path / "v"),
        "--ledger", str(tmp_path / "l.txt"), "--meta", "kindreport",
    )
    assert code == 1
    assert "KEY=VALUE" in err


def test_verify_tampered_blob_exits_2(capsys, anchored):
    tx_id, vol, ledger, data = anchored
    (blob,) = vol.glob(f"bricks/*/blobs/{sha256_hex(data)}")
    blob.write_bytes(b"forged " + data)
    code, out, _ = run(capsys, "verify", "--tx", tx_id, "--volume", str(vol), "--ledger", str(ledger))
    assert code == 2
    assert out.startswith("mismatch:")


def test_verify_tampered_ledger_digest_exits_2(capsys, anchored):
    tx_id, vol, ledger, data = anchored
    digest = sha256_hex(data)
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    ledger.write_text(ledger.read_text().replace(digest, flipped))
    code, out, _ = run(capsys, "verify", "--tx", tx_id, "--volume", str(vol), "--ledger", str(ledger))
    assert code == 2
    assert "stored digest" in out


@pytest.mark.parametrize("forged", ["", "..", "../index.tsv", "absolute"])
def test_verify_ledger_digest_naming_no_blob_exits_2(capsys, tmp_path, anchored, forged):
    # a digest from chain.txt must not name a file: the stored blob is read
    tx_id, vol, ledger, data = anchored
    if forged == "absolute":
        outside = tmp_path / "outside.log"
        outside.write_bytes(b"not a blob")
        forged = str(outside)
    ledger.write_text(ledger.read_text().replace(sha256_hex(data), forged))
    code, out, _ = run(capsys, "verify", "--tx", tx_id, "--volume", str(vol), "--ledger", str(ledger))
    assert code == 2
    assert out.startswith(f"mismatch: stored digest {sha256_hex(data)} != anchored")


@pytest.mark.parametrize(
    "renamed, code",
    [("never-written.csv", 3), ("other.csv", 2)],
)
def test_verify_ledger_path_rename_fails(capsys, tmp_path, renamed, code):
    # default store (3 bricks, 2 replicas): any two paths share a brick
    vol, ledger = tmp_path / "vol", tmp_path / "chain.txt"
    txs = []
    for name in ("report.csv", "other.csv"):
        (tmp_path / name).write_text(f"{name}\n")
        rc, out, _ = run(
            capsys, "anchor", "--input", str(tmp_path / name),
            "--volume", str(vol), "--ledger", str(ledger),
        )
        assert rc == 0
        txs.append(out.strip())
    line = next(ln for ln in ledger.read_text().splitlines() if ln.startswith(f"  {txs[0]},"))
    ledger.write_text(ledger.read_text().replace(line, line.replace(",report.csv,", f",{renamed},")))
    rc, out, _ = run(capsys, "verify", "--tx", txs[0], "--volume", str(vol), "--ledger", str(ledger))
    assert rc == code
    assert out.startswith("missing:" if code == 3 else "mismatch:")


def test_verify_deleted_blob_exits_3(capsys, anchored):
    tx_id, vol, ledger, data = anchored
    (blob,) = vol.glob(f"bricks/*/blobs/{sha256_hex(data)}")
    blob.unlink()
    code, out, _ = run(capsys, "verify", "--tx", tx_id, "--volume", str(vol), "--ledger", str(ledger))
    assert code == 3
    assert out.startswith("missing:")


def test_verify_unknown_tx_exits_3(capsys, anchored):
    _, vol, ledger, _ = anchored
    code, out, _ = run(capsys, "verify", "--tx", "0" * 64, "--volume", str(vol), "--ledger", str(ledger))
    assert code == 3
    assert "not present" in out


# --- profile / bench ---------------------------------------------------------

def test_profile_reads_persisted_stats(capsys, anchored):
    _, vol, _, _ = anchored
    code, out, _ = run(capsys, "profile", "--volume", str(vol))
    assert code == 0
    assert "Brick: brick-" in out
    assert "WRITE" in out
    code, out, _ = run(capsys, "profile", "--volume", str(vol), "--csv")
    assert code == 0
    assert out.splitlines()[0] == "brick,pct_latency,avg_us,min_us,max_us,calls,op"


def test_bench_cli_fake_clock_exact(capsys, tmp_path):
    # default settings: replica 2, so a chunk costs 2 x 2 clock steps
    argv = [
        "bench", "--files", "4..8", "--records", "4..8", "--reps", "2",
        "--fake-clock-step-ms", "1",
    ]
    code_a, out_a, _ = run(capsys, *argv, "--volume", str(tmp_path / "v1"))
    code_b, out_b, _ = run(capsys, *argv, "--volume", str(tmp_path / "v2"))
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a == (
        "file_kb,record_kb,throughput_kb_s\n"
        "4,4,444.44\n"   # 4 KiB / (2*2*(1+1)+1 = 9 ms)
        "8,4,615.38\n"   # 8 KiB / (2*2*(2+1)+1 = 13 ms)
        "8,8,888.89\n"
    )


def test_bench_comma_size_lists(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "bench", "--volume", str(tmp_path / "v"), "--files", "8,4", "--records", "4",
        "--reps", "1", "--fake-clock-step-ms", "1",
    )
    assert code == 0  # comma lists are sorted into ascending order
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["4", "8"]


# --- workflow ----------------------------------------------------------------

def test_workflow_end_to_end_with_audit(capsys, tmp_path):
    workdir = tmp_path / "run"
    code, out, _ = run(
        capsys,
        "--config", str(DEMO_CFG),
        "workflow", "--vehicles", "1", "--workdir", str(workdir),
    )
    assert code == 0
    lines = out.splitlines()
    n_nodes = len(build_graph(1, (True,)).nodes)
    assert len(lines) == n_nodes + 1
    assert all(" ok " in line for line in lines[:-1])
    tx_id = lines[-1].removeprefix("anchored ")
    assert HEX64.match(tx_id)

    code, out, _ = run(
        capsys,
        "verify", "--tx", tx_id,
        "--volume", str(workdir / "volume"), "--ledger", str(workdir / "chain.txt"),
    )
    assert code == 0
    assert out.startswith("ok:")


def test_workflow_rerun_rejects_duplicate_anchor(capsys, tmp_path):
    workdir = tmp_path / "run"
    argv = ["--config", str(DEMO_CFG), "workflow", "--vehicles", "0", "--workdir", str(workdir)]
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv)  # same bytes, same tx id
    assert code == 1
    assert "workflow run failed: da: ValueError: anchor rejected: duplicate tx_id" in err
    assert any(" failed " in line for line in out.splitlines())


def test_verify_earlier_workflow_anchor_after_a_rerun(capsys, tmp_path):
    # both runs store reports/efficiency.csv; the first anchor still audits
    workdir = tmp_path / "run"
    tx_ids = []
    for seed in ("1", "2"):
        code, out, _ = run(
            capsys, "--seed", seed, "--config", str(DEMO_CFG),
            "workflow", "--vehicles", "1", "--workdir", str(workdir),
        )
        assert code == 0
        tx_ids.append(out.splitlines()[-1].removeprefix("anchored "))
    assert tx_ids[0] != tx_ids[1]
    for tx_id in tx_ids:
        code, out, _ = run(
            capsys,
            "verify", "--tx", tx_id,
            "--volume", str(workdir / "volume"), "--ledger", str(workdir / "chain.txt"),
        )
        assert (code, out) == (0, "ok: content and linkage verified\n")


def test_workflow_df_mask_validation(capsys, tmp_path):
    code, _, err = run(
        capsys, "workflow", "--vehicles", "2", "--df-mask", "TFX",
        "--workdir", str(tmp_path / "w"),
    )
    assert code == 1
    assert "df-mask" in err


def test_importing_the_cli_leaves_numpy_unloaded():
    # only HermiteSpline.sample uses numpy; every subprocess `anchor` or
    # `verify` would otherwise pay for importing it
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, fleetchain.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
