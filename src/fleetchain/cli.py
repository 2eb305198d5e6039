"""Command-line front end.

Subcommands cover the full pipeline: ``ingest`` and ``extract`` for raw
GPS data, ``impute`` for densification, ``simulate`` for the convoy
scenarios, ``anchor``/``verify`` for ledger-backed storage, ``profile``
and ``bench`` for the store, and ``workflow`` for the end-to-end staged
run on bundled synthetic data.

Exit codes: 0 success, 1 domain error, 64 usage error; ``verify`` adds
2 (mismatch) and 3 (missing).  All randomized behavior keys off ``--seed``
so identical invocations produce identical output.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from . import fcd as fcd_mod
from .clock import MONOTONIC, FakeClock
from .config import ConfigError, Settings, load_settings_file
from .impute import impute_trip
from .ledger import (
    Chain,
    Rejection,
    VERIFY_MISMATCH,
    VERIFY_OK,
    anchor_tx,
    append_anchor,
    export_chain,
    import_chain,
    verify_anchor,
)
from .pbft import ValidatorCluster
from .platoon import (
    CalibrationTargets,
    calibrate,
    report_csv,
    run_scenarios,
)
from .store import (
    StoreError,
    Volume,
    create_volume,
    open_volume,
    profile_csv,
    profile_text,
    save_volume,
)
from .synth import route_query_for, synthetic_trip
from .workflow import TaskKind, build_graph, execute

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2
EXIT_MISSING = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fleetchain", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomized behavior")
    parser.add_argument("--config", type=Path, default=None, help="key = value settings file")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("ingest", help="parse FCD CSV or GPX into normalized FCD CSV")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--format", choices=("fcd", "gpx"), default=None,
                   help="input format; default follows the file extension")
    p.add_argument("--output", type=Path, default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("extract", help="keep trips matching an origin/destination query")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--origin", required=True, metavar="LAT,LON")
    p.add_argument("--destination", required=True, metavar="LAT,LON")
    p.add_argument("--radius-m", type=float, default=3000.0)
    p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("impute", help="densify trips to a fixed spatial resolution")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--resolution-m", type=float, default=None,
                   help="target spacing in meters (default from config, else 1.0)")
    p.add_argument("--factor", type=int, default=None,
                   help="split every sample interval into this many steps instead")
    p.add_argument("--output", type=Path, default=None)
    p.add_argument("--gpx", type=Path, default=None, help="also write a GPX copy here")

    p = sub.add_parser("simulate", help="run connected and not-connected convoy scenarios")
    p.add_argument("--input", type=Path, required=True, help="densified FCD CSV")
    p.add_argument("--route", default=None, help="route label for the report")
    p.add_argument("--calibrate", action="store_true",
                   help="fit speed/drag factors to the configured target ratios first")
    p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("anchor", help="store a file and link it into the ledger")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--volume", type=Path, required=True)
    p.add_argument("--ledger", type=Path, required=True, help="chain export file")
    p.add_argument("--path", default=None, help="logical path (default: input file name)")
    p.add_argument("--meta", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--submitter", default="cli")
    p.add_argument("--timestamp", type=float, default=0.0)

    p = sub.add_parser("verify", help="audit an anchored file against chain and store")
    p.add_argument("--tx", required=True)
    p.add_argument("--volume", type=Path, required=True)
    p.add_argument("--ledger", type=Path, required=True)

    p = sub.add_parser("profile", help="per-brick operation latency table")
    p.add_argument("--volume", type=Path, required=True)
    p.add_argument("--csv", action="store_true", help="CSV instead of the text table")

    p = sub.add_parser("bench", help="write-throughput sweep over the store")
    p.add_argument("--volume", type=Path, required=True)
    p.add_argument("--files", default="4..2048", metavar="LO..HI",
                   help="file sizes in KiB, powers of two (or comma list)")
    p.add_argument("--records", default="64..2048", metavar="LO..HI")
    p.add_argument("--reps", type=int, default=bench_mod.DEFAULT_REPETITIONS)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--fake-clock-step-ms", type=float, default=None,
                   help="use a deterministic clock advancing this much per reading")
    p.add_argument("--output", type=Path, default=None)

    p = sub.add_parser("workflow", help="staged end-to-end run on bundled synthetic data")
    p.add_argument("--vehicles", type=int, required=True)
    p.add_argument("--df-mask", default=None, metavar="TTF",
                   help="per-vehicle filtration flags, e.g. TTF (default: all T)")
    p.add_argument("--workdir", type=Path, default=Path("fleetchain_run"))

    return parser


def _parse_latlon(raw: str) -> tuple[float, float]:
    lat_s, _, lon_s = raw.partition(",")
    return float(lat_s), float(lon_s)


def _load_trips(path: Path, fmt: str | None):
    if fmt is None:
        fmt = "gpx" if path.suffix.lower() == ".gpx" else "fcd"
    text = path.read_text()
    if fmt == "gpx":
        return fcd_mod.parse_gpx(text)
    return fcd_mod.parse_fcd(text)


def _emit(text: str, output: Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        output.write_text(text)


def _settings(args) -> Settings:
    if args.config is not None:
        return load_settings_file(args.config)
    return Settings()


def _cmd_ingest(args) -> int:
    trips, dropped = _load_trips(args.input, args.format)
    _emit(fcd_mod.serialize_fcd(trips), args.output)
    print(f"ingested {len(trips)} trips ({dropped} dropped)", file=sys.stderr)
    return EXIT_OK


def _cmd_extract(args) -> int:
    trips, _ = _load_trips(args.input, None)
    query = fcd_mod.RouteQuery(
        origin=_parse_latlon(args.origin),
        destination=_parse_latlon(args.destination),
        radius_m=args.radius_m,
    )
    kept = fcd_mod.extract_route_trips(trips, query)
    _emit(fcd_mod.serialize_fcd(kept), args.output)
    print(f"matched {len(kept)} of {len(trips)} trips", file=sys.stderr)
    return EXIT_OK


def _cmd_impute(args) -> int:
    settings = _settings(args)
    resolution = args.resolution_m if args.resolution_m is not None else settings.resolution_m
    trips, _ = _load_trips(args.input, None)
    imputed = [
        impute_trip(trip, resolution, factor=args.factor) for trip in trips
    ]
    dense_trips = [
        fcd_mod.Trip(id=tr.trip_id, points=tr.points) for tr in imputed
    ]
    _emit(fcd_mod.serialize_fcd(dense_trips), args.output)
    if args.gpx is not None:
        args.gpx.write_text(fcd_mod.write_gpx(dense_trips))
    total = sum(len(tr.points) for tr in imputed)
    print(f"imputed {len(imputed)} trips to {total} points", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    settings = _settings(args)
    trips, _ = _load_trips(args.input, None)
    if not trips:
        raise ValueError("no trips in input")
    route = args.route if args.route is not None else settings.route_label
    cfg = settings.platoon
    reports = []
    for i, trip in enumerate(trips):
        trajectory = impute_trip(trip, settings.resolution_m)
        if args.calibrate and i == 0:
            targets = CalibrationTargets(
                travel_time_ratio=settings.time_ratio_target,
                emission_sum_ratio=settings.emission_ratio_target,
            )
            cfg = calibrate(trajectory, cfg, settings.emission, targets, seed=args.seed)
            print(
                f"calibrated speed_factor_connected={cfg.speed_factor_connected:.4f} "
                f"drag_reduction={tuple(round(d, 4) for d in cfg.drag_reduction)}",
                file=sys.stderr,
            )
        conn, indep = run_scenarios(
            trajectory,
            cfg,
            settings.emission,
            seed=args.seed,
            route_label=route,
            cumulative=settings.cumulative,
        )
        reports.extend([conn, indep])
    _emit(report_csv(reports), args.output)
    return EXIT_OK


def _open_or_create_volume(path: Path, settings: Settings, clock=MONOTONIC):
    if (path / "volume.json").exists():
        return open_volume(path, clock=clock)
    return create_volume(
        path, n_bricks=settings.bricks, replica_count=settings.replica, clock=clock
    )


def _load_chain(path: Path) -> Chain:
    if path.exists():
        return import_chain(path.read_text())
    return Chain()


def _anchor(
    volume: Volume,
    volume_dir: Path,
    chain: Chain,
    ledger: Path,
    cluster: ValidatorCluster,
    *,
    logical: str,
    data: bytes,
    meta: dict[str, str],
    submitter: str,
    timestamp: float,
) -> str:
    """Store ``data`` under ``logical``, link its anchor into ``chain``
    through ``cluster``, append the new block to the ``ledger`` export and
    save the volume; returns the tx id.

    The one anchor sequence of ``anchor`` and ``workflow``.  It calls the
    ledger and store functions through this module's names, which is where
    ``perfbench/tracing.py`` wraps them.
    """
    ref = volume.write(logical, data)
    volume.fsync(logical)
    tx = anchor_tx(ref, meta, submitter=submitter, timestamp=timestamp)
    block = append_anchor(chain, tx, cluster=cluster)
    if isinstance(block, Rejection):
        raise ValueError(f"anchor rejected: {block.reason}")
    # the export of a chain is the concatenation of its blocks' exports
    with ledger.open("a") as fh:
        fh.write(export_chain(Chain([block])))
    save_volume(volume, volume_dir)
    return tx.tx_id


def _cmd_anchor(args) -> int:
    settings = _settings(args)
    meta = {}
    for item in args.meta:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--meta needs KEY=VALUE, got {item!r}")
        meta[key] = value
    tx_id = _anchor(
        _open_or_create_volume(args.volume, settings),
        args.volume,
        _load_chain(args.ledger),
        args.ledger,
        ValidatorCluster(n=settings.validators, f=1, seed=args.seed),
        logical=args.path if args.path is not None else args.input.name,
        data=args.input.read_bytes(),
        meta=meta,
        submitter=args.submitter,
        timestamp=args.timestamp,
    )
    print(tx_id)
    return EXIT_OK


def _cmd_verify(args) -> int:
    volume = open_volume(args.volume)
    chain = _load_chain(args.ledger)
    result = verify_anchor(chain, args.tx, volume)
    print(f"{result.status}: {result.detail}")
    if result.status == VERIFY_OK:
        return EXIT_OK
    if result.status == VERIFY_MISMATCH:
        return EXIT_MISMATCH
    return EXIT_MISSING


def _cmd_profile(args) -> int:
    volume = open_volume(args.volume)
    rows = volume.profile()
    sys.stdout.write(profile_csv(rows) if args.csv else profile_text(rows))
    return EXIT_OK


def _parse_sizes(raw: str) -> tuple[int, ...]:
    if ".." in raw:
        lo_s, _, hi_s = raw.partition("..")
        return bench_mod.powers_of_two(int(lo_s), int(hi_s))
    return tuple(sorted(int(p) for p in raw.split(",")))


def _cmd_bench(args) -> int:
    settings = _settings(args)
    clock = MONOTONIC
    if args.fake_clock_step_ms is not None:
        clock = FakeClock(step=args.fake_clock_step_ms / 1000.0)
    volume = _open_or_create_volume(args.volume, settings, clock=clock)
    grid = bench_mod.BenchGrid(
        file_sizes_kb=_parse_sizes(args.files),
        record_sizes_kb=_parse_sizes(args.records),
        repetitions=args.reps,
    )
    result = bench_mod.run_bench(
        volume, grid, seed=args.seed, clock=clock, threads=args.threads
    )
    _emit(bench_mod.bench_csv(result), args.output)
    save_volume(volume, args.volume)
    if result.aborted:
        print("sweep aborted: store unavailable; partial results emitted", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _parse_df_mask(raw: str | None, n: int) -> tuple[bool, ...]:
    if raw is None:
        return tuple(True for _ in range(n))
    if len(raw) != n or any(ch not in "TFtf" for ch in raw):
        raise ValueError(f"--df-mask needs {n} T/F flags, got {raw!r}")
    return tuple(ch in "Tt" for ch in raw)


def _cmd_workflow(args) -> int:
    settings = _settings(args)
    workdir: Path = args.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    df_mask = _parse_df_mask(args.df_mask, args.vehicles)
    graph = build_graph(args.vehicles, df_mask)
    ctx: dict[str, object] = {}

    def h_wp1(node, inputs):
        ctx["volume"] = _open_or_create_volume(workdir / "volume", settings)
        ctx["chain"] = _load_chain(workdir / "chain.txt")
        ctx["cluster"] = ValidatorCluster(n=settings.validators, f=1, seed=args.seed)
        ctx["query"] = route_query_for(
            length_km=settings.fixture_length_km, radius_m=settings.route_radius_m
        )
        return "initialized"

    def h_dc(node, inputs):
        return synthetic_trip(
            f"veh{node.vehicle_index}",
            length_km=settings.fixture_length_km,
            n_points=settings.fixture_points,
            base_speed_kmh=settings.fixture_speed_kmh,
            seed=args.seed * 1000 + node.vehicle_index,
        )

    def h_df(node, inputs):
        (trip,) = inputs.values()
        kept = fcd_mod.extract_route_trips([trip], ctx["query"])
        return kept[0] if kept else None

    def h_ag(node, inputs):
        reports = []
        for trip in inputs.values():
            if trip is None or isinstance(trip, str):
                continue
            # no name holds the trajectory, so it and its path profile are
            # freed before the next trip is imputed
            conn, indep = run_scenarios(
                impute_trip(trip, settings.resolution_m),
                settings.platoon,
                settings.emission,
                seed=args.seed,
                route_label=settings.route_label,
                cumulative=settings.cumulative,
            )
            reports.extend([conn, indep])
        return report_csv(reports)

    def h_da(node, inputs):
        (csv_text,) = inputs.values()
        return _anchor(
            ctx["volume"],
            workdir / "volume",
            ctx["chain"],
            workdir / "chain.txt",
            ctx["cluster"],
            logical="reports/efficiency.csv",
            data=csv_text.encode("utf-8"),
            meta={"route": settings.route_label, "kind": "efficiency-report"},
            submitter="workflow",
            timestamp=0.0,
        )

    def pseudo(node, inputs):
        return None

    handlers = {
        TaskKind.IN: pseudo,
        TaskKind.WP1: h_wp1,
        TaskKind.SP: pseudo,
        TaskKind.DC: h_dc,
        TaskKind.DF: h_df,
        TaskKind.AG: h_ag,
        TaskKind.DA: h_da,
        TaskKind.OUT: pseudo,
    }
    trace = execute(graph, handlers)
    for entry in trace.entries:
        print(f"{entry.task_id:<6} {entry.status:<8} {entry.end - entry.start:.3f}s")
    if trace.status != "ok":
        failed = "; ".join(f"{e.task_id}: {e.error}" for e in trace.entries if e.error)
        raise ValueError(f"workflow run failed: {failed}")
    tx_id = trace.outputs["da"]
    print(f"anchored {tx_id}")
    return EXIT_OK


_COMMANDS = {
    "ingest": _cmd_ingest,
    "extract": _cmd_extract,
    "impute": _cmd_impute,
    "simulate": _cmd_simulate,
    "anchor": _cmd_anchor,
    "verify": _cmd_verify,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
    "workflow": _cmd_workflow,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, StoreError, fcd_mod.FcdParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
