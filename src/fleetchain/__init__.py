"""Blockchain-anchored fleet data pipeline.

GPS floating-car data flows in, gets densified with shape-preserving
splines, drives convoy efficiency simulations, and lands — with its
reports — in a replicated content store whose references are screened and
hash-linked under BFT agreement.
"""

from __future__ import annotations

from .clock import FakeClock, MONOTONIC
from .config import ConfigError, Settings, load_settings, load_settings_file
from .fcd import (
    FcdParseError,
    GpsPoint,
    RouteQuery,
    Trip,
    extract_route_trips,
    parse_fcd,
    parse_gpx,
    serialize_fcd,
    write_gpx,
)
from .hermite import HermiteSpline, fit_hermite, shape_preserving_slopes
from .impute import ImputedTrajectory, fit_trip_channels, impute_trip
from .ledger import (
    AnchorTx,
    Block,
    Chain,
    ChainIntegrityError,
    ContractRule,
    Rejection,
    VerifyResult,
    anchor_tx,
    append_anchor,
    evaluate_rules,
    export_chain,
    import_chain,
    verify_anchor,
    verify_chain,
)
from .pbft import ConsensusResult, ValidatorCluster, run_consensus
from .platoon import (
    CalibrationError,
    CalibrationTargets,
    EfficiencyReport,
    EmissionModel,
    PlatoonConfig,
    TruckSpec,
    calibrate,
    conventional_trucks,
    platoon_trucks,
    report_csv,
    run_scenarios,
    simulate_convoy,
)
from .ring import HashRing, fnv1a64
from .store import (
    ContentRef,
    IntegrityError,
    NotFoundError,
    StoreError,
    UnavailableError,
    Volume,
    create_volume,
    open_volume,
    save_volume,
)
from .synth import constant_speed_trip, route_query_for, synthetic_trip
from .workflow import (
    RunTrace,
    TaskKind,
    TaskNode,
    WorkflowError,
    WorkflowGraph,
    build_graph,
    execute,
    serialize_graph,
    serialize_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorTx",
    "Block",
    "CalibrationError",
    "CalibrationTargets",
    "Chain",
    "ChainIntegrityError",
    "ConfigError",
    "ConsensusResult",
    "ContentRef",
    "ContractRule",
    "EfficiencyReport",
    "EmissionModel",
    "FakeClock",
    "FcdParseError",
    "GpsPoint",
    "HashRing",
    "HermiteSpline",
    "ImputedTrajectory",
    "IntegrityError",
    "MONOTONIC",
    "NotFoundError",
    "PlatoonConfig",
    "Rejection",
    "RouteQuery",
    "RunTrace",
    "Settings",
    "StoreError",
    "TaskKind",
    "TaskNode",
    "Trip",
    "TruckSpec",
    "UnavailableError",
    "ValidatorCluster",
    "VerifyResult",
    "Volume",
    "WorkflowError",
    "WorkflowGraph",
    "anchor_tx",
    "append_anchor",
    "build_graph",
    "calibrate",
    "constant_speed_trip",
    "conventional_trucks",
    "create_volume",
    "evaluate_rules",
    "execute",
    "export_chain",
    "extract_route_trips",
    "fit_hermite",
    "fit_trip_channels",
    "fnv1a64",
    "import_chain",
    "impute_trip",
    "load_settings",
    "load_settings_file",
    "open_volume",
    "parse_fcd",
    "parse_gpx",
    "platoon_trucks",
    "report_csv",
    "route_query_for",
    "run_consensus",
    "run_scenarios",
    "save_volume",
    "serialize_fcd",
    "serialize_graph",
    "serialize_trace",
    "shape_preserving_slopes",
    "simulate_convoy",
    "synthetic_trip",
    "verify_anchor",
    "verify_chain",
    "write_gpx",
]
