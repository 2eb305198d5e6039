"""Plain ``key = value`` run configuration.

Lines starting with ``#`` (and blank lines) are ignored.  Unknown keys are
errors: a typo in a scenario file should fail loudly, not silently fall
back to a default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .platoon import EmissionModel, PlatoonConfig
from .synth import DEFAULT_LENGTH_KM, DEFAULT_POINTS, DEFAULT_SPEED_KMH


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Settings:
    """Everything a pipeline run reads from its configuration file."""

    platoon: PlatoonConfig = field(default_factory=PlatoonConfig)
    emission: EmissionModel = field(default_factory=EmissionModel)
    resolution_m: float = 1.0
    route_label: str = "R.DEMO"
    route_radius_m: float = 3000.0
    cumulative: bool = False
    time_ratio_target: float = 0.7833
    emission_ratio_target: float = 0.8251
    fixture_length_km: float = DEFAULT_LENGTH_KM
    fixture_points: int = DEFAULT_POINTS
    fixture_speed_kmh: float = DEFAULT_SPEED_KMH
    bricks: int = 3
    replica: int = 2
    validators: int = 4


def parse_config(text: str) -> dict[str, str]:
    """Raw key/value pairs; duplicate keys keep the last assignment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_triple(key: str, raw: str) -> tuple[float, float, float]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected three comma-separated numbers, got {raw!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    return a, b, c


def load_settings(text: str) -> Settings:
    """Parse and validate a configuration file into :class:`Settings`.

    Raises:
        ConfigError: unknown key, unparseable value, or a value the
            underlying dataclasses refuse.
    """
    raw = parse_config(text)
    settings = Settings()
    platoon = settings.platoon
    emission = settings.emission
    simple: dict[str, object] = {}

    def number(key: str, value: str) -> float:
        try:
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    simple_float_keys = {
        "resolution_m",
        "route_radius_m",
        "time_ratio_target",
        "emission_ratio_target",
        "fixture_length_km",
        "fixture_speed_kmh",
    }
    simple_int_keys = {"fixture_points", "bricks", "replica", "validators"}

    try:
        for key, value in raw.items():
            if key == "speed_factor_connected":
                platoon = replace(platoon, speed_factor_connected=number(key, value))
            elif key == "step_s":
                platoon = replace(platoon, step_s=number(key, value))
            elif key == "drag_reduction":
                platoon = replace(platoon, drag_reduction=_parse_triple(key, value))
            elif key == "noise_range":
                lo_s, _, hi_s = value.partition(",")
                platoon = replace(
                    platoon, noise_range=(number(key, lo_s.strip()), number(key, hi_s.strip()))
                )
            elif key == "emission_c0":
                emission = replace(emission, c0=number(key, value))
            elif key == "emission_c1":
                emission = replace(emission, c1=number(key, value))
            elif key == "emission_c2":
                emission = replace(emission, c2=number(key, value))
            elif key == "emission_idle_floor":
                emission = replace(emission, idle_floor=number(key, value))
            elif key == "cumulative":
                simple["cumulative"] = _parse_bool(key, value)
            elif key == "route_label":
                simple["route_label"] = value
            elif key in simple_float_keys:
                simple[key] = number(key, value)
            elif key in simple_int_keys:
                simple[key] = int(number(key, value))
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        return replace(settings, platoon=platoon, emission=emission, **simple)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_settings_file(path: str | Path) -> Settings:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return load_settings(p.read_text())
