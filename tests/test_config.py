"""key = value configuration parsing and validation."""

from __future__ import annotations

from pathlib import Path

import pytest

from fleetchain.config import (
    ConfigError,
    Settings,
    load_settings,
    load_settings_file,
    parse_config,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# --- raw parsing -------------------------------------------------------------

def test_parse_config_basics():
    text = """
    # a comment
    route_label = R.VT

    bricks=5
    replica =  2
    """
    assert parse_config(text) == {"route_label": "R.VT", "bricks": "5", "replica": "2"}


def test_parse_config_last_assignment_wins():
    assert parse_config("k = 1\nk = 2\n") == {"k": "2"}


def test_parse_config_value_may_contain_equals():
    assert parse_config("note = a=b\n") == {"note": "a=b"}


def test_parse_config_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("a = 1\n# fine\nnonsense\n")


# --- typed loading -----------------------------------------------------------

def test_empty_text_gives_defaults():
    assert load_settings("") == Settings()


def test_platoon_and_emission_keys():
    settings = load_settings(
        "speed_factor_connected = 1.25\n"
        "step_s = 0.5\n"
        "drag_reduction = 1.0, 0.9, 0.85\n"
        "noise_range = 1.0, 1.12\n"
        "emission_c0 = 25\n"
        "emission_c1 = 1.25\n"
        "emission_c2 = 0.04\n"
        "emission_idle_floor = 9.0\n"
    )
    assert settings.platoon.speed_factor_connected == 1.25
    assert settings.platoon.step_s == 0.5
    assert settings.platoon.drag_reduction == (1.0, 0.9, 0.85)
    assert settings.platoon.noise_range == (1.0, 1.12)
    assert settings.emission.c0 == 25.0
    assert settings.emission.c1 == 1.25
    assert settings.emission.c2 == 0.04
    assert settings.emission.idle_floor == 9.0


def test_simple_keys():
    settings = load_settings(
        "resolution_m = 2.5\n"
        "route_label = R.VT\n"
        "route_radius_m = 1500\n"
        "time_ratio_target = 0.8\n"
        "emission_ratio_target = 0.9\n"
        "fixture_length_km = 44.3\n"
        "fixture_points = 120\n"
        "fixture_speed_kmh = 80\n"
        "bricks = 5\n"
        "replica = 3\n"
        "validators = 7\n"
    )
    assert settings.resolution_m == 2.5
    assert settings.route_label == "R.VT"
    assert settings.route_radius_m == 1500.0
    assert settings.fixture_points == 120
    assert (settings.bricks, settings.replica, settings.validators) == (5, 3, 7)


@pytest.mark.parametrize("raw,value", [
    ("true", True), ("1", True), ("yes", True), ("ON", True),
    ("false", False), ("0", False), ("no", False), ("Off", False),
])
def test_bool_spellings(raw, value):
    assert load_settings(f"cumulative = {raw}\n").cumulative is value


def test_unknown_key_fails_loudly():
    with pytest.raises(ConfigError, match="unknown configuration key 'warp_speed'"):
        load_settings("warp_speed = 9\n")
    # the convoy model has no headway, so the key is not accepted
    with pytest.raises(ConfigError, match="unknown configuration key 'headway_s'"):
        load_settings("headway_s = 1.0\n")


def test_bad_values_name_their_key():
    with pytest.raises(ConfigError, match="step_s"):
        load_settings("step_s = fast\n")
    with pytest.raises(ConfigError, match="expected a boolean"):
        load_settings("cumulative = maybe\n")
    with pytest.raises(ConfigError, match="expected three"):
        load_settings("drag_reduction = 0.9, 0.8\n")
    with pytest.raises(ConfigError, match="drag_reduction"):
        load_settings("drag_reduction = 0.9, 0.8, nope\n")


def test_dataclass_refusals_become_config_errors():
    with pytest.raises(ConfigError, match="step_s must be > 0"):
        load_settings("step_s = -1\n")
    with pytest.raises(ConfigError, match="not increase toward the tail"):
        load_settings("drag_reduction = 0.8, 0.9, 1.0\n")
    with pytest.raises(ConfigError, match="noise_range"):
        load_settings("noise_range = 1.1, 0.9\n")
    with pytest.raises(ConfigError, match="idle_floor"):
        load_settings("emission_idle_floor = -2\n")


# --- files -------------------------------------------------------------------

def test_load_settings_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("route_label = R.X\nfixture_points = 12\n")
    settings = load_settings_file(cfg)
    assert settings.route_label == "R.X"
    assert settings.fixture_points == 12
    with pytest.raises(ConfigError, match="not found"):
        load_settings_file(tmp_path / "absent.cfg")


def test_shipped_demo_config_loads():
    settings = load_settings_file(REPO_ROOT / "configs" / "demo.cfg")
    assert settings.route_label == "R.DEMO"
    assert settings.fixture_length_km == 2.0
