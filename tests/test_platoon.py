"""Convoy rollout against closed-form expectations on constant-speed
fixtures, plus calibration behavior."""

from __future__ import annotations

import math

import pytest

from fleetchain import impute, platoon
from fleetchain.impute import impute_trip
from fleetchain.platoon import (
    CALIBRATION_TOLERANCE,
    CalibrationError,
    CalibrationTargets,
    EmissionModel,
    PlatoonConfig,
    calibrate,
    emission_sum_ratio,
    report_csv,
    run_scenarios,
    simulate_convoy,
    travel_time_ratio,
)
from fleetchain.synth import constant_speed_trip, synthetic_trip

EM = EmissionModel()  # rate(v) = 20 + 1.5 v + 0.05 v^2, floor 20


def flat_trajectory(length_m=999.999, speed_mps=20.0):
    # a millimeter under the nominal kilometer: the haversine polyline length
    # then sits safely inside the 50-step quantization bin regardless of
    # sub-micron geodesic rounding
    return impute_trip(
        constant_speed_trip("flat", length_m=length_m, speed_mps=speed_mps, n_points=5),
        factor=1,
    )


def identity_cfg(**kw):
    base = dict(
        speed_factor_connected=1.0,
        drag_reduction=(1.0, 1.0, 1.0),
        noise_range=(1.0, 1.0),
    )
    base.update(kw)
    return PlatoonConfig(**base)


# --- closed-form rollout ----------------------------------------------------

def test_constant_speed_closed_form():
    # 1000 m at 20 m/s, 1 s steps: 50 steps; rate(20) = 20 + 30 + 20 = 70 mg/s
    traj = flat_trajectory()
    rep = simulate_convoy(
        traj, identity_cfg(), EM, connected=True, cumulative=True
    )
    for _, res in rep.per_truck:
        assert res.travel_time_s == 50.0
        assert math.isclose(res.emissions, 70.0 * 50.0, rel_tol=1e-12)
    assert math.isclose(rep.emissions_sum, 3 * 3500.0, rel_tol=1e-12)


def test_time_averaged_default_equals_rate():
    traj = flat_trajectory()
    rep = simulate_convoy(traj, identity_cfg(), EM, connected=True)
    for _, res in rep.per_truck:
        assert math.isclose(res.emissions, 70.0, rel_tol=1e-12)  # mg/s average


def test_drag_discount_scales_cumulated_emissions():
    traj = flat_trajectory()
    cfg = identity_cfg(drag_reduction=(0.66, 0.63, 0.60))
    rep = simulate_convoy(traj, cfg, EM, connected=True, cumulative=True)
    expected = [3500.0 * d for d in (0.66, 0.63, 0.60)]
    got = [res.emissions for _, res in rep.per_truck]
    for g, e in zip(got, expected):
        assert math.isclose(g, e, rel_tol=1e-12)


def test_flat_rate_emits_rate_times_time():
    # constant e(v) = 100 mg/s on the ~1 km path: 50 s -> 5000 mg scaled by
    # the position's drag factor
    traj = flat_trajectory()
    flat_em = EmissionModel(c0=100.0, c1=0.0, c2=0.0, idle_floor=0.0)
    for factor in (1.0, 0.5):
        rep = simulate_convoy(
            traj,
            identity_cfg(drag_reduction=(factor, factor, factor)),
            flat_em,
            connected=True,
            cumulative=True,
        )
        for _, res in rep.per_truck:
            assert res.travel_time_s == 50.0
            assert res.emissions == 5000.0 * factor


def test_leader_emits_at_least_each_follower():
    traj = impute_trip(synthetic_trip("ord", length_km=1.5, n_points=25, seed=3), 5.0)
    rep = simulate_convoy(traj, PlatoonConfig(), EM, connected=True, seed=1)
    e1, e2, e3 = [res.emissions for _, res in rep.per_truck]
    assert e1 >= e2 >= e3


def test_speed_factor_halves_travel_time():
    traj = flat_trajectory()
    rep = simulate_convoy(
        traj, identity_cfg(speed_factor_connected=2.0), EM, connected=True
    )
    assert all(res.travel_time_s == 25.0 for _, res in rep.per_truck)


def test_identity_config_makes_scenarios_coincide():
    traj = flat_trajectory()
    conn, indep = run_scenarios(traj, identity_cfg(), EM, seed=5)
    assert travel_time_ratio(conn, indep) == 1.0
    assert math.isclose(emission_sum_ratio(conn, indep), 1.0, rel_tol=1e-12)


def test_noise_slows_independent_trucks():
    traj = flat_trajectory()
    cfg = identity_cfg(noise_range=(0.9, 1.0))
    conn, indep = run_scenarios(traj, cfg, EM, seed=7)
    # noise only ever slows down, and the convoy branch ignores it
    assert indep.mean_travel_time_s() >= conn.mean_travel_time_s()
    # travel times quantize, but cumulated emissions expose the streams
    emissions = {res.emissions for _, res in indep.per_truck}
    assert len(emissions) == 3  # per-truck streams differ


def test_rollout_deterministic_in_seed():
    traj = impute_trip(synthetic_trip("det", length_km=1.0, n_points=20, seed=2), 5.0)
    a = run_scenarios(traj, PlatoonConfig(), EM, seed=11)
    b = run_scenarios(traj, PlatoonConfig(), EM, seed=11)
    c = run_scenarios(traj, PlatoonConfig(), EM, seed=12)
    assert a == b
    assert a[1] != c[1]  # independent branch consumes the seed


def test_connected_followers_match_leader_time():
    traj = impute_trip(synthetic_trip("fol", length_km=1.0, n_points=20, seed=8), 5.0)
    rep = simulate_convoy(traj, PlatoonConfig(), EM, connected=True, seed=3)
    times = {res.travel_time_s for _, res in rep.per_truck}
    assert len(times) == 1


def test_connected_rollout_computes_one_rate_per_step(monkeypatch):
    # the three connected trucks share one march, so the rate is computed
    # once per step, not once per truck and step
    traj = impute_trip(synthetic_trip("one", length_km=1.0, n_points=20, seed=8), 5.0)
    calls = []
    rate = EmissionModel.rate_mg_s

    def counting_rate(self, v):
        calls.append(v)
        return rate(self, v)

    monkeypatch.setattr(EmissionModel, "rate_mg_s", counting_rate)
    cfg = PlatoonConfig(step_s=0.5)
    rep = simulate_convoy(traj, cfg, EM, connected=True)
    steps = rep.result(rep.truck_ids()[0]).travel_time_s / cfg.step_s
    assert steps > 50
    assert len(calls) == steps


# --- config validation -----------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="drag_reduction"):
        PlatoonConfig(drag_reduction=(0.6, 0.7, 0.5))  # not non-increasing
    with pytest.raises(ValueError, match="noise_range"):
        PlatoonConfig(noise_range=(0.0, 1.0))
    with pytest.raises(ValueError, match="speed_factor"):
        PlatoonConfig(speed_factor_connected=0.0)


# --- calibration ------------------------------------------------------------

def test_calibrate_hits_step_quantized_targets():
    # no noise: independent takes 50 steps; target 0.5 needs exactly 25,
    # reached on the speed-factor plateau starting at 2.0
    traj = flat_trajectory()
    cfg = identity_cfg(drag_reduction=(0.66, 0.63, 0.60))
    targets = CalibrationTargets(travel_time_ratio=0.5, emission_sum_ratio=0.8)
    out = calibrate(traj, cfg, EM, targets)
    assert 1.99 <= out.speed_factor_connected <= 2.09
    conn, indep = run_scenarios(traj, out, EM)
    assert travel_time_ratio(conn, indep) == 0.5
    assert math.isclose(emission_sum_ratio(conn, indep), 0.8, rel_tol=1e-9)


def test_calibrate_identity_targets_give_identity_factors():
    # "same as baseline" asks for no change at all
    traj = flat_trajectory()
    cfg = identity_cfg(drag_reduction=(0.66, 0.63, 0.60))
    out = calibrate(traj, cfg, EM, CalibrationTargets(1.0, 1.0))
    assert out.speed_factor_connected == 1.0
    assert out.drag_reduction == (1.0, 1.0, 1.0)


def test_calibrate_with_noise_meets_tolerance():
    traj = impute_trip(synthetic_trip("cal", length_km=3.0, n_points=40, seed=6), 10.0)
    targets = CalibrationTargets(travel_time_ratio=0.7833, emission_sum_ratio=0.8251)
    out = calibrate(traj, PlatoonConfig(), EM, seed=9, targets=targets)
    conn, indep = run_scenarios(traj, out, EM, seed=9)
    assert abs(travel_time_ratio(conn, indep) - 0.7833) <= CALIBRATION_TOLERANCE * 0.7833
    assert abs(emission_sum_ratio(conn, indep) - 0.8251) <= CALIBRATION_TOLERANCE * 0.8251


def test_calibrate_computes_the_path_profile_once(monkeypatch):
    traj = impute_trip(synthetic_trip("cal", length_km=3.0, n_points=40, seed=6), 10.0)
    calls = {"haversine": 0, "rollout": 0}
    haversine, rollout = impute.haversine_m, platoon.simulate_convoy

    def counting_haversine(a, b):
        calls["haversine"] += 1
        return haversine(a, b)

    def counting_rollout(*args, **kwargs):
        calls["rollout"] += 1
        return rollout(*args, **kwargs)

    monkeypatch.setattr(impute, "haversine_m", counting_haversine)
    monkeypatch.setattr(platoon, "simulate_convoy", counting_rollout)
    targets = CalibrationTargets(travel_time_ratio=0.7833, emission_sum_ratio=0.8251)
    calibrate(traj, PlatoonConfig(), EM, seed=9, targets=targets)
    run_scenarios(traj, PlatoonConfig(), EM, seed=9)
    assert calls["rollout"] > 50
    # imputation recorded the profile, so the rollouts need no distances
    assert calls["haversine"] == 0


def test_calibrate_rejects_targets_above_one():
    with pytest.raises(CalibrationError, match="must be in"):
        CalibrationTargets(travel_time_ratio=1.2, emission_sum_ratio=0.8)


def test_calibrate_unreachable_time_ratio():
    traj = flat_trajectory()
    with pytest.raises(CalibrationError, match="not bracketed"):
        calibrate(traj, identity_cfg(), EM, CalibrationTargets(0.001, 0.9))


# --- report formatting ------------------------------------------------------

def test_report_csv_shape():
    traj = flat_trajectory()
    conn, indep = run_scenarios(
        traj, identity_cfg(), EM, route_label="R.T", cumulative=True
    )
    text = report_csv([conn, indep])
    lines = text.strip().split("\n")
    assert lines[0] == "scenario,route,trip,truck,travel_time_s,emissions"
    assert len(lines) == 1 + 2 * 4  # 3 trucks + SUM per scenario
    assert lines[1] == "connected,R.T,flat,SAL.Tr1,50,3500.00"
    assert lines[4] == "connected,R.T,flat,SUM,,10500.00"
    assert lines[5].startswith("not_connected,R.T,flat,Tr1,")
