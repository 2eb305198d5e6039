"""Densification: spacing band, knot reproduction, factor mode."""

from __future__ import annotations

import math

import pytest

from fleetchain.fcd import Trip
from fleetchain.geo import haversine_m
from fleetchain.impute import SPACING_TOLERANCE, fit_trip_channels, impute_trip
from fleetchain.synth import constant_speed_trip, synthetic_trip


def spacings(points):
    return [haversine_m(a.latlon, b.latlon) for a, b in zip(points, points[1:])]


def test_constant_speed_trip_hits_expected_count():
    # 100 m at 10 m/s from just 2 samples: ~100 one-meter steps
    trip = constant_speed_trip("c", length_m=100.0, speed_mps=10.0)
    out = impute_trip(trip, 1.0)
    assert 90 <= len(out.points) <= 112
    gaps = spacings(out.points)
    # every gap except the final remainder sits in the band
    for g in gaps[:-1]:
        assert 1.0 - SPACING_TOLERANCE - 1e-6 <= g <= 1.0 + SPACING_TOLERANCE + 1e-6
    assert gaps[-1] <= 1.0 + SPACING_TOLERANCE + 1e-6


def test_timestamps_strictly_increasing():
    trip = synthetic_trip("t", length_km=0.8, n_points=20, seed=4)
    out = impute_trip(trip, 2.0)
    ts = [p.timestamp for p in out.points]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_endpoints_are_original_samples():
    trip = synthetic_trip("e", length_km=0.5, n_points=10, seed=1)
    out = impute_trip(trip, 1.0)
    assert out.points[0] == trip.points[0]
    assert out.points[-1] == trip.points[-1]


def test_channels_reproduce_knots():
    trip = synthetic_trip("k", length_km=1.0, n_points=25, seed=9)
    channels = fit_trip_channels(trip)
    for p in trip.points:
        assert abs(channels["lat"].eval(p.timestamp) - p.lat) <= 1e-9
        assert abs(channels["lon"].eval(p.timestamp) - p.lon) <= 1e-9
        assert abs(channels["speed_kmh"].eval(p.timestamp) - p.speed_kmh) <= 1e-9


def test_spacing_band_on_jittered_trip():
    trip = synthetic_trip("s", length_km=1.2, n_points=30, seed=2)
    out = impute_trip(trip, 3.0)
    lo = 3.0 * (1.0 - SPACING_TOLERANCE) - 1e-6
    hi = 3.0 * (1.0 + SPACING_TOLERANCE) + 1e-6
    gaps = spacings(out.points)
    assert all(lo <= g <= hi for g in gaps[:-1])


def test_factor_mode_point_count():
    trip = synthetic_trip("f", length_km=0.6, n_points=11, seed=6)
    out = impute_trip(trip, factor=4)
    assert len(out.points) == (11 - 1) * 4 + 1
    # original samples survive at their knot positions
    assert out.points[0] == trip.points[0]
    assert out.points[4] == trip.points[1]
    assert out.points[-1] == trip.points[-1]


def test_factor_one_is_identity_on_points():
    trip = synthetic_trip("i", length_km=0.4, n_points=8, seed=3)
    out = impute_trip(trip, factor=1)
    assert out.points == trip.points


def test_factor_splits_intervals_evenly_in_time():
    trip = constant_speed_trip("ev", length_m=200.0, speed_mps=10.0, n_points=3)
    out = impute_trip(trip, factor=2)
    ts = [p.timestamp for p in out.points]
    for a, b, c in zip(ts, ts[1:], ts[2:]):
        assert math.isclose(b - a, c - b, rel_tol=1e-9)


def test_speed_never_negative():
    # decelerating to a stop: the fit may wiggle near zero but output is clamped
    pts = constant_speed_trip("z", length_m=50.0, speed_mps=5.0, n_points=6).points
    slowing = tuple(
        type(p)(p.timestamp, p.lat, p.lon, max(0.0, 18.0 - 4.0 * i), "z")
        for i, p in enumerate(pts)
    )
    out = impute_trip(Trip(id="z", points=slowing), 2.0)
    assert all(p.speed_kmh >= 0.0 for p in out.points)


def test_invalid_arguments():
    trip = constant_speed_trip("v", length_m=100.0, speed_mps=10.0)
    with pytest.raises(ValueError, match="resolution_m"):
        impute_trip(trip, 0.0)
    with pytest.raises(ValueError, match="factor"):
        impute_trip(trip, factor=0)


def test_fit_trip_channels_covers_all_three():
    trip = synthetic_trip("ch", length_km=0.3, n_points=6, seed=5)
    channels = fit_trip_channels(trip)
    assert set(channels) == {"lat", "lon", "speed_kmh"}
    for spline in channels.values():
        assert spline.t_min == trip.points[0].timestamp
        assert spline.t_max == trip.points[-1].timestamp


@pytest.mark.parametrize("mode", [{"resolution_m": 1.0}, {"resolution_m": 0.5},
                                  {"resolution_m": 10.0}, {"factor": 5}])
def test_recorded_path_profile_equals_a_walk_over_the_points(mode):
    trip = synthetic_trip("pp", length_km=1.5, n_points=30, seed=12)
    out = impute_trip(trip, **mode)
    cum = [0.0]
    for a, b in zip(out.points, out.points[1:]):
        cum.append(cum[-1] + haversine_m(a.latlon, b.latlon))
    path, speeds = out.path_profile
    assert [d.hex() for d in path] == [d.hex() for d in cum]
    assert speeds == tuple(p.speed_kmh / 3.6 for p in out.points)
