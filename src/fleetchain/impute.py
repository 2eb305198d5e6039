"""Trajectory densification at a fixed spatial resolution.

A trip's lat, lon, and speed channels are each fitted against time with the
shape-preserving cubic; new points are emitted by stepping along the path so
that consecutive points are about ``resolution_m`` apart on the sphere.  The
original samples stay interpolation constraints: the fitted channels
reproduce every knot exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

from .fcd import GpsPoint, Trip
from .geo import haversine_m
from .hermite import HermiteSpline, fit_hermite

# accepted deviation of point spacing from the requested resolution
SPACING_TOLERANCE = 0.10
_MIN_GUESS_SPEED_MPS = 0.05


@dataclass(frozen=True)
class ImputedTrajectory:
    """Densified trip plus the channel fits that produced it.

    ``resolution_m`` is None when the trajectory was produced with a fixed
    per-interval multiplication factor instead of spatial stepping.
    ``path_profile`` is computed on first access and cached on the instance,
    so every rollout over one trajectory shares it.
    """

    trip_id: str
    points: tuple[GpsPoint, ...]
    resolution_m: float | None
    channels: Mapping[str, HermiteSpline]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("imputed trajectory needs at least 2 points")
        for a, b in zip(self.points, self.points[1:]):
            if b.timestamp <= a.timestamp:
                raise ValueError("imputed timestamps must be strictly increasing")
        object.__setattr__(self, "channels", MappingProxyType(dict(self.channels)))

    @cached_property
    def path_profile(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Cumulative great-circle distance [m] at each point, starting at
        0.0, and the speed at each point [m/s]."""
        pts = self.points
        cum = [0.0]
        for a, b in zip(pts, pts[1:]):
            cum.append(cum[-1] + haversine_m(a.latlon, b.latlon))
        return tuple(cum), tuple(p.speed_kmh / 3.6 for p in pts)


def fit_trip_channels(trip: Trip) -> dict[str, HermiteSpline]:
    """Per-channel shape-preserving fits of lat, lon and speed against time."""
    ts = [p.timestamp for p in trip.points]
    return {
        "lat": fit_hermite(ts, [p.lat for p in trip.points], channel="lat"),
        "lon": fit_hermite(ts, [p.lon for p in trip.points], channel="lon"),
        "speed_kmh": fit_hermite(ts, [p.speed_kmh for p in trip.points], channel="speed_kmh"),
    }


def _point_at(channels: dict[str, HermiteSpline], t: float, trip_id: str) -> GpsPoint:
    speed = channels["speed_kmh"].eval(t)
    return GpsPoint(
        timestamp=t,
        lat=channels["lat"].eval(t),
        lon=channels["lon"].eval(t),
        # the fit cannot overshoot the sampled range, so only rounding noise
        # can push a zero speed a few ulps negative
        speed_kmh=max(speed, 0.0),
        trip_id=trip_id,
    )


def _next_step_time(
    channels: dict[str, HermiteSpline],
    t: float,
    anchor: tuple[float, float],
    t_end: float,
    resolution_m: float,
) -> float | None:
    """First time after ``t`` at which the distance from ``anchor`` lands in
    the accepted spacing band, or None when the trip ends first."""
    lo = (1.0 - SPACING_TOLERANCE) * resolution_m
    hi = (1.0 + SPACING_TOLERANCE) * resolution_m
    lat_s, lon_s = channels["lat"], channels["lon"]

    def dist(tq: float) -> float:
        return haversine_m(anchor, (lat_s.eval(tq), lon_s.eval(tq)))

    v = max(channels["speed_kmh"].eval(t) / 3.6, _MIN_GUESS_SPEED_MPS)
    dt = resolution_m / v
    t_hi = min(t + dt, t_end)
    d_hi = dist(t_hi)
    # widen until the band is reached or the trip runs out
    while d_hi < lo and t_hi < t_end:
        dt *= 2.0
        t_hi = min(t + dt, t_end)
        d_hi = dist(t_hi)
    if d_hi < lo:
        return None
    if d_hi <= hi:
        return t_hi
    # bisect into the band; distance is continuous in t, so this terminates
    t_lo = t
    for _ in range(80):
        tm = 0.5 * (t_lo + t_hi)
        dm = dist(tm)
        if dm < lo:
            t_lo = tm
        elif dm > hi:
            t_hi = tm
        else:
            return tm
    return t_hi


def impute_trip(
    trip: Trip,
    resolution_m: float = 1.0,
    *,
    factor: int | None = None,
) -> ImputedTrajectory:
    """Densify a trip to ~``resolution_m`` spacing (or by a fixed factor).

    Args:
        trip: source trip; its samples become spline knots.
        resolution_m: target great-circle spacing of consecutive output
            points.  The first and last original points are always emitted,
            so the final gap may be shorter than the resolution.
        factor: when given, ignore ``resolution_m`` and instead split every
            inter-knot interval into ``factor`` equal time steps, giving
            ``(n_knots - 1) * factor + 1`` output points.

    Raises:
        ValueError: non-positive resolution or factor.
    """
    channels = fit_trip_channels(trip)
    t0 = trip.points[0].timestamp
    t_end = trip.points[-1].timestamp

    if factor is not None:
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        points: list[GpsPoint] = [trip.points[0]]
        for a, b in zip(trip.points, trip.points[1:]):
            h = (b.timestamp - a.timestamp) / factor
            for k in range(1, factor):
                points.append(_point_at(channels, a.timestamp + k * h, trip.id))
            points.append(b)
        return ImputedTrajectory(
            trip_id=trip.id, points=tuple(points), resolution_m=None, channels=channels
        )

    if not resolution_m > 0.0:
        raise ValueError(f"resolution_m must be > 0, got {resolution_m}")

    points = [trip.points[0]]
    t = t0
    anchor = trip.points[0].latlon
    while True:
        t_next = _next_step_time(channels, t, anchor, t_end, resolution_m)
        if t_next is None or t_next >= t_end:
            break
        p = _point_at(channels, t_next, trip.id)
        points.append(p)
        t = t_next
        anchor = p.latlon
    points.append(trip.points[-1])
    return ImputedTrajectory(
        trip_id=trip.id, points=tuple(points), resolution_m=resolution_m, channels=channels
    )
