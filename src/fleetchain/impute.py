"""Trajectory densification at a fixed spatial resolution.

A trip's lat, lon, and speed channels are each fitted against time with the
shape-preserving cubic; new points are emitted by stepping along the path so
that consecutive points are about ``resolution_m`` apart on the sphere.  The
original samples stay interpolation constraints: the fitted channels
reproduce every knot exactly.

The three fits share their knots, so each probe evaluates them together
with one segment lookup, and the accepted probe becomes the next point.
Its distance from the previous point is the step the path profile needs,
so the cumulative distance is recorded while stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fcd import GpsPoint, Trip
from .geo import haversine_m
from .hermite import HermiteSpline, JointHermite, fit_hermite

# accepted deviation of point spacing from the requested resolution
SPACING_TOLERANCE = 0.10
_MIN_GUESS_SPEED_MPS = 0.05


@dataclass(frozen=True)
class ImputedTrajectory:
    """Densified trip.

    ``path_profile`` holds the cumulative great-circle distance [m] at each
    point, starting at 0.0, and the speed at each point [m/s].  Imputation
    records it while emitting the points, so every rollout over one
    trajectory reads it without walking the points again.
    """

    trip_id: str
    points: tuple[GpsPoint, ...]
    path_profile: tuple[tuple[float, ...], tuple[float, ...]]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("imputed trajectory needs at least 2 points")
        for a, b in zip(self.points, self.points[1:]):
            if b.timestamp <= a.timestamp:
                raise ValueError("imputed timestamps must be strictly increasing")
        if any(len(column) != len(self.points) for column in self.path_profile):
            raise ValueError("path profile needs one entry per point")


def fit_trip_channels(trip: Trip) -> dict[str, HermiteSpline]:
    """Per-channel shape-preserving fits of lat, lon and speed against time."""
    ts = [p.timestamp for p in trip.points]
    return {
        "lat": fit_hermite(ts, [p.lat for p in trip.points], channel="lat"),
        "lon": fit_hermite(ts, [p.lon for p in trip.points], channel="lon"),
        "speed_kmh": fit_hermite(ts, [p.speed_kmh for p in trip.points], channel="speed_kmh"),
    }


def _point(t: float, lat: float, lon: float, speed_kmh: float, trip_id: str) -> GpsPoint:
    # the fit cannot overshoot the sampled range, so only rounding noise
    # can push a zero speed a few ulps negative
    return GpsPoint(timestamp=t, lat=lat, lon=lon, speed_kmh=max(speed_kmh, 0.0), trip_id=trip_id)


def _next_step(
    fit: JointHermite,
    t: float,
    speed_kmh: float,
    anchor: tuple[float, float],
    t_end: float,
    resolution_m: float,
) -> tuple[float, float, float, float, float] | None:
    """First probe after ``t`` whose distance from ``anchor`` lands in the
    accepted spacing band, as ``(t, lat, lon, speed_kmh, distance_m)``, or
    None when the trip ends first.  ``speed_kmh`` is the fitted speed at
    ``t``; it sizes the first step."""
    lo = (1.0 - SPACING_TOLERANCE) * resolution_m
    hi = (1.0 + SPACING_TOLERANCE) * resolution_m

    def probe(tq: float) -> tuple[float, float, float, float, float]:
        lat, lon, speed = fit.eval(tq)
        return tq, lat, lon, speed, haversine_m(anchor, (lat, lon))

    v = max(speed_kmh / 3.6, _MIN_GUESS_SPEED_MPS)
    dt = resolution_m / v
    upper = probe(min(t + dt, t_end))
    # widen until the band is reached or the trip runs out
    while upper[4] < lo and upper[0] < t_end:
        dt *= 2.0
        upper = probe(min(t + dt, t_end))
    if upper[4] < lo:
        return None
    if upper[4] <= hi:
        return upper
    # bisect into the band; distance is continuous in t, so this terminates
    t_lo = t
    for _ in range(80):
        mid = probe(0.5 * (t_lo + upper[0]))
        if mid[4] < lo:
            t_lo = mid[0]
        elif mid[4] > hi:
            upper = mid
        else:
            return mid
    return upper


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
    fit = JointHermite(channels["lat"], channels["lon"], channels["speed_kmh"])
    first, last = trip.points[0], trip.points[-1]
    points: list[GpsPoint] = [first]
    # cumulative great-circle distance at each point, recorded as it is emitted
    cum = [0.0]

    if factor is not None:
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        for a, b in zip(trip.points, trip.points[1:]):
            h = (b.timestamp - a.timestamp) / factor
            for k in range(1, factor):
                t = a.timestamp + k * h
                points.append(_point(t, *fit.eval(t), trip.id))
                cum.append(cum[-1] + haversine_m(points[-2].latlon, points[-1].latlon))
            points.append(b)
            cum.append(cum[-1] + haversine_m(points[-2].latlon, points[-1].latlon))
    else:
        if not resolution_m > 0.0:
            raise ValueError(f"resolution_m must be > 0, got {resolution_m}")
        t_end = last.timestamp
        t, speed, anchor = first.timestamp, first.speed_kmh, first.latlon
        while True:
            step = _next_step(fit, t, speed, anchor, t_end, resolution_m)
            if step is None or step[0] >= t_end:
                break
            t, lat, lon, speed, distance = step
            points.append(_point(t, lat, lon, speed, trip.id))
            cum.append(cum[-1] + distance)
            anchor = (lat, lon)
        points.append(last)
        cum.append(cum[-1] + haversine_m(anchor, last.latlon))

    # rebinding frees the lists before the speeds are built
    points, cum = tuple(points), tuple(cum)
    return ImputedTrajectory(
        trip_id=trip.id,
        points=points,
        path_profile=(cum, tuple(p.speed_kmh / 3.6 for p in points)),
    )
