"""Floating-car data model: parsing, serialization, and route extraction.

The interchange format is a plain CSV with header
``timestamp,lat,lon,speed_kmh,trip_id``.  Rows may arrive in any order;
parsing groups them by trip id and sorts each group by timestamp.  A GPX 1.1
converter is provided for track logs coming from consumer recorders.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Iterable, Sequence

from .geo import haversine_m

FCD_HEADER = "timestamp,lat,lon,speed_kmh,trip_id"


class FcdParseError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GpsPoint:
    """One timestamped GPS sample of a vehicle."""

    timestamp: float
    lat: float
    lon: float
    speed_kmh: float
    trip_id: str

    def __post_init__(self) -> None:
        _require_finite("timestamp", self.timestamp)
        _require_finite("lat", self.lat)
        _require_finite("lon", self.lon)
        _require_finite("speed_kmh", self.speed_kmh)
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"lat out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"lon out of range: {self.lon}")
        if self.speed_kmh < 0.0:
            raise ValueError(f"speed_kmh must be >= 0, got {self.speed_kmh}")

    @property
    def latlon(self) -> tuple[float, float]:
        return (self.lat, self.lon)


@dataclass(frozen=True)
class Trip:
    """An ordered sequence of samples sharing one trip id."""

    id: str
    points: tuple[GpsPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError(f"trip {self.id!r} needs at least 2 points, got {len(self.points)}")
        for p in self.points:
            if p.trip_id != self.id:
                raise ValueError(f"trip {self.id!r} contains point with trip_id {p.trip_id!r}")
        for a, b in zip(self.points, self.points[1:]):
            if b.timestamp <= a.timestamp:
                raise ValueError(
                    f"trip {self.id!r}: timestamps not strictly increasing "
                    f"({a.timestamp} then {b.timestamp})"
                )

    @property
    def start(self) -> GpsPoint:
        return self.points[0]

    @property
    def end(self) -> GpsPoint:
        return self.points[-1]

    def duration_s(self) -> float:
        return self.points[-1].timestamp - self.points[0].timestamp

    def path_length_m(self) -> float:
        return sum(
            haversine_m(a.latlon, b.latlon) for a, b in zip(self.points, self.points[1:])
        )


@dataclass(frozen=True)
class RouteQuery:
    """Origin/destination filter with a catch radius around each endpoint."""

    origin: tuple[float, float]
    destination: tuple[float, float]
    radius_m: float

    def __post_init__(self) -> None:
        for name, (lat, lon) in (("origin", self.origin), ("destination", self.destination)):
            if not -90.0 <= lat <= 90.0 or not -180.0 <= lon <= 180.0:
                raise ValueError(f"{name} out of geodetic bounds: ({lat}, {lon})")
        if not self.radius_m > 0.0:
            raise ValueError(f"radius_m must be > 0, got {self.radius_m}")


def parse_fcd(source: str | IO[str]) -> tuple[list[Trip], int]:
    """Parse CSV floating-car data into trips.

    Rows are grouped by trip id (order of first appearance) and each group is
    sorted by timestamp.  Groups with fewer than two rows cannot form a trip
    and are dropped.

    Args:
        source: CSV text or an open text stream.

    Returns:
        ``(trips, dropped)`` where ``dropped`` counts discarded short groups.

    Raises:
        FcdParseError: on a malformed row (with its line number) or when a
            trip contains two samples with the same timestamp.
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
    if not lines:
        raise FcdParseError("empty input, expected header " + FCD_HEADER)
    header = lines[0].strip()
    if header != FCD_HEADER:
        raise FcdParseError(f"bad header {header!r}, expected {FCD_HEADER!r}", line=1)

    groups: dict[str, list[GpsPoint]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise FcdParseError(f"expected 5 fields, got {len(fields)}", line=lineno)
        ts_s, lat_s, lon_s, speed_s, trip_id = fields
        try:
            point = GpsPoint(
                timestamp=float(ts_s),
                lat=float(lat_s),
                lon=float(lon_s),
                speed_kmh=float(speed_s),
                trip_id=trip_id,
            )
        except ValueError as exc:
            raise FcdParseError(str(exc), line=lineno) from exc
        groups.setdefault(trip_id, []).append(point)

    trips: list[Trip] = []
    dropped = 0
    for trip_id, points in groups.items():
        if len(points) < 2:
            dropped += 1
            continue
        points.sort(key=lambda p: p.timestamp)
        for a, b in zip(points, points[1:]):
            if a.timestamp == b.timestamp:
                raise FcdParseError(
                    f"trip {trip_id!r} has duplicate timestamp {a.timestamp}"
                )
        trips.append(Trip(id=trip_id, points=tuple(points)))
    return trips, dropped


def serialize_fcd(trips: Iterable[Trip]) -> str:
    """Inverse of :func:`parse_fcd`; floats are written with full precision."""
    out = [FCD_HEADER]
    for trip in trips:
        for p in trip.points:
            out.append(f"{p.timestamp!r},{p.lat!r},{p.lon!r},{p.speed_kmh!r},{p.trip_id}")
    return "\n".join(out) + "\n"


def extract_route_trips(trips: Sequence[Trip], query: RouteQuery) -> list[Trip]:
    """Trips whose first point lies within the origin radius and whose last
    point lies within the destination radius.  Order-preserving; boundary
    distances (== radius) count as inside."""
    kept = []
    for trip in trips:
        if (
            haversine_m(trip.start.latlon, query.origin) <= query.radius_m
            and haversine_m(trip.end.latlon, query.destination) <= query.radius_m
        ):
            kept.append(trip)
    return kept


# --- GPX 1.1 conversion ----------------------------------------------------

def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _iso_to_epoch(text: str) -> float:
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def parse_gpx(source: str | IO[str]) -> tuple[list[Trip], int]:
    """Convert GPX 1.1 track logs into trips.

    One ``<trk>`` becomes one trip (track segments are merged); the track
    name is the trip id.  ``<time>`` is required per point; an optional
    ``<extensions>`` speed in m/s is converted to km/h, else speed is 0.
    Tracks with fewer than two points are dropped and counted.
    """
    text = source if isinstance(source, str) else source.read()
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise FcdParseError(f"invalid GPX XML: {exc}") from exc

    trips: list[Trip] = []
    dropped = 0
    trk_index = 0
    for trk in root.iter():
        if _local(trk.tag) != "trk":
            continue
        trk_index += 1
        trip_id = f"trk{trk_index}"
        points: list[GpsPoint] = []
        for child in trk:
            if _local(child.tag) == "name" and child.text and child.text.strip():
                trip_id = child.text.strip()
        for node in trk.iter():
            if _local(node.tag) != "trkpt":
                continue
            try:
                lat = float(node.attrib["lat"])
                lon = float(node.attrib["lon"])
            except (KeyError, ValueError) as exc:
                raise FcdParseError(f"trkpt missing lat/lon: {exc}") from exc
            timestamp = None
            speed_kmh = 0.0
            for sub in node.iter():
                tag = _local(sub.tag)
                if tag == "time" and sub.text:
                    timestamp = _iso_to_epoch(sub.text)
                elif tag == "speed" and sub.text:
                    speed_kmh = float(sub.text) * 3.6
            if timestamp is None:
                raise FcdParseError(f"trkpt in track {trip_id!r} has no <time>")
            points.append(GpsPoint(timestamp, lat, lon, speed_kmh, trip_id))
        if len(points) < 2:
            dropped += 1
            continue
        points.sort(key=lambda p: p.timestamp)
        for a, b in zip(points, points[1:]):
            if a.timestamp == b.timestamp:
                raise FcdParseError(f"track {trip_id!r} has duplicate timestamp {a.timestamp}")
        trips.append(Trip(id=trip_id, points=tuple(points)))
    return trips, dropped


def _epoch_to_iso(ts: float) -> str:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.isoformat().replace("+00:00", "Z")


def write_gpx(trips: Iterable[Trip]) -> str:
    """Serialize trips as a GPX 1.1 document with per-point speed extensions."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<gpx version="1.1" creator="fleetchain" xmlns="http://www.topografix.com/GPX/1/1">',
    ]
    for trip in trips:
        name = _xml_escape(trip.id)
        out.append("  <trk>")
        out.append(f"    <name>{name}</name>")
        out.append("    <trkseg>")
        for p in trip.points:
            out.append(f'      <trkpt lat="{p.lat!r}" lon="{p.lon!r}">')
            out.append(f"        <time>{_epoch_to_iso(p.timestamp)}</time>")
            out.append("        <extensions>")
            out.append(f"          <speed>{p.speed_kmh / 3.6!r}</speed>")
            out.append("        </extensions>")
            out.append("      </trkpt>")
        out.append("    </trkseg>")
        out.append("  </trk>")
    out.append("</gpx>")
    return "\n".join(out) + "\n"


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
