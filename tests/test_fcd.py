"""Parser and serializer behavior on hand-enumerated fixtures plus
round-trip properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from fleetchain.fcd import (
    FCD_HEADER,
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
from fleetchain.geo import destination_point
from fleetchain.synth import constant_speed_trip


def _csv(*rows: str) -> str:
    return "\n".join((FCD_HEADER,) + rows) + "\n"


# --- parse_fcd --------------------------------------------------------------

def test_groups_by_trip_and_sorts_by_time():
    # A has 3 rows (out of order), B has 2, C has 1 -> 2 trips, 1 dropped
    text = _csv(
        "10.0,48.0,16.0,50.0,A",
        "5.0,48.1,16.1,51.0,A",
        "100.0,47.0,15.0,60.0,B",
        "7.5,48.2,16.2,52.0,A",
        "50.0,47.5,15.5,61.0,B",
        "1.0,40.0,10.0,30.0,C",
    )
    trips, dropped = parse_fcd(text)
    assert dropped == 1
    assert [t.id for t in trips] == ["A", "B"]  # first-seen order
    assert [p.timestamp for p in trips[0].points] == [5.0, 7.5, 10.0]
    assert [p.timestamp for p in trips[1].points] == [50.0, 100.0]
    assert trips[0].points[0].lat == 48.1


def test_empty_input_rejected():
    with pytest.raises(FcdParseError, match="empty input"):
        parse_fcd("")


def test_bad_header_rejected():
    with pytest.raises(FcdParseError, match="bad header"):
        parse_fcd("time,lat,lon,v,id\n1,2,3,4,x\n")


def test_field_count_error_carries_line_number():
    text = _csv("1.0,48.0,16.0,50.0,A", "2.0,48.0,16.0,B")
    with pytest.raises(FcdParseError, match="line 3") as exc_info:
        parse_fcd(text)
    assert exc_info.value.line == 3


def test_non_numeric_field_error_carries_line_number():
    with pytest.raises(FcdParseError, match="line 2"):
        parse_fcd(_csv("oops,48.0,16.0,50.0,A"))


def test_out_of_range_latitude_rejected():
    with pytest.raises(FcdParseError, match="lat out of range"):
        parse_fcd(_csv("1.0,91.0,16.0,50.0,A"))


def test_duplicate_timestamp_names_trip():
    text = _csv("1.0,48.0,16.0,50.0,A", "1.0,48.1,16.1,51.0,A")
    with pytest.raises(FcdParseError, match="'A' has duplicate timestamp"):
        parse_fcd(text)


def test_blank_lines_skipped():
    text = FCD_HEADER + "\n\n1.0,48.0,16.0,50.0,A\n\n2.0,48.1,16.1,51.0,A\n"
    trips, dropped = parse_fcd(text)
    assert len(trips) == 1 and dropped == 0


def test_parse_accepts_stream():
    import io

    trips, _ = parse_fcd(io.StringIO(_csv("1.0,48.0,16.0,50.0,A", "2.0,48.1,16.1,51.0,A")))
    assert len(trips) == 1


# --- model validation -------------------------------------------------------

def test_trip_requires_two_points():
    p = GpsPoint(1.0, 48.0, 16.0, 50.0, "A")
    with pytest.raises(ValueError, match="at least 2 points"):
        Trip(id="A", points=(p,))


def test_trip_rejects_foreign_point():
    pts = (GpsPoint(1.0, 48.0, 16.0, 50.0, "A"), GpsPoint(2.0, 48.1, 16.1, 50.0, "B"))
    with pytest.raises(ValueError, match="trip_id 'B'"):
        Trip(id="A", points=pts)


def test_point_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        GpsPoint(float("nan"), 48.0, 16.0, 50.0, "A")


def test_query_rejects_nonpositive_radius():
    with pytest.raises(ValueError, match="radius_m"):
        RouteQuery(origin=(0.0, 0.0), destination=(1.0, 1.0), radius_m=0.0)


# --- round trips ------------------------------------------------------------

def test_serialize_parse_round_trip_exact():
    trip = constant_speed_trip("rt", length_m=500.0, speed_mps=13.5, n_points=5)
    parsed, dropped = parse_fcd(serialize_fcd([trip]))
    assert dropped == 0
    assert parsed == [trip]


point_st = st.builds(
    GpsPoint,
    timestamp=st.floats(min_value=0.0, max_value=2e9, allow_nan=False),
    lat=st.floats(min_value=-90.0, max_value=90.0),
    lon=st.floats(min_value=-180.0, max_value=180.0),
    speed_kmh=st.floats(min_value=0.0, max_value=300.0),
    trip_id=st.just("T"),
)


@given(st.lists(point_st, min_size=2, max_size=15, unique_by=lambda p: p.timestamp))
def test_round_trip_property(points):
    points = sorted(points, key=lambda p: p.timestamp)
    trip = Trip(id="T", points=tuple(points))
    parsed, _ = parse_fcd(serialize_fcd([trip]))
    assert parsed == [trip]  # repr floats make the CSV lossless


def test_gpx_round_trip():
    trip = constant_speed_trip("gpx trip", length_m=300.0, speed_mps=10.0, n_points=4)
    trips, dropped = parse_gpx(write_gpx([trip]))
    assert dropped == 0
    (back,) = trips
    assert back.id == "gpx trip"
    assert len(back.points) == 4
    for orig, again in zip(trip.points, back.points):
        # ISO time keeps microseconds; speed crosses a /3.6 conversion
        assert math.isclose(again.timestamp, orig.timestamp, abs_tol=1e-6)
        assert again.lat == orig.lat and again.lon == orig.lon
        assert math.isclose(again.speed_kmh, orig.speed_kmh, rel_tol=1e-12)


def test_gpx_unnamed_track_gets_index_id():
    gpx = (
        '<?xml version="1.0"?><gpx version="1.1" xmlns="http://www.topografix.com/GPX/1/1">'
        "<trk><trkseg>"
        '<trkpt lat="48.0" lon="16.0"><time>2024-01-01T00:00:00Z</time></trkpt>'
        '<trkpt lat="48.1" lon="16.1"><time>2024-01-01T00:01:00Z</time></trkpt>'
        "</trkseg></trk></gpx>"
    )
    trips, _ = parse_gpx(gpx)
    assert trips[0].id == "trk1"
    assert trips[0].points[0].speed_kmh == 0.0  # no extensions -> unknown speed


def test_gpx_short_track_dropped():
    gpx = (
        '<gpx version="1.1"><trk><name>solo</name><trkseg>'
        '<trkpt lat="48.0" lon="16.0"><time>2024-01-01T00:00:00Z</time></trkpt>'
        "</trkseg></trk></gpx>"
    )
    trips, dropped = parse_gpx(gpx)
    assert trips == [] and dropped == 1


def test_gpx_missing_time_rejected():
    gpx = (
        '<gpx version="1.1"><trk><trkseg>'
        '<trkpt lat="48.0" lon="16.0"/>'
        '<trkpt lat="48.1" lon="16.1"><time>2024-01-01T00:00:00Z</time></trkpt>'
        "</trkseg></trk></gpx>"
    )
    with pytest.raises(FcdParseError, match="no <time>"):
        parse_gpx(gpx)


@pytest.mark.parametrize(
    "trkpt, message",
    [
        ('<trkpt lat="95" lon="16.0"><time>2024-01-01T00:00:00Z</time></trkpt>',
         "lat out of range"),
        ('<trkpt lat="48.0" lon="16.0"><time>yesterday</time></trkpt>', "yesterday"),
        ('<trkpt lat="48.0" lon="16.0"><time>2024-01-01T00:00:00Z</time>'
         "<extensions><speed>fast</speed></extensions></trkpt>", "fast"),
    ],
    ids=["lat-95", "time-yesterday", "speed-fast"],
)
def test_gpx_malformed_point_is_a_parse_error(trkpt, message):
    gpx = (
        '<gpx version="1.1"><trk><name>bad</name><trkseg>'
        f"{trkpt}"
        '<trkpt lat="48.1" lon="16.1"><time>2024-01-01T00:01:00Z</time></trkpt>'
        "</trkseg></trk></gpx>"
    )
    with pytest.raises(FcdParseError, match=f"trkpt in track 'bad': .*{message}"):
        parse_gpx(gpx)


def test_gpx_duplicate_timestamp_rejected():
    gpx = (
        '<gpx version="1.1"><trk><name>twice</name><trkseg>'
        '<trkpt lat="48.0" lon="16.0"><time>2024-01-01T00:00:00Z</time></trkpt>'
        '<trkpt lat="48.1" lon="16.1"><time>2024-01-01T00:00:00Z</time></trkpt>'
        "</trkseg></trk></gpx>"
    )
    with pytest.raises(FcdParseError, match="track 'twice' has duplicate timestamp"):
        parse_gpx(gpx)


def two_tracks(name, first_times, second_times):
    def trk(times):
        points = "".join(
            f'<trkpt lat="48.{i}" lon="16.{i}"><time>2024-01-01T00:{t}Z</time></trkpt>'
            for i, t in enumerate(times)
        )
        return f"<trk><name>{name}</name><trkseg>{points}</trkseg></trk>"

    return f'<gpx version="1.1">{trk(first_times)}{trk(second_times)}</gpx>'


def test_gpx_tracks_of_one_name_share_a_timeline():
    gpx = two_tracks("same", ["00:00", "01:00"], ["00:00", "01:00"])
    with pytest.raises(FcdParseError, match="track 'same' has duplicate timestamp"):
        parse_gpx(gpx)


def test_gpx_tracks_of_one_name_are_one_trip():
    trips, dropped = parse_gpx(two_tracks("same", ["02:00", "03:00"], ["00:00", "01:00"]))
    assert dropped == 0
    assert [t.id for t in trips] == ["same"]
    assert [p.timestamp - 1704067200.0 for p in trips[0].points] == [0.0, 60.0, 120.0, 180.0]
    assert parse_fcd(serialize_fcd(trips)) == (trips, 0)


def test_gpx_invalid_xml_rejected():
    with pytest.raises(FcdParseError, match="invalid GPX XML"):
        parse_gpx("<gpx><trk>")


# --- route extraction -------------------------------------------------------

def test_extract_keeps_matching_trip():
    start = (48.115, 16.570)
    trip = constant_speed_trip("m", length_m=5000.0, speed_mps=20.0, start=start,
                               bearing_deg=90.0, n_points=6)
    dest = destination_point(start[0], start[1], 90.0, 5000.0)
    query = RouteQuery(origin=start, destination=dest, radius_m=100.0)
    assert extract_route_trips([trip], query) == [trip]


def test_extract_rejects_wrong_destination():
    start = (48.115, 16.570)
    trip = constant_speed_trip("w", length_m=5000.0, speed_mps=20.0, start=start,
                               bearing_deg=90.0, n_points=6)
    far = destination_point(start[0], start[1], 270.0, 5000.0)  # opposite way
    query = RouteQuery(origin=start, destination=far, radius_m=100.0)
    assert extract_route_trips([trip], query) == []


def test_extract_radius_boundary_inclusive():
    start = (48.0, 16.0)
    trip = constant_speed_trip("b", length_m=1000.0, speed_mps=10.0, start=start,
                               bearing_deg=0.0, n_points=3)
    end = trip.end.latlon
    # query endpoints displaced by exactly the catch radius
    off_origin = destination_point(start[0], start[1], 90.0, 250.0)
    off_dest = destination_point(end[0], end[1], 90.0, 250.0)
    query = RouteQuery(origin=off_origin, destination=off_dest, radius_m=250.0 + 1e-6)
    assert extract_route_trips([trip], query) == [trip]
    tight = RouteQuery(origin=off_origin, destination=off_dest, radius_m=249.99)
    assert extract_route_trips([trip], tight) == []


def test_extract_preserves_order():
    t1 = constant_speed_trip("t1", length_m=100.0, speed_mps=10.0)
    t2 = constant_speed_trip("t2", length_m=100.0, speed_mps=10.0)
    query = RouteQuery(origin=t1.start.latlon, destination=t1.end.latlon, radius_m=50.0)
    assert [t.id for t in extract_route_trips([t1, t2], query)] == ["t1", "t2"]
