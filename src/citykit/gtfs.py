"""Static transit feed model and the NGSI urban-mobility bridge.

A feed is six record lists (agencies, stops, routes, trips, stop times,
services) with referential integrity and per-trip time ordering enforced.
Serialization produces a zip of exactly agency.txt, stops.txt, routes.txt,
trips.txt, stop_times.txt and calendar.txt: UTF-8, LF endings, header rows,
rows sorted by primary key, fixed archive metadata. The same feed always
yields the same bytes, regardless of input order.

Stop times live internally as whole seconds since service midnight and render
as HH:MM:SS on the way out; hours past 24 are legal for after-midnight trips.
"""

import calendar
import csv
import io
import logging
import lzma
import os
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Optional
from urllib.parse import urlparse
from urllib.request import url2pathname

from citykit.broker import Broker
from citykit.ngsi import KindError, NgsiEntity, iso_utc, make_entity

logger = logging.getLogger(__name__)

FEED_FILES = ("agency.txt", "stops.txt", "routes.txt", "trips.txt",
              "stop_times.txt", "calendar.txt")

# Fixed member timestamp so archives are byte-stable across runs.
_ZIP_STAMP = (2020, 1, 1, 0, 0, 0)


class FeedError(KindError):
    """Feed construction/IO failures; ``kind`` names the failure class."""


@dataclass(frozen=True)
class Agency:
    agencyId: str
    name: str
    url: str
    timezone: str


@dataclass(frozen=True)
class Stop:
    stopId: str
    name: str
    lat: float
    lon: float


@dataclass(frozen=True)
class Route:
    routeId: str
    agencyId: str
    shortName: str
    routeType: int


@dataclass(frozen=True)
class Trip:
    tripId: str
    routeId: str
    serviceId: str


@dataclass(frozen=True)
class StopTime:
    tripId: str
    stopSequence: int
    stopId: str
    arrival: int  # seconds since service midnight
    departure: int


@dataclass(frozen=True)
class Service:
    serviceId: str
    weekdayFlags: tuple  # 7 ints, Monday first
    startDate: str  # YYYYMMDD
    endDate: str


def parse_service_date(stamp: str) -> date:
    """The day a YYYYMMDD calendar stamp names; raises FeedError for anything else."""
    try:
        if len(stamp) == 8 and stamp.isascii() and stamp.isdigit():
            return date(int(stamp[:4]), int(stamp[4:6]), int(stamp[6:8]))
    except ValueError:  # no such day, e.g. 20250230
        pass
    raise FeedError("invalid-date", f"not a YYYYMMDD day: {stamp!r}")


def utc_midnight(day: date) -> int:
    """Epoch seconds of ``day``'s UTC midnight, where its service times count from."""
    return calendar.timegm(day.timetuple())


@dataclass
class GtfsFeed:
    agencies: list = field(default_factory=list)
    stops: list = field(default_factory=list)
    routes: list = field(default_factory=list)
    trips: list = field(default_factory=list)
    stopTimes: list = field(default_factory=list)
    services: list = field(default_factory=list)

    def sort(self) -> "GtfsFeed":
        self.agencies.sort(key=lambda a: a.agencyId)
        self.stops.sort(key=lambda s: s.stopId)
        self.routes.sort(key=lambda r: r.routeId)
        self.trips.sort(key=lambda t: t.tripId)
        self.stopTimes.sort(key=lambda st: (st.tripId, st.stopSequence))
        self.services.sort(key=lambda s: s.serviceId)
        return self


def format_time(seconds: int) -> str:
    """Seconds since service midnight to HH:MM:SS; hours may pass 24."""
    if seconds < 0:
        raise FeedError("invalid-time", f"negative stop time {seconds}")
    h, rem = divmod(int(seconds), 3600)
    m, s = divmod(rem, 60)
    return f"{h:02d}:{m:02d}:{s:02d}"


def parse_time(text: str) -> int:
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise FeedError("invalid-time", f"not HH:MM:SS: {text!r}")
    h, m, s = (int(p) for p in parts)
    return h * 3600 + m * 60 + s


def validate_feed(feed: GtfsFeed) -> None:
    """Enforce the invariants of a sorted feed; raises FeedError on the first kind hit."""
    if not feed.agencies:
        raise FeedError("empty-feed", "a feed requires at least one agency")
    agency_ids = {a.agencyId for a in feed.agencies}
    stop_ids = {s.stopId for s in feed.stops}
    route_ids = {r.routeId for r in feed.routes}
    trip_ids = {t.tripId for t in feed.trips}
    service_ids = {s.serviceId for s in feed.services}

    dangling = []
    for route in feed.routes:
        if route.agencyId not in agency_ids:
            dangling.append(f"route {route.routeId} -> agency {route.agencyId}")
    for trip in feed.trips:
        if trip.routeId not in route_ids:
            dangling.append(f"trip {trip.tripId} -> route {trip.routeId}")
        if trip.serviceId not in service_ids:
            dangling.append(f"trip {trip.tripId} -> service {trip.serviceId}")
    for st in feed.stopTimes:
        if st.tripId not in trip_ids:
            dangling.append(f"stop_time -> trip {st.tripId}")
        if st.stopId not in stop_ids:
            dangling.append(f"stop_time {st.tripId}#{st.stopSequence} -> stop {st.stopId}")
    if dangling:
        raise FeedError("dangling-reference",
                        f"{len(dangling)} unresolved references, first {min(dangling)}")

    for stop in feed.stops:
        if not (-90.0 <= stop.lat <= 90.0) or not (-180.0 <= stop.lon <= 180.0):
            raise FeedError("bad-coordinate",
                            f"stop {stop.stopId} at ({stop.lat}, {stop.lon})")

    for prev, st in zip([None, *feed.stopTimes], feed.stopTimes):  # in (trip, sequence) order
        trip_id, seq = st.tripId, st.stopSequence
        same_trip = prev is not None and prev.tripId == trip_id
        if same_trip and prev.stopSequence == seq:
            raise FeedError("unsorted-stop-times",
                            f"trip {trip_id}: duplicate stop sequence {seq}")
        if st.departure < st.arrival:
            raise FeedError("unsorted-stop-times",
                            f"trip {trip_id}: departure before arrival at seq {seq}")
        if same_trip and st.arrival < prev.departure:
            raise FeedError("unsorted-stop-times",
                            f"trip {trip_id}: times decrease at seq {seq}")


def serialize_feed(feed: GtfsFeed) -> bytes:
    """Validate, sort, and pack the feed into deterministic zip bytes."""
    feed.sort()
    validate_feed(feed)
    tables = {
        "agency.txt": (
            ["agency_id", "agency_name", "agency_url", "agency_timezone"],
            [[a.agencyId, a.name, a.url, a.timezone] for a in feed.agencies],
        ),
        "stops.txt": (
            ["stop_id", "stop_name", "stop_lat", "stop_lon"],
            [[s.stopId, s.name, s.lat, s.lon] for s in feed.stops],
        ),
        "routes.txt": (
            ["route_id", "agency_id", "route_short_name", "route_type"],
            [[r.routeId, r.agencyId, r.shortName, r.routeType] for r in feed.routes],
        ),
        "trips.txt": (
            ["route_id", "service_id", "trip_id"],
            [[t.routeId, t.serviceId, t.tripId] for t in feed.trips],
        ),
        "stop_times.txt": (
            ["trip_id", "arrival_time", "departure_time", "stop_id", "stop_sequence"],
            [[st.tripId, format_time(st.arrival), format_time(st.departure),
              st.stopId, st.stopSequence] for st in feed.stopTimes],
        ),
        "calendar.txt": (
            ["service_id", "monday", "tuesday", "wednesday", "thursday",
             "friday", "saturday", "sunday", "start_date", "end_date"],
            [[s.serviceId, *s.weekdayFlags, s.startDate, s.endDate]
             for s in feed.services],
        ),
    }
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in FEED_FILES:
            header, rows = tables[name]
            text = io.StringIO()
            writer = csv.writer(text, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            info = zipfile.ZipInfo(name, date_time=_ZIP_STAMP)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            zf.writestr(info, text.getvalue().encode("utf-8"))
    return buf.getvalue()


def parse_feed(data: bytes) -> GtfsFeed:
    """Read a feed zip back into the model; validates on the way in."""
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as exc:
        raise FeedError("parse-error", f"not a zip archive: {exc}") from exc
    with zf:
        names = set(zf.namelist())
        missing = set(FEED_FILES) - names
        if missing:
            raise FeedError("parse-error", f"archive missing {sorted(missing)}")

        def rows(name):
            try:
                text = zf.read(name).decode("utf-8")
            except (zipfile.BadZipFile, zlib.error, lzma.LZMAError, EOFError, OSError,
                    NotImplementedError, RuntimeError) as exc:  # damaged, encrypted, odd method
                raise FeedError("parse-error", f"cannot read {name}: {exc}") from exc
            reader = csv.DictReader(io.StringIO(text))
            return list(reader)

        try:
            feed = GtfsFeed(
                agencies=[Agency(r["agency_id"], r["agency_name"], r["agency_url"],
                                 r["agency_timezone"]) for r in rows("agency.txt")],
                stops=[Stop(r["stop_id"], r["stop_name"], float(r["stop_lat"]),
                            float(r["stop_lon"])) for r in rows("stops.txt")],
                routes=[Route(r["route_id"], r["agency_id"], r["route_short_name"],
                              int(r["route_type"])) for r in rows("routes.txt")],
                trips=[Trip(r["trip_id"], r["route_id"], r["service_id"])
                       for r in rows("trips.txt")],
                stopTimes=[StopTime(r["trip_id"], int(r["stop_sequence"]), r["stop_id"],
                                    parse_time(r["arrival_time"]),
                                    parse_time(r["departure_time"]))
                           for r in rows("stop_times.txt")],
                services=[Service(r["service_id"],
                                  tuple(int(r[d]) for d in
                                        ("monday", "tuesday", "wednesday", "thursday",
                                         "friday", "saturday", "sunday")),
                                  r["start_date"], r["end_date"])
                          for r in rows("calendar.txt")],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise FeedError("parse-error", f"malformed table row: {exc}") from exc
    feed.sort()
    validate_feed(feed)
    return feed


def load_feed(path) -> GtfsFeed:
    return parse_feed(Path(path).read_bytes())


def _text(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"{value!r} is not text or a number")
    return str(value)


def _real(value) -> float:
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _whole(value) -> int:
    if not _real(value).is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _require(entity: NgsiEntity, name: str, convert=_text):
    """Attribute ``name``'s value through ``convert``; FeedError if missing or unconvertible."""
    attr = entity.attributes.get(name)
    if attr is None:
        raise FeedError("invalid-entity",
                        f"{entity.entityType} {entity.id} lacks attribute {name!r}")
    try:
        return convert(attr.value)
    except (TypeError, ValueError) as exc:
        raise FeedError("invalid-entity",
                        f"{entity.entityType} {entity.id} attribute {name!r}: {exc}") from exc


def _weekday_flags(value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 7:
        raise ValueError("weekdays must have 7 flags")
    return tuple(_whole(f) for f in value)


def ngsi_to_gtfs(entities: list[NgsiEntity]) -> tuple[GtfsFeed, bytes]:
    """Assemble a feed from Gtfs* entities; non-Gtfs types are ignored.

    Entity ids double as the GTFS identifiers; references travel in the
    ``ref*`` attributes. Output is the validated feed plus its zip bytes.
    """
    feed = GtfsFeed()
    for e in entities:
        t = e.entityType
        if t == "GtfsAgency":
            feed.agencies.append(Agency(e.id, _require(e, "name"), _require(e, "url"),
                                        _require(e, "timezone")))
        elif t == "GtfsStop":
            feed.stops.append(Stop(e.id, _require(e, "name"), _require(e, "latitude", _real),
                                   _require(e, "longitude", _real)))
        elif t == "GtfsRoute":
            feed.routes.append(Route(e.id, _require(e, "refAgency"), _require(e, "shortName"),
                                     _require(e, "routeType", _whole)))
        elif t == "GtfsTrip":
            feed.trips.append(Trip(e.id, _require(e, "refRoute"),
                                   _require(e, "refService")))
        elif t == "GtfsStopTime":
            feed.stopTimes.append(StopTime(
                _require(e, "refTrip"), _require(e, "stopSequence", _whole),
                _require(e, "refStop"), _require(e, "arrivalTime", _whole),
                _require(e, "departureTime", _whole),
            ))
        elif t == "GtfsService":
            feed.services.append(Service(e.id, _require(e, "weekdays", _weekday_flags),
                                         _require(e, "startDate"), _require(e, "endDate")))
    data = serialize_feed(feed)
    return feed, data


def file_url(path) -> str:
    """A URL unchanged; a filesystem path as its file:// URL."""
    path = os.fspath(path)
    return path if "://" in path else Path(path).absolute().as_uri()


def publish_feed_entity(zip_url: str, broker: Broker,
                        feed_id: Optional[str] = None) -> NgsiEntity:
    """Point a GtfsTransitFeedFile entity at a feed archive.

    ``zip_url`` may be a file/http(s) URL or a bare filesystem path.
    Re-publishing the same feed id replaces the pointer in place, bumping
    dateModified to the archive's current write time.
    """
    zip_url = file_url(zip_url)
    parsed = urlparse(zip_url)
    if parsed.scheme == "file":
        local = url2pathname(parsed.path)
        if not os.path.isfile(local):
            raise FeedError("file-missing", f"no archive at {local!r}")
        modified = iso_utc(os.path.getmtime(local))
        stem = Path(local).stem
    else:
        modified = iso_utc(time.time())
        stem = Path(parsed.path).stem or "feed"
    entity = make_entity(
        feed_id or f"feed-{stem}",
        "GtfsTransitFeedFile",
        url=zip_url,
        dateModified=modified,
        name=stem,
    )
    try:
        broker.upsert_entity(entity)
    except OSError as exc:
        raise FeedError("broker-unreachable", str(exc)) from exc
    return entity
