"""Earliest-arrival journey planner over static feeds plus real-time overlays.

The graph is immutable once built: indexed stops, per-trip stop times for the
service date, and symmetric footpaths between stops within the transfer
radius (walk time = ceil(haversine / walkSpeed)). Real-time updates never
mutate the graph; they become an overlay of per-trip time shifts consulted at
query time, so concurrent queries may keep using the static view.

Search is label-setting over (stop, boardings, arrived-by-walk) with Pareto
dominance on (arrival time, boardings). Two walk moves never follow each
other: access, footpath, and egress walks all count. Alternatives come from
re-running the search while banning the trips used by earlier answers.
"""

import heapq
import itertools
import logging
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from typing import Optional, Union
from urllib.request import urlopen

from citykit.gtfs import FeedError, GtfsFeed, file_url
from citykit.httpd import HttpError, HttpService, JsonHttpServer, post_json

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6371000.0


class PlanError(Exception):
    """Planning failures; ``kind`` is unreachable or origin-isolated."""

    def __init__(self, kind: str, message: str):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def walk_seconds(meters: float, walk_speed: float) -> int:
    return int(math.ceil(meters / walk_speed))


def _date_yyyymmdd(d: date) -> str:
    return f"{d.year:04d}{d.month:02d}{d.day:02d}"


def _day_start_epoch(d: date) -> int:
    return int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp())


@dataclass(frozen=True)
class TripStopTime:
    seq: int
    stopId: str
    arrival: int  # epoch seconds on the service date
    departure: int


class TransitGraph:
    """Stops, per-trip timetables for one service date, and footpaths."""

    def __init__(self, service_date: date, walk_speed: float,
                 max_transfer_distance: float, version: int = 1):
        self.serviceDate = service_date
        self.walkSpeed = walk_speed
        self.maxTransferDistance = max_transfer_distance
        self.version = version
        self.dayStart = _day_start_epoch(service_date)
        self.stops: dict[str, tuple] = {}  # stopId -> (lat, lon, name)
        self.tripStopTimes: dict[str, list[TripStopTime]] = {}
        self.tripRoute: dict[str, str] = {}
        self.departuresByStop: dict[str, list] = {}  # stopId -> [(dep, tripId, seq)]
        self.footpaths: dict[str, list] = {}  # stopId -> [(other, walkSeconds)]

    def trip_count(self) -> int:
        return len(self.tripStopTimes)

    def stop_position(self, stop_id: str) -> tuple:
        lat, lon, _ = self.stops[stop_id]
        return lat, lon


def _service_active(service, d: date) -> bool:
    stamp = _date_yyyymmdd(d)
    if not (service.startDate <= stamp <= service.endDate):
        return False
    return bool(service.weekdayFlags[d.weekday()])


def build_graph(feeds: list[GtfsFeed], walk_speed: float = 1.25,
                max_transfer_distance: float = 500.0,
                service_date: Optional[date] = None,
                version: int = 1) -> TransitGraph:
    """Union the feeds into a graph for one service date.

    Deterministic: the same feeds in any order produce a structurally equal
    graph. A date with no active service leaves the timetable empty (warned).
    """
    if walk_speed <= 0:
        raise ValueError("walk_speed must be positive")
    if service_date is None:
        service_date = date(2025, 6, 2)
    graph = TransitGraph(service_date, walk_speed, max_transfer_distance, version)

    for feed in feeds:
        for stop in feed.stops:
            graph.stops[stop.stopId] = (stop.lat, stop.lon, stop.name)
        active = {s.serviceId for s in feed.services if _service_active(s, service_date)}
        by_trip: dict[str, list] = {}
        for st in feed.stopTimes:
            by_trip.setdefault(st.tripId, []).append(st)
        for trip in feed.trips:
            if trip.serviceId not in active:
                continue
            sts = sorted(by_trip.get(trip.tripId, []), key=lambda st: st.stopSequence)
            if not sts:
                continue
            graph.tripRoute[trip.tripId] = trip.routeId
            graph.tripStopTimes[trip.tripId] = [
                TripStopTime(st.stopSequence, st.stopId,
                             graph.dayStart + st.arrival,
                             graph.dayStart + st.departure)
                for st in sts
            ]
    if not graph.tripStopTimes:
        logger.warning("no service active on %s; timetable is empty", service_date)

    for trip_id in sorted(graph.tripStopTimes):
        for tst in graph.tripStopTimes[trip_id]:
            graph.departuresByStop.setdefault(tst.stopId, []).append(
                (tst.departure, trip_id, tst.seq)
            )
    for events in graph.departuresByStop.values():
        events.sort()

    stop_ids = sorted(graph.stops)
    for i, a in enumerate(stop_ids):
        lat_a, lon_a, _ = graph.stops[a]
        for b in stop_ids[i + 1:]:
            lat_b, lon_b, _ = graph.stops[b]
            dist = haversine_m(lat_a, lon_a, lat_b, lon_b)
            if dist <= max_transfer_distance:
                secs = walk_seconds(dist, walk_speed)
                graph.footpaths.setdefault(a, []).append((b, secs))
                graph.footpaths.setdefault(b, []).append((a, secs))
    for paths in graph.footpaths.values():
        paths.sort()
    return graph


class Overlay:
    """Per-trip effective stop times derived from real-time updates."""

    def __init__(self):
        self.effective: dict[str, list[TripStopTime]] = {}
        self.unknownTrips: list[str] = []

    def trip_times(self, graph: TransitGraph, trip_id: str) -> list[TripStopTime]:
        return self.effective.get(trip_id) or graph.tripStopTimes[trip_id]


def apply_realtime(graph: TransitGraph, rt) -> Overlay:
    """Turn a real-time feed into an overlay; the graph itself is untouched.

    An update pins its stop's arrival (absolute override or signed delay);
    later stops of the trip shift by the same delta until another update
    takes over. Updates for unknown trips are collected, not fatal.
    """
    updates = rt.get("tripUpdates", []) if isinstance(rt, dict) else rt.tripUpdates
    overlay = Overlay()
    for tu in updates:
        trip_id = tu["tripId"] if isinstance(tu, dict) else tu.tripId
        stus = tu["stopTimeUpdates"] if isinstance(tu, dict) else tu.stopTimeUpdates
        static = graph.tripStopTimes.get(trip_id)
        if static is None:
            overlay.unknownTrips.append(trip_id)
            continue
        by_seq: dict[int, dict] = {}
        for stu in stus:
            doc = stu if isinstance(stu, dict) else stu.__dict__
            seq = doc.get("stopSequence")
            if seq is None:
                sid = doc.get("stopId")
                seq = next((t.seq for t in static if t.stopId == sid), None)
                if seq is None:
                    continue
            by_seq[seq] = doc  # last write wins per (trip, stop)
        delta = 0
        shifted = []
        for tst in static:
            doc = by_seq.get(tst.seq)
            if doc is not None:
                if doc.get("arrivalOverride") is not None:
                    delta = int(doc["arrivalOverride"]) - tst.arrival
                else:
                    delta = int(doc.get("delaySeconds") or 0)
            shifted.append(TripStopTime(tst.seq, tst.stopId,
                                        tst.arrival + delta, tst.departure + delta))
        overlay.effective[trip_id] = shifted
    return overlay


@dataclass
class Leg:
    mode: str  # walk | transit
    startTime: int
    endTime: int
    routeId: Optional[str] = None
    tripId: Optional[str] = None
    boardStopId: Optional[str] = None
    alightStopId: Optional[str] = None

    def to_doc(self) -> dict:
        doc = {"mode": self.mode, "startTime": self.startTime, "endTime": self.endTime}
        for key in ("routeId", "tripId", "boardStopId", "alightStopId"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc


@dataclass
class Itinerary:
    legs: list[Leg]
    transfers: int
    totalSeconds: int

    @property
    def arrival(self) -> int:
        return self.legs[-1].endTime if self.legs else 0

    def trip_ids(self) -> tuple:
        return tuple(leg.tripId for leg in self.legs if leg.tripId)

    def to_doc(self) -> dict:
        return {
            "legs": [leg.to_doc() for leg in self.legs],
            "transfers": self.transfers,
            "totalSeconds": self.totalSeconds,
        }


@dataclass
class ItineraryQuery:
    origin: Union[str, tuple]
    destination: Union[str, tuple]
    departAfter: int
    modes: frozenset = frozenset({"walk", "transit"})
    maxWalkMeters: float = 800.0
    maxItineraries: int = 3

    def __post_init__(self):
        self.modes = frozenset(self.modes)
        if not self.modes or not self.modes <= {"walk", "transit"}:
            raise ValueError(f"modes must be a non-empty subset of walk/transit: {self.modes}")
        if self.maxItineraries < 1:
            raise ValueError("maxItineraries must be positive")


@dataclass
class _Label:
    arrival: int
    boardings: int
    by_walk: bool
    stop: str
    parent: Optional["_Label"]
    move: Optional[tuple]  # ("walk", from, secs) | ("ride", tripId, routeId, board, dep, alight)


def _resolve_endpoint(graph: TransitGraph, point, max_walk: float, label: str):
    """Returns (stopId or None, [(stopId, walkSecs)]) for a query endpoint."""
    if isinstance(point, str):
        if point not in graph.stops:
            raise PlanError("origin-isolated", f"{label} stop {point!r} not in graph")
        return point, []
    lat, lon = point
    near = []
    for stop_id in sorted(graph.stops):
        s_lat, s_lon, _ = graph.stops[stop_id]
        dist = haversine_m(lat, lon, s_lat, s_lon)
        if dist <= max_walk:
            near.append((stop_id, walk_seconds(dist, graph.walkSpeed)))
    if not near:
        raise PlanError("origin-isolated", f"no stop within {max_walk} m of {label}")
    return None, near


def _search(graph: TransitGraph, overlay: Optional[Overlay], query: ItineraryQuery,
            banned: frozenset, max_transfers: Optional[int]) -> Optional[Itinerary]:
    """One label-setting pass; returns the best itinerary or None."""
    origin_stop, origin_access = _resolve_endpoint(
        graph, query.origin, query.maxWalkMeters, "origin")
    dest_stop, dest_egress = _resolve_endpoint(
        graph, query.destination, query.maxWalkMeters, "destination")
    egress_by_stop = dict(dest_egress)
    max_boardings = (max_transfers + 1) if max_transfers is not None else None

    counter = itertools.count()
    pq: list = []
    # Pareto frontiers: (stop, by_walk) -> list of (arrival, boardings)
    frontier: dict[tuple, list] = {}

    def dominated(stop, by_walk, arrival, boardings):
        return any(a <= arrival and b <= boardings
                   for a, b in frontier.get((stop, by_walk), ()))

    def push(label: _Label):
        if max_boardings is not None and label.boardings > max_boardings:
            return
        if dominated(label.stop, label.by_walk, label.arrival, label.boardings):
            return
        entry = frontier.setdefault((label.stop, label.by_walk), [])
        entry[:] = [(a, b) for a, b in entry
                    if not (label.arrival <= a and label.boardings <= b)]
        entry.append((label.arrival, label.boardings))
        heapq.heappush(pq, (label.arrival, label.boardings, next(counter), label))

    if origin_stop is not None:
        push(_Label(query.departAfter, 0, False, origin_stop, None, None))
    else:
        for stop_id, secs in origin_access:
            push(_Label(query.departAfter + secs, 0, True, stop_id, None,
                        ("walk", None, secs)))

    best: Optional[tuple] = None  # (arrival, boardings, label, egress_secs)

    def consider_destination(label: _Label):
        nonlocal best
        if dest_stop is not None:
            if label.stop != dest_stop:
                return
            arrival, egress = label.arrival, None
        else:
            if label.stop not in egress_by_stop or label.by_walk:
                return  # egress walk cannot follow another walk
            egress = egress_by_stop[label.stop]
            arrival = label.arrival + egress
        if best is None or (arrival, label.boardings) < (best[0], best[1]):
            best = (arrival, label.boardings, label, egress)

    transit_ok = "transit" in query.modes
    while pq:
        _, _, _, label = heapq.heappop(pq)
        if (label.arrival, label.boardings) not in frontier.get(
                (label.stop, label.by_walk), ()):
            continue  # superseded since it was queued
        consider_destination(label)
        if transit_ok:
            for dep, trip_id, seq in graph.departuresByStop.get(label.stop, ()):
                if trip_id in banned:
                    continue
                times = overlay.trip_times(graph, trip_id) if overlay \
                    else graph.tripStopTimes[trip_id]
                board = next((t for t in times if t.seq == seq), None)
                if board is None or board.departure < label.arrival:
                    continue
                for alight in times:
                    if alight.seq <= board.seq:
                        continue
                    if alight.arrival < board.departure:
                        continue  # overlay made this segment non-causal
                    push(_Label(alight.arrival, label.boardings + 1, False,
                                alight.stopId, label,
                                ("ride", trip_id, graph.tripRoute[trip_id],
                                 board.stopId, board.departure, alight.stopId)))
        if not label.by_walk:
            for other, secs in graph.footpaths.get(label.stop, ()):
                push(_Label(label.arrival + secs, label.boardings, True,
                            other, label, ("walk", label.stop, secs)))

    if best is None:
        return None
    arrival, _, label, egress = best
    legs: list[Leg] = []
    node = label
    while node is not None and node.move is not None:
        kind = node.move[0]
        if kind == "walk":
            _, from_stop, secs = node.move
            legs.append(Leg("walk", node.arrival - secs, node.arrival,
                            boardStopId=from_stop,
                            alightStopId=node.stop))
        else:
            _, trip_id, route_id, board_stop, dep, alight_stop = node.move
            legs.append(Leg("transit", dep, node.arrival, routeId=route_id,
                            tripId=trip_id, boardStopId=board_stop,
                            alightStopId=alight_stop))
        node = node.parent
    legs.reverse()
    if egress is not None:
        last_stop = label.stop
        legs.append(Leg("walk", label.arrival, label.arrival + egress,
                        boardStopId=last_stop))
    transfers = max(0, sum(1 for leg in legs if leg.mode == "transit") - 1)
    total = (legs[-1].endTime - query.departAfter) if legs else 0
    return Itinerary(legs=legs, transfers=transfers, totalSeconds=total)


def _direct_walk(graph: TransitGraph, query: ItineraryQuery) -> Optional[Itinerary]:
    """Single walk leg straight from origin to destination, when in range."""
    def position(point):
        if isinstance(point, str):
            if point not in graph.stops:
                return None
            return graph.stop_position(point)
        return point

    a, b = position(query.origin), position(query.destination)
    if a is None or b is None:
        return None
    dist = haversine_m(a[0], a[1], b[0], b[1])
    if dist > query.maxWalkMeters:
        return None
    secs = walk_seconds(dist, graph.walkSpeed)
    leg = Leg("walk", query.departAfter, query.departAfter + secs,
              boardStopId=query.origin if isinstance(query.origin, str) else None,
              alightStopId=query.destination if isinstance(query.destination, str) else None)
    return Itinerary(legs=[leg], transfers=0, totalSeconds=secs)


def _sort_key(itinerary: Itinerary):
    return (itinerary.arrival, itinerary.transfers, itinerary.totalSeconds,
            itinerary.trip_ids())


def plan(graph: TransitGraph, query: ItineraryQuery,
         overlay: Optional[Overlay] = None,
         max_transfers: Optional[int] = None) -> list[Itinerary]:
    """Up to maxItineraries itineraries, best arrival first.

    Identical origin and destination stops answer with a zero-leg itinerary.
    Raises unreachable when no journey exists under the query limits.
    """
    if isinstance(query.origin, str) and query.origin == query.destination:
        if query.origin not in graph.stops:
            raise PlanError("origin-isolated", f"stop {query.origin!r} not in graph")
        return [Itinerary(legs=[], transfers=0, totalSeconds=0)]

    candidates: list[Itinerary] = []
    if "walk" in query.modes:
        direct = _direct_walk(graph, query)
        if direct is not None:
            candidates.append(direct)
    if "transit" in query.modes:
        banned: set = set()
        for _ in range(query.maxItineraries):
            found = _search(graph, overlay, query, frozenset(banned), max_transfers)
            if found is None:
                break
            trips = found.trip_ids()
            if not trips:
                # all-walk result duplicates the direct candidate; banning
                # nothing would loop forever
                if not any(not c.trip_ids() for c in candidates):
                    candidates.append(found)
                break
            candidates.append(found)
            banned.update(trips)
    seen = set()
    unique = []
    for itin in sorted(candidates, key=_sort_key):
        key = tuple((leg.mode, leg.tripId, leg.startTime, leg.endTime) for leg in itin.legs)
        if key not in seen:
            seen.add(key)
            unique.append(itin)
    if not unique:
        raise PlanError("unreachable", "no itinerary satisfies the query")
    return unique[:query.maxItineraries]


class Router:
    """Mutable holder pairing one current graph with its build settings.

    ``load_feed`` swaps in a replacement graph atomically; queries running
    against the previous graph finish undisturbed. A reload clears any
    real-time overlay, since its trip references belong to the old feed.
    """

    def __init__(self, walk_speed: float = 1.25, max_transfer_distance: float = 500.0,
                 service_date: Optional[date] = None):
        self.walkSpeed = walk_speed
        self.maxTransferDistance = max_transfer_distance
        self.serviceDate = service_date
        self.graph: Optional[TransitGraph] = None
        self.overlay: Optional[Overlay] = None

    @property
    def version(self) -> int:
        return self.graph.version if self.graph else 0

    def load_feed(self, feed: GtfsFeed) -> int:
        graph = build_graph([feed], self.walkSpeed, self.maxTransferDistance,
                            self.serviceDate, version=self.version + 1)
        self.graph, self.overlay = graph, None
        return graph.version

    def load_zip_bytes(self, data: bytes) -> int:
        from citykit.gtfs import parse_feed
        return self.load_feed(parse_feed(data))

    def load_url(self, url: str) -> int:
        """Read a feed zip from a file:// or http(s):// URL and swap it in.
        FeedError if it does not parse, OSError or ValueError if unreadable."""
        if "://" not in url:
            url = file_url(url)
        with urlopen(url, timeout=30.0) as resp:
            data = resp.read()
        return self.load_zip_bytes(data)

    def set_realtime(self, rt) -> Overlay:
        if self.graph is None:
            raise PlanError("unreachable", "no graph loaded")
        self.overlay = apply_realtime(self.graph, rt)
        return self.overlay

    def plan(self, query: ItineraryQuery, max_transfers: Optional[int] = None):
        if self.graph is None:
            raise PlanError("unreachable", "no graph loaded")
        graph, overlay = self.graph, self.overlay  # one consistent pair
        return plan(graph, query, overlay, max_transfers)


class RouterServer(HttpService):
    """HTTP face of a Router.

    GET /plan?fromStop=&toStop=&departAfter=&maxWalk=&n=[&modes=] answers a
    JSON list of itineraries (404 when unreachable, 400 for bad queries);
    POST /graph/reload with {"url": ...} loads a feed zip and reports the new
    graph version, leaving the old graph in place when the load fails.
    """

    def __init__(self, router: Optional[Router] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.router = router or Router()
        self.server = JsonHttpServer(host=host, port=port)
        self.server.add_route("GET", r"/plan", self._plan)
        self.server.add_route("POST", r"/graph/reload", self._reload)
        self.server.add_route("GET", r"/version", self._version)

    def _plan(self, match, params, body):
        try:
            query = ItineraryQuery(
                origin=params["fromStop"],
                destination=params["toStop"],
                departAfter=int(params["departAfter"]),
                modes=frozenset((params.get("modes") or "walk,transit").split(",")),
                maxWalkMeters=float(params.get("maxWalk", 800.0)),
                maxItineraries=int(params.get("n", 3)),
            )
        except (KeyError, ValueError) as exc:
            return 400, {"error": "bad-query", "detail": str(exc)}
        try:
            itineraries = self.router.plan(query)
        except PlanError as exc:
            status = 404 if exc.kind == "unreachable" else 400
            return status, {"error": exc.kind, "detail": str(exc)}
        return 200, [itin.to_doc() for itin in itineraries]

    def _reload(self, match, params, body):
        url = body.get("url") if isinstance(body, dict) else body
        if not isinstance(url, str) or not url:
            return 400, {"error": "bad-request", "detail": "body needs a feed url"}
        try:
            version = self.router.load_url(url)
        except (FeedError, OSError) as exc:
            return 400, {"error": "reload-failed", "detail": str(exc)}
        return 200, {"version": version}

    def _version(self, match, params, body):
        return 200, {"version": self.router.version}


class RouterClient:
    """Reloads the graph of a RouterServer; a drop-in for ``Router.load_url``."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def load_url(self, url: str) -> int:
        """FeedError when the router rejects the feed, URLError when it is down."""
        try:
            _, payload = post_json(f"{self.base_url}/graph/reload", {"url": url})
        except HttpError as exc:
            raise FeedError("reload-failed", str(exc.payload)) from exc
        return payload["version"]
