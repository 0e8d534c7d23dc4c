"""Earliest-arrival journey planner over static feeds plus real-time overlays.

The graph is immutable once built: indexed stops, per-trip stop times for the
service date, and symmetric footpaths between stops at most
MAX_TRANSFER_METERS apart (walk time = ceil(haversine / WALK_SPEED)).
Real-time updates never mutate the graph; they become an overlay of per-trip
time shifts consulted at query time, so concurrent queries may keep using the
static view.

Search is round-based, after RAPTOR: round k finds, for each (stop,
arrived-by-walk) state, the earliest arrival with k boardings. It scans only
the states the previous round improved, rides each trip once per round, and
prunes on the best arrival found so far. Every trip belongs to one route
pattern: its stop sequence's trips if they are FIFO (causal, each strictly
ahead of the next at every stop in static order), else itself alone. From a
stop the search asks each pattern for its earliest catchable trip, since a
later one arrives everywhere later; a pattern an overlay breaks offers every
catchable trip. Two walk moves never follow each other: access, footpath,
and egress walks all count.
At equal arrival and boardings a state keeps the label whose parent arrived
first, the answer a label-setting search gives. Alternatives come from
re-running the search while banning the trips used by earlier answers.
"""

import logging
import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from typing import Optional, Union
from urllib.request import urlopen

from citykit import httpd
from citykit.gtfs import FeedError, GtfsFeed, file_url, utc_midnight
from citykit.httpd import HttpError, HttpService, JsonHttpServer
from citykit.ngsi import KindError

logger = logging.getLogger(__name__)

EARTH_RADIUS_M = 6371000.0
WALK_SPEED = 1.25  # m/s
MAX_TRANSFER_METERS = 500.0  # longest footpath between two stops


class PlanError(KindError):
    """Planning failures; ``kind`` is unreachable, origin-isolated or bad-query."""


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def walk_seconds(meters: float) -> int:
    return int(math.ceil(meters / WALK_SPEED))


@dataclass(frozen=True)
class TripStopTime:
    seq: int
    stopId: str
    arrival: int  # epoch seconds on the service date
    departure: int


class TransitGraph:
    """Stops, per-trip timetables for one service date, and footpaths."""

    def __init__(self, service_date: date):
        self.version = 1
        self.dayStart = utc_midnight(service_date)
        self.stops: dict[str, tuple] = {}  # stopId -> (lat, lon, name)
        self.tripStopTimes: dict[str, list[TripStopTime]] = {}
        self.tripRoute: dict[str, str] = {}
        self.footpaths: dict[str, list] = {}  # stopId -> [(other, walkSeconds)]
        self.patterns: list[list[str]] = []  # each pattern's tripIds in static order
        self.patternOf: dict[str, int] = {}  # tripId -> index of its pattern
        self.stopPatterns: dict[str, list] = {}  # stopId -> [(pattern, position, departures)]


def _causal(times: list) -> bool:
    """No stop time runs backwards: arrival <= departure <= next arrival."""
    return times[-1].arrival <= times[-1].departure and all(
        a.arrival <= a.departure <= b.arrival for a, b in zip(times, times[1:]))


def _precedes(first: list, second: list) -> bool:
    """``first`` arrives and departs strictly before ``second`` at every stop."""
    return all(a.arrival < b.arrival and a.departure < b.departure
               for a, b in zip(first, second))


def _service_active(service, d: date) -> bool:
    stamp = f"{d.year:04d}{d.month:02d}{d.day:02d}"
    return (service.startDate <= stamp <= service.endDate
            and bool(service.weekdayFlags[d.weekday()]))


def build_graph(feed: GtfsFeed, service_date: date) -> TransitGraph:
    """The feed's graph for one service date.

    A date with no active service leaves the timetable empty (warned).
    """
    graph = TransitGraph(service_date)

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
            TripStopTime(st.stopSequence, st.stopId, graph.dayStart + st.arrival,
                         graph.dayStart + st.departure) for st in sts]
    if not graph.tripStopTimes:
        logger.warning("no service active on %s; timetable is empty", service_date)

    by_stops: dict[tuple, list] = {}  # stop sequence -> its trips
    for trip_id in sorted(graph.tripStopTimes):
        by_stops.setdefault(tuple(tst.stopId for tst in graph.tripStopTimes[trip_id]),
                            []).append(trip_id)
    for sequence, trips in by_stops.items():
        trips.sort(key=lambda t: (graph.tripStopTimes[t][0].departure, t))
        timetables = [graph.tripStopTimes[t] for t in trips]
        fifo = all(map(_causal, timetables)) and all(map(_precedes, timetables, timetables[1:]))
        for group in [trips] if fifo else [[t] for t in trips]:  # else one pattern a trip
            pattern = len(graph.patterns)
            graph.patterns.append(group)
            graph.patternOf.update(dict.fromkeys(group, pattern))
            for pos, stop_id in enumerate(sequence):
                graph.stopPatterns.setdefault(stop_id, []).append(
                    (pattern, pos, [graph.tripStopTimes[t][pos].departure for t in group]))

    stop_ids = sorted(graph.stops)
    for i, a in enumerate(stop_ids):
        lat_a, lon_a, _ = graph.stops[a]
        for b in stop_ids[i + 1:]:
            lat_b, lon_b, _ = graph.stops[b]
            dist = haversine_m(lat_a, lon_a, lat_b, lon_b)
            if dist <= MAX_TRANSFER_METERS:
                secs = walk_seconds(dist)
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
        self.shift: tuple = (0, 0)  # (earliest, latest) change to any stop time, seconds
        self.broken: set = set()  # patterns whose trips the updates leave out of FIFO order


def apply_realtime(graph: TransitGraph, rt: dict) -> Overlay:
    """Turn a ``gtfs_realtime`` feed document into an overlay; the graph is untouched.

    An update pins its stop's arrival (absolute override or signed delay);
    later stops of the trip shift by the same delta until another update
    takes over. Updates for unknown trips are collected, not fatal. A pattern
    is broken when an updated trip is no longer causal or no longer strictly
    between its neighbours in static order, the order the search scans.
    """
    overlay = Overlay()
    for tu in rt.get("tripUpdates", []):
        trip_id = tu["tripId"]
        static = graph.tripStopTimes.get(trip_id)
        if static is None:
            overlay.unknownTrips.append(trip_id)
            continue
        by_seq: dict[int, dict] = {}
        for stu in tu["stopTimeUpdates"]:
            seq = stu.get("stopSequence")
            if seq is None:
                sid = stu.get("stopId")
                seq = next((t.seq for t in static if t.stopId == sid), None)
                if seq is None:
                    continue
            by_seq[seq] = stu  # last write wins per (trip, stop)
        delta = 0
        shifted = []
        for tst in static:
            stu = by_seq.get(tst.seq)
            if stu is not None:
                if stu.get("arrivalOverride") is not None:
                    delta = int(stu["arrivalOverride"]) - tst.arrival
                else:
                    delta = int(stu.get("delaySeconds") or 0)
                early, late = overlay.shift
                overlay.shift = (min(early, delta), max(late, delta))
            shifted.append(TripStopTime(tst.seq, tst.stopId,
                                        tst.arrival + delta, tst.departure + delta))
        overlay.effective[trip_id] = shifted
    for trip_id, times in overlay.effective.items():
        pattern = graph.patternOf[trip_id]
        trips = graph.patterns[pattern]
        if len(trips) == 1 or pattern in overlay.broken:
            continue  # a trip alone in its pattern has no order to keep
        i = trips.index(trip_id)
        near = [overlay.effective.get(t) or graph.tripStopTimes[t]
                for t in trips[max(i - 1, 0):i + 2]]
        if not (_causal(times) and all(map(_precedes, near, near[1:]))):
            overlay.broken.add(pattern)
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
        return {key: value for key, value in vars(self).items() if value is not None}


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
        return {"legs": [leg.to_doc() for leg in self.legs], "transfers": self.transfers,
                "totalSeconds": self.totalSeconds}


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
        if not self.maxWalkMeters >= 0:  # also false for NaN, which no distance compares to
            raise ValueError(f"maxWalkMeters must be >= 0, got {self.maxWalkMeters}")


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
            near.append((stop_id, walk_seconds(dist)))
    if not near:
        raise PlanError("origin-isolated", f"no stop within {max_walk} m of {label}")
    return None, near


def _search(graph: TransitGraph, overlay: Optional[Overlay], depart: int,
            origin: tuple, destination: tuple, banned: frozenset,
            max_transfers: Optional[int]) -> Optional[Itinerary]:
    """One round-based pass; returns the best itinerary or None.

    A label is (arrival, boardings, parent, scan, (stop, by_walk), move), and
    labels compare as tuples in the order a label-setting search settles them.
    ``scan`` orders one parent's moves: (static departure, tripId, board and
    alight positions) for a ride, the target stop for a walk. ``move`` is
    (mode, start, tripId, from stop) of the leg that ends at the label.
    """
    (origin_stop, access), (dest_stop, egress) = origin, destination
    effective, (early, late), broken = ((overlay.effective, overlay.shift, overlay.broken)
                                        if overlay else ({}, (0, 0), ()))
    best: dict = {}  # (stop, by_walk) -> earliest-arriving label so far
    answer = None    # (arrival, boardings, label, egress secs or None)
    ends = ([((dest_stop, False), None), ((dest_stop, True), None)] if dest_stop is not None
            else [((stop, False), secs) for stop, secs in egress])  # no walk after a walk

    def bound(k):  # labels of round k arriving at or after this cannot win
        return math.inf if answer is None else answer[0] + (answer[1] == k)

    def settle(improved, k):
        nonlocal answer
        for state, secs in ends:
            lab = improved.get(state)
            if lab and (answer is None or (lab[0] + (secs or 0), k, lab) < answer[:3]):
                answer = (lab[0] + (secs or 0), k, lab, secs)

    def offer(improved, state, arrival, k, parent, scan, move):
        cur = best.get(state)
        if cur is None or arrival < cur[0] or (
                arrival == cur[0] and cur[1] == k and (parent, scan) < cur[2:4]):
            best[state] = improved[state] = (arrival, k, parent, scan, state, move)

    def walk(marked, k):
        walked: dict = {}
        limit = bound(k)
        for label in marked.values():
            stop, by_walk = label[4]
            for other, secs in () if by_walk else graph.footpaths.get(stop, ()):
                if label[0] + secs < limit:
                    offer(walked, (other, True), label[0] + secs, k, label, other,
                          ("walk", label[0], None, stop))
        return walked

    def ride(marked, k):
        limit = bound(k)
        boardings: dict = {}  # tripId -> {position: [(departure, parent, static dep)]}
        for label in marked.values():
            arrival = label[0]
            for pattern, pos, column in graph.stopPatterns.get(label[4][0], ()):
                trips = graph.patterns[pattern]
                # the trips the overlay's shift can move into [arrival, limit)
                for i in range(bisect_left(column, arrival - late),
                               bisect_left(column, limit - early)):
                    trip_id = trips[i]
                    times = effective.get(trip_id)
                    d = times[pos].departure if times else column[i]
                    if trip_id in banned or not arrival <= d < limit:
                        continue  # banned, missed or too late
                    boardings.setdefault(trip_id, {}).setdefault(pos, []).append(
                        (d, label, column[i]))
                    if pattern not in broken:
                        break  # later trips arrive later: this one dominates them
        rode: dict = {}
        for trip_id, group in boardings.items():
            times = effective.get(trip_id) or graph.tripStopTimes[trip_id]
            # Boardings so far, less those another outranks while departing no
            # later. A stop is credited to the best one departing by its arrival.
            active: list = []  # [((parent, static dep, position), departure, board stop)]
            for m in range(min(group), len(times)):
                tst = times[m]
                pick = None
                for e in active:
                    if e[1] <= tst.arrival and (pick is None or e[0] < pick[0]):
                        pick = e
                if pick and tst.arrival < limit:
                    (parent, dep, pos), d, board = pick
                    offer(rode, (tst.stopId, False), tst.arrival, k, parent,
                          (dep, trip_id, pos, m), ("transit", d, trip_id, board))
                for d, parent, dep in group.get(m, ()):
                    rank = (parent, dep, m)
                    if not any(e[1] <= d and e[0] < rank for e in active):
                        active = [e for e in active if not (e[1] >= d and e[0] > rank)]
                        active.append((rank, d, tst.stopId))
        return rode

    starts = ([((origin_stop, False), depart, None)] if origin_stop is not None else
              [((stop, True), depart + secs, ("walk", depart, None, None))
               for stop, secs in access])
    marked = {state: (t, 0, (), i, state, move) for i, (state, t, move) in enumerate(starts)}
    best.update(marked)
    settle(marked, 0)
    max_boardings = math.inf if max_transfers is None else max_transfers + 1
    k = 0
    while marked:
        walked = walk(marked, k)
        settle(walked, k)
        marked.update(walked)
        k += 1
        marked = ride(marked, k) if k <= max_boardings else {}
        settle(marked, k)

    if answer is None:
        return None
    _, _, node, egress = answer
    legs: list[Leg] = []
    while node and node[5]:
        mode, start, trip_id, from_stop = node[5]
        legs.append(Leg(mode, start, node[0], graph.tripRoute.get(trip_id), trip_id,
                        from_stop, node[4][0]))
        node = node[2]
    legs.reverse()
    if egress is not None:
        end = answer[2]
        legs.append(Leg("walk", end[0], end[0] + egress, boardStopId=end[4][0]))
    transfers = max(0, sum(1 for leg in legs if leg.mode == "transit") - 1)
    total = (legs[-1].endTime - depart) if legs else 0
    return Itinerary(legs=legs, transfers=transfers, totalSeconds=total)


def _direct_walk(graph: TransitGraph, query: ItineraryQuery) -> Optional[Itinerary]:
    """Single walk leg straight from origin to destination, when in range."""
    def position(point):
        if isinstance(point, str):
            return graph.stops[point][:2] if point in graph.stops else None
        return point

    a, b = position(query.origin), position(query.destination)
    if a is None or b is None or (dist := haversine_m(*a, *b)) > query.maxWalkMeters:
        return None
    secs = walk_seconds(dist)
    leg = Leg("walk", query.departAfter, query.departAfter + secs,
              boardStopId=query.origin if isinstance(query.origin, str) else None,
              alightStopId=query.destination if isinstance(query.destination, str) else None)
    return Itinerary(legs=[leg], transfers=0, totalSeconds=secs)


def plan(graph: TransitGraph, query: ItineraryQuery, overlay: Optional[Overlay] = None,
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
        origin = _resolve_endpoint(graph, query.origin, query.maxWalkMeters, "origin")
        destination = _resolve_endpoint(graph, query.destination, query.maxWalkMeters,
                                        "destination")
        banned: set = set()
        for _ in range(query.maxItineraries):
            found = _search(graph, overlay, query.departAfter, origin, destination,
                            frozenset(banned), max_transfers)
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
    unique: dict = {}  # first of each leg sequence, best first
    for itin in sorted(candidates, key=lambda i: (i.arrival, i.transfers, i.totalSeconds,
                                                  i.trip_ids())):
        unique.setdefault(tuple((leg.mode, leg.tripId, leg.startTime, leg.endTime)
                                for leg in itin.legs), itin)
    if not unique:
        raise PlanError("unreachable", "no itinerary satisfies the query")
    return list(unique.values())[:query.maxItineraries]


class Router:
    """Holds the service date and one (graph, overlay) snapshot, replaced whole.

    A query always sees an overlay built on its own graph. ``load_feed``
    installs a new graph with no overlay, since the old overlay's trips belong
    to the old feed; queries on the previous snapshot finish undisturbed.
    """

    def __init__(self, service_date: date):
        self.serviceDate = service_date
        self._snapshot: tuple = (None, None)  # (graph, overlay built on that graph)
        self._swap = threading.Lock()

    @property
    def graph(self) -> Optional[TransitGraph]:
        return self._snapshot[0]

    @property
    def version(self) -> int:
        return self.graph.version if self.graph else 0

    def load_feed(self, feed: GtfsFeed) -> int:
        graph = build_graph(feed, self.serviceDate)
        with self._swap:
            graph.version = self.version + 1  # numbered in the order of the swaps
            self._snapshot = (graph, None)
        return graph.version

    def load_zip_bytes(self, data: bytes) -> int:
        from citykit.gtfs import parse_feed
        return self.load_feed(parse_feed(data))

    def load_url(self, url: str) -> int:
        """Read a feed zip from a file:// or http(s):// URL and swap it in.
        FeedError if it does not parse, OSError or ValueError if unreadable."""
        with urlopen(file_url(url), timeout=30.0) as resp:
            data = resp.read()
        return self.load_zip_bytes(data)

    def set_realtime(self, rt: dict) -> Overlay:
        """Overlay the current graph. If a reload lands meanwhile, the update
        is applied again, to the new graph."""
        while True:
            graph = self.graph
            if graph is None:
                raise PlanError("unreachable", "no graph loaded")
            overlay = apply_realtime(graph, rt)
            with self._swap:
                if self.graph is graph:
                    self._snapshot = (graph, overlay)
                    return overlay

    def plan(self, query: ItineraryQuery):
        graph, overlay = self._snapshot
        if graph is None:
            raise PlanError("unreachable", "no graph loaded")
        return plan(graph, query, overlay)


class RouterServer(HttpService):
    """HTTP face of a Router.

    GET /plan?fromStop=&toStop=&departAfter=&maxWalk=&n=[&modes=] answers a
    JSON list of itineraries (404 when unreachable, 400 for bad queries);
    POST /graph/reload with {"url": ...} loads a feed zip and reports the new
    graph version, leaving the old graph in place when the load fails: 502
    when the archive cannot be fetched, 400 when it does not parse.
    """

    def __init__(self, router: Router, host: str = "127.0.0.1", port: int = 0):
        self.router = router
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
            raise PlanError("bad-query", str(exc)) from exc
        return 200, [itin.to_doc() for itin in self.router.plan(query)]

    def _reload(self, match, params, body):
        url = body.get("url") if isinstance(body, dict) else None
        if not isinstance(url, str) or not url:
            raise KindError("bad-request", "body needs a feed url")
        try:
            version = self.router.load_url(url)
        except FeedError as exc:
            raise KindError("reload-failed", str(exc)) from exc
        except (OSError, ValueError) as exc:  # the router could not read the archive
            raise KindError("fetch-failed", str(exc)) from exc
        return 200, {"version": version}

    def _version(self, match, params, body):
        return 200, {"version": self.router.version}


class RouterClient:
    """Reloads the graph of a RouterServer; a drop-in for ``Router.load_url``."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def load_url(self, url: str) -> int:
        """FeedError if the router rejects the feed or answers without a version;
        OSError if it cannot fetch the feed or is down."""
        try:
            _, payload = httpd.request_json("POST", f"{self.base_url}/graph/reload", {"url": url})
        except HttpError as exc:
            if exc.status == 502:
                raise OSError(f"router could not fetch {url}: {exc.payload}") from exc
            raise FeedError("reload-failed", str(exc.payload)) from exc
        version = payload.get("version") if isinstance(payload, dict) else None
        if type(version) is not int:
            raise FeedError("reload-failed", f"router answered without a version: {payload!r}")
        return version
