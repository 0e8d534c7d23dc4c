"""Real-time feed generation from arrival estimations, and its HTTP server.

The real-time feed is one plain JSON document (no protobuf, no classes)::

    {"headerTimestamp": now,
     "tripUpdates": [{"tripId": ...,
                      "stopTimeUpdates": [{"stopId": ..., "stopSequence": ...,
                                           "arrivalOverride": epochSeconds}]}]}

Trip updates are sorted by tripId and stop-time updates by stopSequence. The
same document is what ``/gtfs-rt`` serves and what ``routing.apply_realtime``
reads. One update per (trip, stop); when several estimations land on the
same pair, the last one in commit order wins.

Trip resolution works from the static timetable: the referenced line names a
route, and the chosen trip is that route's next call at the referenced stop
strictly after ``now`` (today, else the same timetable one day later), ties
broken by smallest tripId, then smallest stopSequence.
"""

import logging
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Optional

from citykit.clock import Clock, SystemClock
from citykit.gtfs import GtfsFeed
from citykit.httpd import HttpService, JsonHttpServer
from citykit.ngsi import KindError, NgsiEntity, is_number

logger = logging.getLogger(__name__)

DAY_SECONDS = 86400


class TripResolver:
    """Maps (line, stop, now) to the next matching trip in a static feed."""

    def __init__(self, feed: GtfsFeed, day_start: int):
        self.day_start = day_start
        self._calls: dict[tuple, list] = {}  # (routeId, stopId) -> [(arrivalSec, tripId, seq)]
        route_of = {t.tripId: t.routeId for t in feed.trips}
        for st in feed.stopTimes:
            route_id = route_of.get(st.tripId)
            if route_id is None:
                continue
            self._calls.setdefault((route_id, st.stopId), []).append(
                (st.arrival, st.tripId, st.stopSequence))
        for calls in self._calls.values():
            calls.sort()

    def resolve(self, ref_line: str, ref_stop: str, now: float):
        """Returns (tripId, stopId, stopSequence, scheduledArrivalEpoch) or None."""
        calls = self._calls.get((ref_line, ref_stop), ())
        for offset in (0, DAY_SECONDS):
            i = bisect_right(calls, now - self.day_start - offset, key=itemgetter(0))
            if i < len(calls):
                arrival_sec, trip_id, seq = calls[i]
                return trip_id, ref_stop, seq, self.day_start + arrival_sec + offset
        return None


@dataclass
class RtBuildResult:
    feed: dict
    unresolved: list = field(default_factory=list)  # {entityId, reason}


def arrival_estimations_to_gtfsrt(entities: Iterable[NgsiEntity], now: int,
                                  resolver: TripResolver) -> RtBuildResult:
    """One stop-time update per estimation: arrival = now + remainingTime.

    Entities that cannot be resolved to a trip (unknown line, no upcoming
    call at the stop, missing attributes) are reported, never dropped
    silently. Later entities override earlier ones on the same (trip, stop).
    """
    overrides: dict[tuple, int] = {}
    unresolved = []
    for entity in entities:
        ref_stop = entity.value("refStop")
        ref_line = entity.value("refLine")
        remaining = entity.value("remainingTime")
        if not isinstance(ref_stop, str) or not isinstance(ref_line, str):
            unresolved.append({"entityId": entity.id,
                               "reason": "missing refStop/refLine"})
            continue
        if not is_number(remaining) or remaining < 0:
            unresolved.append({"entityId": entity.id,
                               "reason": f"bad remainingTime {remaining!r}"})
            continue
        hit = resolver.resolve(ref_line, ref_stop, now)
        if hit is None:
            unresolved.append({"entityId": entity.id,
                               "reason": f"no upcoming trip of line {ref_line!r} "
                                         f"at stop {ref_stop!r}"})
            continue
        trip_id, stop_id, seq, _ = hit
        overrides[(trip_id, stop_id, seq)] = int(now + remaining)

    by_trip: dict[str, list] = {}
    for (trip_id, stop_id, seq), arrival in sorted(overrides.items()):
        by_trip.setdefault(trip_id, []).append(
            {"stopId": stop_id, "stopSequence": seq, "arrivalOverride": arrival})
    feed = {"headerTimestamp": int(now), "tripUpdates": [
        {"tripId": trip_id, "stopTimeUpdates": sorted(updates, key=itemgetter("stopSequence"))}
        for trip_id, updates in by_trip.items()]}
    return RtBuildResult(feed=feed, unresolved=unresolved)


class RtLoader:
    """Keeps a current real-time feed built from the latest estimations.

    ``get_entities`` pulls the present ArrivalEstimation set (usually a
    broker query); ``refresh`` rebuilds the snapshot from it. Readers always
    see a complete feed document, and the header timestamp never moves
    backwards. The document is shared with readers, who must not modify it.
    """

    def __init__(self, get_entities: Callable[[], list], resolver: TripResolver,
                 clock: Optional[Clock] = None):
        self.get_entities = get_entities
        self.resolver = resolver
        self.clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._current: Optional[dict] = None
        self.unresolved: list = []
        self.refresh_count = 0

    def attach(self, broker) -> str:
        """Subscribe in-process so every estimation commit triggers a refresh."""
        from citykit.broker import Subscription
        return broker.subscribe(Subscription(
            id="",
            entityTypeFilter="ArrivalEstimation",
            target=lambda doc: self.refresh(),
        ))

    def refresh(self) -> dict:
        entities = self.get_entities()
        with self._lock:
            now = int(self.clock.now())
            if self._current is not None:
                now = max(now, self._current["headerTimestamp"])
            result = arrival_estimations_to_gtfsrt(entities, now, self.resolver)
            self._current = result.feed
            self.unresolved = result.unresolved
            self.refresh_count += 1
            return self._current

    def current(self) -> Optional[dict]:
        return self._current


class RtServer(HttpService):
    """HTTP face of an RtLoader.

    GET /gtfs-rt answers the current feed document, or 503 until
    the first refresh has built one. POST /notify accepts a notification
    document and triggers a refresh (used when the broker is remote).
    GET /status reports refresh count and unresolved estimations.
    """

    def __init__(self, loader: RtLoader, host: str = "127.0.0.1", port: int = 0):
        self.loader = loader
        self.server = JsonHttpServer(host=host, port=port)
        self.server.add_route("GET", r"/gtfs-rt", self._feed)
        self.server.add_route("POST", r"/notify", self._notify)
        self.server.add_route("GET", r"/status", self._status)

    def _feed(self, match, params, body):
        feed = self.loader.current()
        if feed is None:
            raise KindError("no-feed", "no estimations received yet")
        return 200, feed

    def _notify(self, match, params, body):
        self.loader.refresh()
        return 200, {"refreshed": True}

    def _status(self, match, params, body):
        feed = self.loader.current()
        return 200, {
            "refreshCount": self.loader.refresh_count,
            "unresolved": self.loader.unresolved,
            "headerTimestamp": feed["headerTimestamp"] if feed else None,
        }
