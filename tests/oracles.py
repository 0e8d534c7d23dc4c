"""Independent reference implementations the tests check the package against.

Everything here recomputes expected answers from first principles and shares
no search, index, or solver code with the package: the journey enumerator is
a round-based dynamic program instead of a priority queue, the store filter
is a plain linear scan, and the regression check plugs coefficients back into
normal equations assembled from scratch. Slow and simple on purpose.

The random generators at the bottom build reproducible inputs (entities,
stores, networks, queries) from the package's own Lcg64 so every test case
is pinned by a single integer seed.
"""

import json
import math
from datetime import date

import numpy as np

from citykit.feedgen import Lcg64
from citykit.gtfs import Agency, GtfsFeed, Route, Service, Stop, StopTime, Trip
from citykit.ngsi import Attribute, NgsiEntity

EARTH_RADIUS_M = 6371000.0
WALK_SPEED = 1.25  # m/s, a rider's walking pace


# -- journey enumeration -----------------------------------------------------

def _haversine(lat1, lon1, lat2, lon2):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


def min_arrival(graph, query, overlay=None, max_transfers=None,
                banned=frozenset()):
    """Earliest reachable arrival for the query, or None when unreachable.

    Dynamic program over boarding rounds on states (stop, arrived-by-walk):
    each round expands every possible ride exhaustively, trying every call of
    every trip in ``graph.tripStopTimes`` as a boarding (no index of the
    search's), then relaxes every footpath once (walks never chain, so one
    relaxation per round is the whole closure). Access and egress walks are
    bounded by the query's walk budget; network footpaths come from the graph
    itself. A direct origin-to-destination walk is scored as its own
    candidate.
    """
    INF = float("inf")

    def walk_secs(meters):
        return int(math.ceil(meters / WALK_SPEED))

    def stops_within(point, limit):
        lat, lon = point
        out = []
        for stop_id, (s_lat, s_lon, _) in graph.stops.items():
            dist = _haversine(lat, lon, s_lat, s_lon)
            if dist <= limit:
                out.append((stop_id, walk_secs(dist)))
        return out

    candidates = []

    if "transit" in query.modes:
        best = {}  # (stop, by_walk) -> earliest arrival so far

        def improve(table, state, t):
            if t < table.get(state, INF):
                table[state] = t
                return True
            return False

        def relax_footpaths(table):
            for (stop, by_walk), t in list(table.items()):
                if by_walk:
                    continue  # a walk never follows a walk
                for other, secs in graph.footpaths.get(stop, ()):
                    improve(table, (other, True), t + secs)

        if isinstance(query.origin, str):
            if query.origin in graph.stops:
                improve(best, (query.origin, False), query.departAfter)
        else:
            for stop_id, secs in stops_within(query.origin, query.maxWalkMeters):
                improve(best, (stop_id, True), query.departAfter + secs)
        relax_footpaths(best)

        if max_transfers is not None:
            rounds = max_transfers + 1
        else:
            rounds = 2 * len(graph.stops) + 2  # safe fixpoint bound
        for _ in range(rounds):
            nxt = dict(best)
            changed = False
            for trip_id, static in graph.tripStopTimes.items():
                if trip_id in banned:
                    continue
                times = (overlay.effective.get(trip_id) if overlay else None) or static
                for i, board in enumerate(times):  # every call, a loop's repeated stop too
                    t = min(best.get((board.stopId, False), INF),
                            best.get((board.stopId, True), INF))
                    if board.departure < t:
                        continue
                    for alight in times[i + 1:]:
                        if alight.arrival < board.departure:
                            continue  # update made the segment non-causal
                        if improve(nxt, (alight.stopId, False), alight.arrival):
                            changed = True
            relax_footpaths(nxt)
            best = nxt
            if not changed:
                break

        if isinstance(query.destination, str):
            for by_walk in (False, True):
                t = best.get((query.destination, by_walk))
                if t is not None:
                    candidates.append(t)
        else:
            for stop_id, secs in stops_within(query.destination, query.maxWalkMeters):
                t = best.get((stop_id, False))  # egress walk needs a non-walk state
                if t is not None:
                    candidates.append(t + secs)

    if "walk" in query.modes:
        def position(point):
            if isinstance(point, str):
                if point not in graph.stops:
                    return None
                lat, lon, _ = graph.stops[point]
                return lat, lon
            return point

        a, b = position(query.origin), position(query.destination)
        if a is not None and b is not None:
            dist = _haversine(a[0], a[1], b[0], b[1])
            if dist <= query.maxWalkMeters:
                candidates.append(query.departAfter + walk_secs(dist))

    return min(candidates) if candidates else None


# -- store filtering ---------------------------------------------------------

class OrderingMismatch(Exception):
    """A filter clause tried to order values of incompatible kinds."""


def _plain_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _filter_eq(value, literal):
    if isinstance(value, bool) != isinstance(literal, bool):
        return False  # a bool equals only a bool, never the number 0 or 1
    if value == literal and isinstance(value, type(literal)):
        return True
    return _plain_number(value) and _plain_number(literal) and value == literal


def _clause_holds(value, op, literal):
    if op == "==":
        return _filter_eq(value, literal)
    if op == "!=":
        return not _filter_eq(value, literal)
    ordered = ((_plain_number(value) and _plain_number(literal))
               or (isinstance(value, str) and isinstance(literal, str)))
    if not ordered:
        raise OrderingMismatch(f"{value!r} {op} {literal!r}")
    if op == "<":
        return value < literal
    if op == "<=":
        return value <= literal
    if op == ">":
        return value > literal
    return value >= literal


def scan_query(entities, typeFilter=None, idPattern=None, attrFilter=None):
    """Linear-scan filter over a list of entities; result sorted by id.

    Mirrors the store contract: every filter must hold (clauses in order, a
    missing attribute fails the entity before later clauses run), id
    patterns match anywhere in the id, and ordering comparisons between a
    number and anything that is not a plain number raise.
    """
    import re
    rx = re.compile(idPattern) if idPattern is not None else None
    out = []
    for entity in sorted(entities, key=lambda e: e.id):
        if typeFilter is not None and entity.entityType != typeFilter:
            continue
        if rx is not None and not rx.search(entity.id):
            continue
        keep = True
        for name, op, literal in attrFilter or ():
            attr = entity.attributes.get(name)
            if attr is None:
                keep = False
                break
            if not _clause_holds(attr.value, op, literal):
                keep = False
                break
        if keep:
            out.append(entity)
    return out


# -- regression check --------------------------------------------------------

def ridge_residual(values, lags, lam, beta):
    """Relative residual of beta in the normal equations for the series.

    Assembles the lagged design matrix (leading intercept column, newest lag
    first) and the ridge system from scratch, then reports
    ||(AtA + lam*I) beta - At y|| / ||At y||.
    """
    n = len(values)
    rows = n - lags
    a = np.empty((rows, lags + 1), dtype=float)
    y = np.empty(rows, dtype=float)
    for i in range(rows):
        a[i, 0] = 1.0
        for j in range(lags):
            a[i, 1 + j] = values[lags + i - 1 - j]
        y[i] = values[lags + i]
    beta = np.asarray(beta, dtype=float)
    ata = a.T @ a + lam * np.eye(lags + 1)
    aty = a.T @ y
    return float(np.linalg.norm(ata @ beta - aty) / np.linalg.norm(aty))


# -- linked-data value recovery ----------------------------------------------

def extract_ld_values(doc):
    """Recover (attribute, value) pairs from a linked-data wire document.

    Relationships give back the referenced id: the type-derived prefix is
    stripped when present, other URN objects are kept verbatim.
    """
    pairs = []
    for name, member in doc.items():
        if name in ("id", "type", "@context"):
            continue
        if member.get("type") == "Relationship":
            target = member["object"]
            prefix = f"urn:ngsi-ld:{name[3:] or 'Entity'}:"
            value = target[len(prefix):] if target.startswith(prefix) else target
        else:
            value = member["value"]
        pairs.append((name, value))
    return pairs


def value_multiset(pairs):
    """Order-free canonical form of (name, value) pairs for comparison."""
    return sorted((name, json.dumps(value, sort_keys=True)) for name, value in pairs)


# -- random input generators -------------------------------------------------

_ENTITY_TYPES = ("ParkingSite", "Sensor", "Depot", "Kiosk")
_ID_PREFIXES = ("north", "south", "east", "west")
_ATTR_NAMES = ("level", "capacity", "label", "open", "zone", "score")
_REF_SUFFIXES = ("Stop", "Route", "Agency", "ParentZone")
_TEXT_POOL = ("amber", "Barrio", "c/12", "delta", "", "true", "3")


def _scalar(rng: Lcg64):
    """A random attribute (value, valueType) across the JSON scalar kinds."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.randrange(200) - 50, "Number"
    if kind == 1:
        return round(rng.random() * 100 - 20, 3), "Number"
    if kind == 2:
        return rng.choice(_TEXT_POOL), "Text"
    if kind == 3:
        return rng.random() < 0.5, "Boolean"
    if kind == 4:
        return {"rows": rng.randrange(4), "tags": [rng.choice(_TEXT_POOL)]}, "StructuredValue"
    return f"2025-06-{1 + rng.randrange(28):02d}T{rng.randrange(24):02d}:00:00Z", "DateTime"


def random_entity(rng: Lcg64, index: int) -> NgsiEntity:
    """A random valid entity with a plain (non-URN) id and mixed attributes."""
    etype = rng.choice(_ENTITY_TYPES)
    eid = f"{rng.choice(_ID_PREFIXES)}-{etype.lower()}-{index:04d}"
    attrs = {}
    for name in _ATTR_NAMES:
        if rng.random() < 0.6:
            value, vtype = _scalar(rng)
            metadata = {}
            if rng.random() < 0.3:
                metadata["accuracy"] = round(rng.random(), 2)
            attrs[name] = Attribute(value, vtype, metadata)
    if rng.random() < 0.6:
        name = "ref" + rng.choice(_REF_SUFFIXES)
        if rng.random() < 0.25:
            target = f"urn:custom:{rng.randrange(1000)}"  # kept verbatim downstream
        else:
            target = f"tgt-{rng.randrange(1000)}"
        attrs[name] = Attribute(target, "Reference")
    if not attrs:
        attrs["level"] = Attribute(rng.randrange(100), "Number")
    return NgsiEntity(id=eid, entityType=etype, attributes=attrs)


def random_store(rng: Lcg64, size: int) -> list:
    return [random_entity(rng, i) for i in range(size)]


_ID_PATTERNS = ("north", "-000[0-9]$", "^south", "kiosk", "[13579]$")
_OPS = ("==", "!=", "<", "<=", ">", ">=")


def random_filters(rng: Lcg64):
    """A random (typeFilter, idPattern, attrFilter) triple.

    Literal kinds deliberately cross value kinds so that ordering clauses
    sometimes hit incompatible pairs; equality clauses exercise the
    numeric/boolean edge cases.
    """
    type_filter = rng.choice(_ENTITY_TYPES) if rng.random() < 0.5 else None
    id_pattern = rng.choice(_ID_PATTERNS) if rng.random() < 0.4 else None
    clauses = []
    for _ in range(rng.randrange(3)):
        name = rng.choice(_ATTR_NAMES)
        op = rng.choice(_OPS)
        kind = rng.randrange(4)
        if kind == 0:
            literal = rng.randrange(200) - 50
        elif kind == 1:
            literal = round(rng.random() * 100 - 20, 3)
        elif kind == 2:
            literal = rng.choice(_TEXT_POOL)
        else:
            literal = rng.random() < 0.5
        clauses.append((name, op, literal))
    return type_filter, id_pattern, clauses


def random_network(rng: Lcg64) -> GtfsFeed:
    """A small random feed: up to 10 stops, up to 5 routes, varied geometry.

    Stop spacing is drawn from a ~2 km box so some pairs fall inside the
    transfer radius and some do not. All services are active every day of
    2025-2026, so the graph for any 2025 weekday carries every trip.
    """
    n_stops = 2 + rng.randrange(9)
    n_routes = 1 + rng.randrange(5)
    stops = [
        Stop(stopId=f"S{i + 1}", name=f"Stop {i + 1}",
             lat=40.0 + rng.random() * 0.018,
             lon=-3.0 + rng.random() * 0.018)
        for i in range(n_stops)
    ]
    agency = Agency(agencyId="A1", name="Oracle Transit",
                    url="https://transit.example", timezone="UTC")
    service = Service(serviceId="ALL", weekdayFlags=(1,) * 7,
                      startDate="20250101", endDate="20261231")
    routes, trips, stop_times = [], [], []
    for r in range(n_routes):
        route_id = f"R{r + 1}"
        routes.append(Route(routeId=route_id, agencyId="A1",
                            shortName=str(r + 1), routeType=3))
        length = 2 + rng.randrange(min(n_stops, 5) - 1) if n_stops > 2 else 2
        pattern = []
        pool = list(range(n_stops))
        for _ in range(length):
            pick = pool.pop(rng.randrange(len(pool))) if pool else rng.randrange(n_stops)
            pattern.append(pick)
        if rng.random() < 0.1 and len(pattern) >= 2:
            pattern.append(pattern[0])  # loop back to the first stop
        for k in range(1 + rng.randrange(3)):
            trip_id = f"{route_id}-T{k + 1}"
            trips.append(Trip(tripId=trip_id, routeId=route_id, serviceId="ALL"))
            t = 6 * 3600 + rng.randrange(192) * 300
            for seq, stop_idx in enumerate(pattern, start=1):
                dwell = rng.randrange(3) * 30
                stop_times.append(StopTime(tripId=trip_id, stopSequence=seq,
                                           stopId=stops[stop_idx].stopId,
                                           arrival=t, departure=t + dwell))
                t += 60 + rng.randrange(10) * 60
    return GtfsFeed(agencies=[agency], stops=stops, routes=routes,
                    trips=trips, stopTimes=stop_times, services=[service])


def random_trip_updates(rng: Lcg64, graph) -> dict:
    """Random real-time document touching about half the graph's trips."""
    updates = []
    for trip_id in sorted(graph.tripStopTimes):
        if rng.random() < 0.5:
            continue
        times = graph.tripStopTimes[trip_id]
        stus = []
        for _ in range(1 + rng.randrange(2)):
            tst = times[rng.randrange(len(times))]
            shift = rng.randrange(40) * 30 - 300  # -300 .. +870 s
            if rng.random() < 0.5:
                stus.append({"stopSequence": tst.seq, "delaySeconds": shift})
            else:
                stus.append({"stopSequence": tst.seq,
                             "arrivalOverride": tst.arrival + shift})
        updates.append({"tripId": trip_id, "stopTimeUpdates": stus})
    return {"tripUpdates": updates}


def whole_trip_delays(rng: Lcg64, graph) -> dict:
    """A realtime document delaying about half the trips as a whole, by -10 to
    +59 minutes: enough for a trip to overtake the one before it on its route."""
    return {"tripUpdates": [
        {"tripId": trip_id, "stopTimeUpdates": [{"stopSequence": times[0].seq,
                                                 "delaySeconds": (rng.randrange(70) - 10) * 60}]}
        for trip_id, times in sorted(graph.tripStopTimes.items()) if rng.random() < 0.5]}


def random_query(rng: Lcg64, graph, day_start: int):
    """Random query kwargs against the graph's stops (ids or nearby points)."""
    stop_ids = sorted(graph.stops)
    a = rng.choice(stop_ids)
    b = rng.choice([s for s in stop_ids if s != a]) if len(stop_ids) > 1 else a

    def endpoint(stop_id):
        if rng.random() < 0.25:  # a point a short walk from the stop
            lat, lon, _ = graph.stops[stop_id]
            return (lat + (rng.random() - 0.5) * 0.004,
                    lon + (rng.random() - 0.5) * 0.004)
        return stop_id

    return {
        "origin": endpoint(a),
        "destination": endpoint(b),
        "departAfter": day_start + 6 * 3600 + rng.randrange(56) * 900,
        "maxWalkMeters": 300.0 + rng.randrange(8) * 100.0,
    }


def random_grid_network(rng: Lcg64) -> GtfsFeed:
    """A small grid city: rows x cols stops and a route each way along every
    row and every column, with a few trips per route.

    Neighbouring stops are 350-480 m apart, inside the transfer radius, while
    stops two blocks apart are not. Each route draws its own first departure,
    headway and hop time, so crossing trips meet at varied offsets. Stop
    sequences step by 5, as GTFS allows. All services run every day of
    2025-2026.
    """
    rows, cols = 3 + rng.randrange(2), 3 + rng.randrange(2)
    step = (350 + rng.randrange(130)) / 111195.0  # degrees of latitude
    stops = [Stop(stopId=f"G{r}{c}", name=f"Grid {r},{c}",
                  lat=40.0 + r * step, lon=-3.0 + c * step / math.cos(math.radians(40.0)))
             for r in range(rows) for c in range(cols)]
    lines = ([[f"G{r}{c}" for c in range(cols)] for r in range(rows)]
             + [[f"G{r}{c}" for r in range(rows)] for c in range(cols)])
    agency = Agency(agencyId="A1", name="Grid Transit",
                    url="https://transit.example", timezone="UTC")
    service = Service(serviceId="ALL", weekdayFlags=(1,) * 7,
                      startDate="20250101", endDate="20261231")
    routes, trips, stop_times = [], [], []
    for i, line in enumerate(lines):
        for direction, pattern in (("a", line), ("b", line[::-1])):
            route_id = f"L{i + 1}{direction}"
            routes.append(Route(routeId=route_id, agencyId="A1",
                                shortName=route_id, routeType=3))
            first = 6 * 3600 + rng.randrange(120) * 60
            headway = 1800 + rng.randrange(5) * 600
            hop = 60 + rng.randrange(5) * 30
            for k in range(4 + rng.randrange(4)):
                trip_id = f"{route_id}-T{k + 1}"
                trips.append(Trip(tripId=trip_id, routeId=route_id, serviceId="ALL"))
                t = first + k * headway
                for n, stop_id in enumerate(pattern):
                    dwell = rng.randrange(2) * 30
                    stop_times.append(StopTime(tripId=trip_id, stopSequence=1 + 5 * n,
                                               stopId=stop_id, arrival=t,
                                               departure=t + dwell))
                    t += dwell + hop
    return GtfsFeed(agencies=[agency], stops=stops, routes=routes,
                    trips=trips, stopTimes=stop_times, services=[service])
