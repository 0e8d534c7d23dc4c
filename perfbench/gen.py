"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: equal seeds give equal
entities, equal query sets and equal GTFS zip bytes. Nothing in this module
imports ``citykit.routing``; the output checks rely on the timetable built
here as their independent model of the city.

The grid city has ``rows x cols`` stops at street intersections, one route
per row and per column in each direction, and a fixed headway. The seed
only shifts each route's first departure within the headway, so the size
and shape of the search problem stay the same from seed to seed.
"""

import math
import random
from dataclasses import dataclass

from citykit.ngsi import Attribute, NgsiEntity

BASE_LAT = 40.0
BASE_LON = -3.0
LAT_STEP = 0.0043  # about 478 m
LON_STEP = 0.0056  # about 477 m at 40 degrees north
WALK_SPEED = 1.25  # m/s, the router's default
DAY_START = 1748822400  # 2025-06-02T00:00:00Z
EARTH_RADIUS_M = 6371000.0


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    headway: int = 900
    hop: int = 90
    tripsPerRoute: int = 24
    serviceStart: int = 6 * 3600


def stop_id(r: int, c: int) -> str:
    return f"g{r:02d}-{c:02d}"


def stop_position(sid: str) -> tuple:
    r, c = (int(x) for x in sid[1:].split("-"))
    return BASE_LAT + LAT_STEP * r, BASE_LON + LON_STEP * c


def haversine_m(a: tuple, b: tuple) -> float:
    p1, p2 = math.radians(a[0]), math.radians(b[0])
    dl = math.radians(b[1] - a[1])
    h = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


def walk_time(meters: float) -> int:
    return int(math.ceil(meters / WALK_SPEED))


def grid_routes(spec: GridSpec) -> dict:
    """routeId -> ordered stop ids."""
    routes = {}
    for r in range(spec.rows):
        east = [stop_id(r, c) for c in range(spec.cols)]
        routes[f"row{r:02d}E"] = east
        routes[f"row{r:02d}W"] = east[::-1]
    for c in range(spec.cols):
        north = [stop_id(r, c) for r in range(spec.rows)]
        routes[f"col{c:02d}N"] = north
        routes[f"col{c:02d}S"] = north[::-1]
    return routes


def grid_timetable(spec: GridSpec, seed: int) -> dict:
    """tripId -> {"routeId", "calls": [(stopId, secondsSinceMidnight)]}.

    Arrival equals departure at every call, as in feedgen's timetables.
    """
    rng = random.Random(f"grid-offsets:{seed}")
    trips = {}
    for route_id, stops in sorted(grid_routes(spec).items()):
        offset = rng.randrange(spec.headway // 60) * 60
        for j in range(spec.tripsPerRoute):
            start = spec.serviceStart + offset + j * spec.headway
            trips[f"{route_id}-t{j:02d}"] = {
                "routeId": route_id,
                "calls": [(s, start + k * spec.hop) for k, s in enumerate(stops)],
            }
    return trips


def grid_entities(spec: GridSpec, seed: int, version: int = 0) -> list:
    """The grid city as Gtfs* entities.

    ``version`` renames the agency and the routes only, so alternate
    versions build different zips with the same trip ids and times.
    """
    tag = "" if version == 0 else f" v{version}"
    entities = [NgsiEntity("A1", "GtfsAgency", {
        "name": Attribute(f"Grid City Transit{tag}", "Text"),
        "url": Attribute("https://transit.example", "Text"),
        "timezone": Attribute("UTC", "Text"),
    })]
    for r in range(spec.rows):
        for c in range(spec.cols):
            lat, lon = stop_position(stop_id(r, c))
            entities.append(NgsiEntity(stop_id(r, c), "GtfsStop", {
                "name": Attribute(f"Street {r} / Avenue {c}", "Text"),
                "latitude": Attribute(lat, "Number"),
                "longitude": Attribute(lon, "Number"),
            }))
    for route_id in sorted(grid_routes(spec)):
        entities.append(NgsiEntity(route_id, "GtfsRoute", {
            "shortName": Attribute(route_id + tag, "Text"),
            "routeType": Attribute(3, "Number"),
            "refAgency": Attribute("A1", "Reference"),
        }))
    entities.append(NgsiEntity("WD", "GtfsService", {
        "weekdays": Attribute([1, 1, 1, 1, 1, 1, 1], "StructuredValue"),
        "startDate": Attribute("20250101", "Text"),
        "endDate": Attribute("20261231", "Text"),
    }))
    table = grid_timetable(spec, seed)
    for trip_id in sorted(table):
        info = table[trip_id]
        entities.append(NgsiEntity(trip_id, "GtfsTrip", {
            "refRoute": Attribute(info["routeId"], "Reference"),
            "refService": Attribute("WD", "Reference"),
        }))
        for seq, (sid, t) in enumerate(info["calls"], start=1):
            entities.append(NgsiEntity(f"st-{trip_id}-{seq:02d}", "GtfsStopTime", {
                "refTrip": Attribute(trip_id, "Reference"),
                "refStop": Attribute(sid, "Reference"),
                "stopSequence": Attribute(seq, "Number"),
                "arrivalTime": Attribute(t, "Number"),
                "departureTime": Attribute(t, "Number"),
            }))
    return entities


# ---------------------------------------------------------------------------
# rider queries

@dataclass(frozen=True)
class RiderQuery:
    origin: str
    destination: str
    departAfter: int  # epoch seconds
    n: int
    kind: str  # short | cross

    def params(self) -> dict:
        return {"fromStop": self.origin, "toStop": self.destination,
                "departAfter": str(self.departAfter), "n": str(self.n)}


def rider_queries(spec: GridSpec, seed: int, per_cell: int = 12) -> list:
    """A stratified query set in a fixed order.

    Every (trip length, n) cell gets a fixed number of queries: ``per_cell``
    for n=1 and half as many for n=3. Their departures sit on an even grid
    across the service day, each jittered by up to a quarter step. The
    planner's cost depends mostly on how much service is left after the
    departure and on n. An n=3 query costs about three n=1 queries, so with
    twice as many n=1 queries the median falls inside the n=1 costs rather
    than in the gap between the two groups.

    The seed picks the endpoints and the jitter only. The order of cells and
    departure slots is the same for every seed, so two closed-loop clients
    taking alternate queries pair up the same kinds of work from seed to
    seed. Short trips are 2-3 blocks apart; cross-city trips join opposite
    quarters of the grid. Every departure leaves enough service to finish.
    """
    rng = random.Random(f"rider-queries:{seed}")
    last_start = spec.serviceStart + (spec.tripsPerRoute - 1) * spec.headway
    span = last_start - spec.serviceStart - 2 * spec.headway \
        - (spec.rows + spec.cols) * spec.hop
    cells = {}
    for kind in ("short", "cross"):
        for n, count in ((1, per_cell), (3, per_cell // 2)):
            step = span / count
            order = sorted(range(count), key=lambda i: (i * 5) % count)
            cells[(kind, n)] = []
            for i in order:
                origin, destination = _pick_pair(spec, rng, kind)
                offset = (i + 0.5 + (rng.random() - 0.5) / 2) * step
                depart = DAY_START + spec.serviceStart + int(offset)
                cells[(kind, n)].append(RiderQuery(origin, destination, depart, n, kind))
    pattern = [("short", 1), ("cross", 1), ("short", 3), ("short", 1), ("cross", 1),
               ("cross", 3)]
    out = []
    while any(cells.values()):
        for cell in pattern:
            if cells[cell]:
                out.append(cells[cell].pop(0))
    return out


def _pick_pair(spec: GridSpec, rng: random.Random, kind: str) -> tuple:
    if kind == "short":
        while True:
            r, c = rng.randrange(spec.rows), rng.randrange(spec.cols)
            dr, dc = rng.randrange(-3, 4), rng.randrange(-3, 4)
            r2, c2 = r + dr, c + dc
            if 0 <= r2 < spec.rows and 0 <= c2 < spec.cols and 2 <= abs(dr) + abs(dc) <= 3:
                return stop_id(r, c), stop_id(r2, c2)
    qr, qc = max(1, spec.rows // 4), max(1, spec.cols // 4)
    r, c = rng.randrange(qr), rng.randrange(qc)
    r2, c2 = spec.rows - 1 - rng.randrange(qr), spec.cols - 1 - rng.randrange(qc)
    if rng.random() < 0.5:
        r, r2 = r2, r
    if rng.random() < 0.5:
        c, c2 = c2, c
    return stop_id(r, c), stop_id(r2, c2)


# ---------------------------------------------------------------------------
# live: arrival-estimation ticks on the grid

@dataclass(frozen=True)
class LiveSpec:
    grid: GridSpec
    pairs: int = 10  # (line, stop) estimation sources upserted every tick
    tickServiceSeconds: int = 20  # service-day time between two ticks
    windowSeconds: int = 2700  # ticks cover the last 45 minutes of departures
    minDelay: int = 30
    maxDelay: int = 120  # keeps the delayed trip faster than any detour or walk


def live_start(spec: LiveSpec) -> int:
    """Service-day epoch of tick 0, late in the day so probes stay cheap."""
    last_start = spec.grid.serviceStart + (spec.grid.tripsPerRoute - 1) * spec.grid.headway
    return DAY_START + last_start - spec.windowSeconds


def max_ticks(spec: LiveSpec) -> int:
    return spec.windowSeconds // spec.tickServiceSeconds - 1


def live_pairs(spec: LiveSpec, seed: int) -> list:
    """(routeId, stop index) sources; never a route's last stop, so each
    source has a next stop for its probe."""
    rng = random.Random(f"live-pairs:{seed}")
    routes = grid_routes(spec.grid)
    names = sorted(routes)
    pairs = set()
    while len(pairs) < spec.pairs:
        route = rng.choice(names)
        pairs.add((route, rng.randrange(len(routes[route]) - 1)))
    return sorted(pairs)


def next_call(table: dict, route_id: str, sid: str, now: int):
    """The route's first scheduled call at the stop strictly after ``now``,
    ties to the smallest trip id: (arrivalEpoch, tripId, seq)."""
    best = None
    for trip_id, info in table.items():
        if info["routeId"] != route_id:
            continue
        for seq, (s, t) in enumerate(info["calls"], start=1):
            if s == sid and DAY_START + t > now:
                key = (DAY_START + t, trip_id, seq)
                if best is None or key < best:
                    best = key
    return best


def trip_delay(seed: int, tick: int, trip_id: str, spec: LiveSpec) -> int:
    rng = random.Random(f"delay:{seed}:{tick}:{trip_id}")
    return rng.randrange(spec.minDelay, spec.maxDelay + 1)


def live_tick(spec: LiveSpec, table: dict, pairs: list, seed: int, tick: int) -> dict:
    """One tick: its service time, the estimations to upsert, the feed the
    realtime server must then serve, and the probe with its expected arrival."""
    now = live_start(spec) + tick * spec.tickServiceSeconds
    routes = grid_routes(spec.grid)
    entities, updates, calls = [], {}, []
    for route_id, index in pairs:
        sid = routes[route_id][index]
        arrival, trip_id, seq = next_call(table, route_id, sid, now)
        delay = trip_delay(seed, tick, trip_id, spec)
        entities.append(NgsiEntity(f"ae-{route_id}-{sid}", "ArrivalEstimation", {
            "refStop": Attribute(sid, "Reference"),
            "refLine": Attribute(route_id, "Reference"),
            "remainingTime": Attribute(arrival + delay - now, "Number"),
        }))
        updates.setdefault(trip_id, []).append(
            {"stopId": sid, "stopSequence": seq, "arrivalOverride": arrival + delay})
        calls.append((route_id, index, trip_id, seq, delay))
    feed = {"headerTimestamp": now, "tripUpdates": [
        {"tripId": t, "stopTimeUpdates": sorted(u, key=lambda d: d["stopSequence"])}
        for t, u in sorted(updates.items())]}
    route_id, index, trip_id, seq, delay = calls[tick % len(calls)]
    board, alight = table[trip_id]["calls"][seq - 1], table[trip_id]["calls"][seq]
    probe = RiderQuery(board[0], alight[0], DAY_START + board[1] - 30, 1, "probe")
    return {"tick": tick, "now": now, "entities": entities, "feed": feed,
            "probe": probe, "probeTrip": trip_id, "delay": delay,
            "staticArrival": DAY_START + alight[1]}


# ---------------------------------------------------------------------------
# sensors: fleet inventory, subscriptions, and the write/query streams

SENSOR_KINDS = ("TrafficFlowObserved", "NoiseLevelObserved", "OnStreetParking")
DISTRICTS = 8


def sensor_rulesets() -> dict:
    """json_to_ngsi rulesets for the legacy inventory, one per device kind."""
    common = [
        {"sourcePath": "district", "targetAttribute": "district", "valueType": "Number"},
        {"sourcePath": "reported", "targetAttribute": "dateObserved", "valueType": "DateTime",
         "transform": {"name": "parseTimestamp", "format": "%Y-%m-%d %H:%M:%S"}},
        {"sourcePath": "seq", "targetAttribute": "seq", "valueType": "Number"},
    ]
    per_kind = {
        "TrafficFlowObserved": [
            {"sourcePath": "readings.flow", "targetAttribute": "intensity", "valueType": "Number"},
            {"sourcePath": "readings.occPct", "targetAttribute": "occupancy",
             "valueType": "Number", "transform": {"name": "scale", "factor": 0.01}},
            {"sourcePath": "lane", "targetAttribute": "laneId", "valueType": "Number"},
        ],
        "NoiseLevelObserved": [
            {"sourcePath": "readings.laeq", "targetAttribute": "LAeq", "valueType": "Number"},
        ],
        "OnStreetParking": [
            {"sourcePath": "capacity", "targetAttribute": "totalSpotNumber", "valueType": "Number"},
            {"sourcePath": "readings.free", "targetAttribute": "availableSpotNumber",
             "valueType": "Number"},
        ],
    }
    return {kind: {"entityTypeTemplate": "{kind}", "idTemplate": "{prefix}-{serial}",
                   "attributeMappings": common + per_kind[kind]}
            for kind in SENSOR_KINDS}


_PREFIX = {"TrafficFlowObserved": "tf", "NoiseLevelObserved": "nl", "OnStreetParking": "sp"}


def sensor_fleet(seed: int, devices: int) -> list:
    """The inventory as legacy JSON records (what the devices report)."""
    rng = random.Random(f"fleet:{seed}")
    records = []
    for i in range(devices):
        kind = SENSOR_KINDS[i % len(SENSOR_KINDS)]
        rec = {"kind": kind, "prefix": _PREFIX[kind], "serial": f"{i:04d}",
               "district": rng.randrange(DISTRICTS), "seq": 0,
               "reported": "2025-06-02 08:00:00"}
        if kind == "TrafficFlowObserved":
            rec["lane"] = rng.randrange(4)
            rec["readings"] = {"flow": rng.randrange(500), "occPct": rng.randrange(101)}
        elif kind == "NoiseLevelObserved":
            rec["readings"] = {"laeq": rng.randrange(40, 90)}
        else:
            rec["capacity"] = 20 + rng.randrange(80)
            rec["readings"] = {"free": rng.randrange(rec["capacity"] + 1)}
        records.append(rec)
    return records


def sensor_model(records: list) -> dict:
    """id -> (type, static attributes) as the mapped entities must carry."""
    out = {}
    for rec in records:
        static = {"district": rec["district"]}
        if rec["kind"] == "TrafficFlowObserved":
            static["laneId"] = rec["lane"]
        if rec["kind"] == "OnStreetParking":
            static["totalSpotNumber"] = rec["capacity"]
        out[f"{rec['prefix']}-{rec['serial']}"] = (rec["kind"], static)
    return out


def sensor_subscriptions() -> list:
    """Selective subscriptions: by type, by id pattern, by watched attribute."""
    return [
        {"name": "traffic-flow", "entityTypeFilter": "TrafficFlowObserved",
         "watchedAttributes": ["intensity"]},
        {"name": "traffic-occupancy", "entityTypeFilter": "TrafficFlowObserved",
         "watchedAttributes": ["occupancy"]},
        {"name": "noise-all", "entityTypeFilter": "NoiseLevelObserved"},
        {"name": "parking-free", "entityTypeFilter": "OnStreetParking",
         "watchedAttributes": ["availableSpotNumber"]},
        {"name": "serial-7", "idPattern": "7$"},
        {"name": "low-serials", "idPattern": r"-00[0-4]\d$"},
        {"name": "noise-laeq-3", "entityTypeFilter": "NoiseLevelObserved",
         "idPattern": "3$", "watchedAttributes": ["LAeq"]},
        {"name": "parking-none", "entityTypeFilter": "OnStreetParking",
         "watchedAttributes": ["occupancy"]},
    ]


def subscription_matches(sub: dict, entity_id: str, entity_type: str, changed) -> bool:
    """The broker's documented filter semantics, restated for the model."""
    import re
    if sub.get("entityTypeFilter", "*") not in ("*", entity_type):
        return False
    if not re.search(sub.get("idPattern", ".*"), entity_id):
        return False
    watched = set(sub.get("watchedAttributes") or ())
    return not watched or bool(watched & set(changed))


def sensor_ops(seed: int, records: list, count: int, query_share: float) -> list:
    """The offered operation stream: patches carrying a sequence number,
    filtered queries and single-entity gets, in due order."""
    rng = random.Random(f"sensor-ops:{seed}")
    model = sensor_model(records)
    ids = sorted(model)
    ops = []
    seq = 0
    for _ in range(count):
        if rng.random() < query_share:
            if rng.random() < 0.5:
                ops.append({"op": "get", "id": rng.choice(ids)})
            else:
                ops.append(_sensor_query(rng, model))
            continue
        seq += 1
        eid = rng.choice(ids)
        kind, static = model[eid]
        if kind == "TrafficFlowObserved":
            attrs = ({"intensity": rng.randrange(500)} if rng.random() < 0.5
                     else {"occupancy": rng.randrange(101) / 100})
        elif kind == "NoiseLevelObserved":
            attrs = {"LAeq": rng.randrange(40, 90)}
        else:
            attrs = {"availableSpotNumber": rng.randrange(static["totalSpotNumber"] + 1)}
        attrs["seq"] = seq
        ops.append({"op": "patch", "id": eid, "type": kind, "attrs": attrs, "seq": seq})
    return ops


def _sensor_query(rng: random.Random, model: dict) -> dict:
    kind = rng.choice(SENSOR_KINDS)
    district = rng.randrange(DISTRICTS)
    q = f"district=={district}"
    pred = lambda s: s["district"] == district  # noqa: E731
    if kind == "TrafficFlowObserved" and rng.random() < 0.5:
        lane = rng.randrange(4)
        q += f";laneId>={lane}"
        pred = lambda s: s["district"] == district and s["laneId"] >= lane  # noqa: E731
    expected = sorted(i for i, (k, s) in model.items() if k == kind and pred(s))
    return {"op": "query", "type": kind, "q": q, "expect": expected}


# ---------------------------------------------------------------------------
# forecast: the estimation scenario's city, scaled up

def forecast_fixture(seed: int, sites: int):
    """Half parking, half traffic sites, plus a few noise sites that get no
    history (the sample gate must skip them). Parking carries noise so the
    ridge model has to beat the seasonal-naive baseline."""
    from dataclasses import replace

    from citykit.feedgen import CityFixture, SeriesSpec
    fixture = CityFixture(seed=seed, parkingSites=sites // 2, parkingSpots=0,
                          trafficSites=sites - sites // 2, noiseSites=4)
    specs = dict(fixture.seriesSpecs)
    specs["availableSpotNumber"] = SeriesSpec(30, 12, 2.0, 900)
    return replace(fixture, seriesSpecs=specs)


GENERATORS = ("grid_entities", "rider_queries", "live_tick", "sensor_fleet",
              "sensor_ops", "forecast_fixture")
