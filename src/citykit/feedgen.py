"""Deterministic synthetic city: transit network, sensor streams, defect corpora.

Everything random flows through a self-contained 64-bit linear congruential
generator with Box-Muller gaussians. The platform RNG is never used, so one
seed yields the same bytes on every machine. Independent streams (series
noise, trip delays, defect placement) are seeded separately: turning defects
on does not shift the sensor values.

The default fixture is the five-stop, two-route toy network the routing
tests enumerate by hand: stops S1..S5 on a north-south line ~445 m apart,
local route R1 calling at every stop and express route R2 at S1/S3/S5,
two trips each. Sensor sites emit a clamped sinusoid (parking), a two-peak
daily profile (traffic), and a gentle sinusoid (noise); with noiseStd = 0
the emitted values equal the closed-form profiles exactly.

Ground truth (per-trip delays, defect positions) is recorded alongside the
generated data so downstream checks never have to guess.
"""

import calendar
import copy
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional

from citykit.broker import Broker
from citykit.clock import SimulatedClock
from citykit.datamodels import RULE_KINDS as DEFECT_KINDS
from citykit.datamodels import bundled_registry
from citykit.gtfs import parse_service_date
from citykit.ngsi import Attribute, NgsiEntity, is_number, iso_utc
from citykit.textio import field_types, read_jsonl, read_settings, write_jsonl

DAY_SECONDS = 86400

# Knuth's 64-bit MMIX constants.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1

# xor'd into the seed to decorrelate the delay and defect streams
_DELAY_SALT = 0x9E3779B97F4A7C15
_DEFECT_SALT = 0xD1B54A32D192ED03


class Lcg64:
    """64-bit LCG with a documented algorithm; stable across platforms."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * _LCG_MULT + _LCG_INC) & _MASK64
        return self.state

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def gauss(self, std: float = 1.0) -> float:
        """Box-Muller; one draw per call (the sine twin is discarded
        so the draw count stays predictable)."""
        u1 = self.random()
        if u1 <= 0.0:
            u1 = 2.0 ** -53
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2) * std


@dataclass(frozen=True)
class SeriesSpec:
    baseline: float
    dailyAmplitude: float
    noiseStd: float = 0.0
    samplingIntervalSeconds: int = 900


def _default_series() -> dict:
    return {
        "availableSpotNumber": SeriesSpec(30, 12, 0.0, 900),
        "intensity": SeriesSpec(180, 120, 0.0, 900),
        "LAeq": SeriesSpec(55.0, 6.0, 0.0, 900),
    }


@dataclass
class CityFixture:
    """Parameters that pin the generated city; equal fixtures, equal bytes."""

    seed: int = 42
    stopCount: int = 5
    routeCount: int = 2
    tripsPerRoute: int = 2
    serviceStartSeconds: int = 28800
    localHopSeconds: int = 120
    expressHopSeconds: int = 150
    headwaySeconds: int = 1800
    routeOffsetSeconds: int = 300
    serviceDate: str = "20250602"
    parkingSites: int = 2
    parkingSpots: int = 2
    trafficSites: int = 1
    noiseSites: int = 1
    seriesSpecs: dict = field(default_factory=_default_series)
    tripDelays: dict = field(default_factory=dict)
    delayStd: float = 0.0
    arrivalLeadSeconds: int = 1800
    arrivalEmitIntervalSeconds: int = 300
    defectPlan: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stopCount < 2:
            raise ValueError("need at least two stops")
        if self.routeCount < 1 or self.tripsPerRoute < 1:
            raise ValueError("need at least one route and one trip")
        for kind, count in self.defectPlan.items():
            if count < 0:
                raise ValueError(f"defect count for {kind!r} must be >= 0")

    def day_start(self) -> float:
        """Epoch of the service day's UTC midnight."""
        return float(calendar.timegm(parse_service_date(self.serviceDate).timetuple()))


def default_fixture(seed: int = 42) -> CityFixture:
    return CityFixture(seed=seed)


def parse_fixture_text(text: str) -> CityFixture:
    """`key = value` lines; dotted keys set series/delay/defect tables.

    series.<attr>.<field>, delay.<tripId>, defect.<kind>; everything else
    must name a CityFixture field.
    """
    series = _default_series()
    delays: dict = {}
    defects: dict = {}
    overrides: dict = {}
    scalars, series_fields = field_types(CityFixture), field_types(SeriesSpec)
    fail = lambda lineno, message: ValueError(f"fixture line {lineno}: {message}")
    for lineno, key, value in read_settings(text, fail):
        if key.startswith("series."):
            _, attr, fld = key.split(".", 2)
            if fld not in series_fields:
                raise fail(lineno, f"unknown series field {fld!r}")
            series[attr] = replace(series.get(attr, SeriesSpec(0, 0)),
                                   **{fld: series_fields[fld](value)})
        elif key.startswith("delay."):
            delays[key.split(".", 1)[1]] = int(value)
        elif key.startswith("defect."):
            defects[key.split(".", 1)[1]] = int(value)
        elif key in scalars:
            overrides[key] = scalars[key](value)
        else:
            raise fail(lineno, f"unknown key {key!r}")
    return CityFixture(seriesSpecs=series, tripDelays=delays,
                       defectPlan=defects, **overrides)


def load_fixture_file(path) -> CityFixture:
    return parse_fixture_text(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# static network

_BASE_LAT = 40.0
_BASE_LON = -3.0
_LAT_STEP = 0.004  # ~445 m along a meridian


def _route_stops(fixture: CityFixture, route_index: int) -> list[int]:
    """Route 0 is local (every stop); route i skips with stride i+1."""
    stride = 1 if route_index == 0 else route_index + 1
    idx = list(range(0, fixture.stopCount, stride))
    if len(idx) < 2:
        idx = [0, fixture.stopCount - 1]
    return idx


def network_timetable(fixture: CityFixture) -> dict:
    """The schedule as plain ids and seconds; the single source of truth
    for both entity generation and arrival streams."""
    stops = [f"S{i + 1}" for i in range(fixture.stopCount)]
    routes = [f"R{i + 1}" for i in range(fixture.routeCount)]
    trips = {}
    for ri, route_id in enumerate(routes):
        hop = fixture.localHopSeconds if ri == 0 else fixture.expressHopSeconds
        serving = _route_stops(fixture, ri)
        for tj in range(fixture.tripsPerRoute):
            trip_id = f"{route_id}-T{tj + 1}"
            start = (fixture.serviceStartSeconds + tj * fixture.headwaySeconds
                     + ri * fixture.routeOffsetSeconds)
            calls = [(stops[stop_idx], start + k * hop)
                     for k, stop_idx in enumerate(serving)]
            trips[trip_id] = {"routeId": route_id, "calls": calls}
    return {"stops": stops, "routes": routes, "trips": trips}


def generate_static_network(fixture: CityFixture) -> list[NgsiEntity]:
    """Transit topology as Gtfs* entities, referentially intact by construction."""
    table = network_timetable(fixture)
    entities = [NgsiEntity("A1", "GtfsAgency", {
        "name": Attribute("Metro City Transit", "Text"),
        "url": Attribute("https://transit.example", "Text"),
        "timezone": Attribute("UTC", "Text"),
    })]
    for i, stop_id in enumerate(table["stops"]):
        entities.append(NgsiEntity(stop_id, "GtfsStop", {
            "name": Attribute(f"Stop {i + 1}", "Text"),
            "latitude": Attribute(_BASE_LAT + _LAT_STEP * i, "Number"),
            "longitude": Attribute(_BASE_LON, "Number"),
        }))
    for i, route_id in enumerate(table["routes"]):
        entities.append(NgsiEntity(route_id, "GtfsRoute", {
            "shortName": Attribute(str(i + 1), "Text"),
            "routeType": Attribute(3, "Number"),
            "refAgency": Attribute("A1", "Reference"),
            "name": Attribute("Local" if i == 0 else f"Express {i + 1}", "Text"),
        }))
    entities.append(NgsiEntity("WD", "GtfsService", {
        "weekdays": Attribute([1, 1, 1, 1, 1, 1, 1], "StructuredValue"),
        "startDate": Attribute("20250101", "Text"),
        "endDate": Attribute("20261231", "Text"),
    }))
    for trip_id in sorted(table["trips"]):
        info = table["trips"][trip_id]
        entities.append(NgsiEntity(trip_id, "GtfsTrip", {
            "refRoute": Attribute(info["routeId"], "Reference"),
            "refService": Attribute("WD", "Reference"),
        }))
        for seq, (stop_id, t) in enumerate(info["calls"], start=1):
            entities.append(NgsiEntity(f"st-{trip_id}-{seq}", "GtfsStopTime", {
                "refTrip": Attribute(trip_id, "Reference"),
                "refStop": Attribute(stop_id, "Reference"),
                "stopSequence": Attribute(seq, "Number"),
                "arrivalTime": Attribute(t, "Number"),
                "departureTime": Attribute(t, "Number"),
            }))
    return entities


def generate_service_entities(fixture: CityFixture,
                              t0: Optional[float] = None) -> list[NgsiEntity]:
    """Sensor-site entities the streams patch: parking, traffic, noise."""
    if t0 is None:
        t0 = fixture.day_start()
    stamp = iso_utc(t0)
    entities = []
    parking_spec = fixture.seriesSpecs.get("availableSpotNumber", SeriesSpec(30, 12))
    total = int(round(parking_spec.baseline + parking_spec.dailyAmplitude))
    for i in range(fixture.parkingSites):
        entities.append(NgsiEntity(f"parking-{i + 1}", "OnStreetParking", {
            "name": Attribute(f"Parking zone {i + 1}", "Text"),
            "totalSpotNumber": Attribute(total, "Number"),
            "availableSpotNumber": Attribute(
                closed_form("availableSpotNumber", parking_spec, t0), "Number"),
            "dateObserved": Attribute(stamp, "DateTime"),
        }))
    for i in range(fixture.parkingSpots):
        entities.append(NgsiEntity(f"spot-{i + 1}", "ParkingSpot", {
            "status": Attribute("free", "Text"),
            "refOnStreetParking": Attribute("parking-1", "Reference"),
        }))
    traffic_spec = fixture.seriesSpecs.get("intensity", SeriesSpec(180, 120))
    for i in range(fixture.trafficSites):
        entities.append(NgsiEntity(f"traffic-{i + 1}", "TrafficFlowObserved", {
            "intensity": Attribute(closed_form("intensity", traffic_spec, t0), "Number"),
            "dateObserved": Attribute(stamp, "DateTime"),
        }))
    noise_spec = fixture.seriesSpecs.get("LAeq", SeriesSpec(55, 6))
    for i in range(fixture.noiseSites):
        entities.append(NgsiEntity(f"noise-{i + 1}", "NoiseLevelObserved", {
            "LAeq": Attribute(closed_form("LAeq", noise_spec, t0), "Number"),
            "dateObserved": Attribute(stamp, "DateTime"),
        }))
    return entities


def generate_city(fixture: CityFixture) -> list[NgsiEntity]:
    """Static network plus sensor sites; the defect seeder's input corpus."""
    return generate_static_network(fixture) + generate_service_entities(fixture)


# ---------------------------------------------------------------------------
# time series profiles

def _day_fraction(t: float) -> float:
    return (t % DAY_SECONDS) / DAY_SECONDS


def sine_profile(spec: SeriesSpec, t: float) -> float:
    """One daily sine wave: parking occupancy and noise level."""
    return spec.baseline + spec.dailyAmplitude * math.sin(2 * math.pi * _day_fraction(t))


def traffic_profile(spec: SeriesSpec, t: float) -> float:
    """Two gaussian rush-hour bumps, morning 08:30 and evening 18:00."""
    h = _day_fraction(t) * 24.0
    bump = lambda center: math.exp(-((h - center) / 1.5) ** 2 / 2.0)
    return spec.baseline + spec.dailyAmplitude * (bump(8.5) + bump(18.0))


def _series_value(attribute: str, spec: SeriesSpec, t: float, noise: float):
    """The profile plus ``noise``, clamped and rounded as the attribute is emitted."""
    if attribute == "availableSpotNumber":
        total = int(round(spec.baseline + spec.dailyAmplitude))
        return min(max(int(round(sine_profile(spec, t) + noise)), 0), total)
    if attribute == "intensity":
        return max(int(round(traffic_profile(spec, t) + noise)), 0)
    if attribute == "LAeq":
        return min(max(round(sine_profile(spec, t) + noise, 1), 0.0), 140.0)
    raise ValueError(f"no profile for attribute {attribute!r}")


def closed_form(attribute: str, spec: SeriesSpec, t: float):
    """The exact value emitted at noiseStd = 0, clamping and rounding included."""
    return _series_value(attribute, spec, t, 0.0)


# ---------------------------------------------------------------------------
# streams

@dataclass(frozen=True)
class StreamEvent:
    t: float
    entityId: str
    entityType: str
    attributes: dict

    def to_doc(self) -> dict:
        return {"t": self.t, "entityId": self.entityId,
                "entityType": self.entityType,
                "attributes": {k: a.to_wire() for k, a in self.attributes.items()}}


_SITE_ATTRS = [
    ("parking-{}", "OnStreetParking", "availableSpotNumber", "parkingSites"),
    ("traffic-{}", "TrafficFlowObserved", "intensity", "trafficSites"),
    ("noise-{}", "NoiseLevelObserved", "LAeq", "noiseSites"),
]


class StreamGenerator:
    """Event source for one service day (or longer); replayable at any pace."""

    def __init__(self, fixture: CityFixture, t0: Optional[float] = None):
        self.fixture = fixture
        self.t0 = fixture.day_start() if t0 is None else float(t0)
        self._series_rng = Lcg64(fixture.seed)
        delay_rng = Lcg64(fixture.seed ^ _DELAY_SALT)
        self.timetable = network_timetable(fixture)
        self.trip_delays = {}
        for trip_id in sorted(self.timetable["trips"]):
            if trip_id in fixture.tripDelays:
                self.trip_delays[trip_id] = int(fixture.tripDelays[trip_id])
            elif fixture.delayStd > 0:
                self.trip_delays[trip_id] = int(round(delay_rng.gauss(fixture.delayStd)))
            else:
                self.trip_delays[trip_id] = 0

    def series_events(self, duration: float = DAY_SECONDS) -> list[StreamEvent]:
        """One sample per site per sampling interval, strictly after t0."""
        events = []
        for id_tpl, entity_type, attribute, count_field in _SITE_ATTRS:
            spec = self.fixture.seriesSpecs.get(attribute)
            if spec is None:
                continue
            for i in range(getattr(self.fixture, count_field)):
                entity_id = id_tpl.format(i + 1)
                steps = int(duration // spec.samplingIntervalSeconds)
                for k in range(1, steps + 1):
                    t = self.t0 + k * spec.samplingIntervalSeconds
                    noise = self._series_rng.gauss(spec.noiseStd) if spec.noiseStd > 0 else 0.0
                    value = _series_value(attribute, spec, t, noise)
                    events.append(StreamEvent(t, entity_id, entity_type, {
                        attribute: Attribute(value, "Number"),
                        "dateObserved": Attribute(iso_utc(t), "DateTime"),
                    }))
        events.sort(key=lambda e: (e.t, e.entityId))
        return events

    def effective_arrivals(self) -> list[tuple]:
        """(epoch, tripId, routeId, stopId) with per-trip delays applied."""
        day_start = self.fixture.day_start()
        rows = []
        for trip_id in sorted(self.timetable["trips"]):
            info = self.timetable["trips"][trip_id]
            delay = self.trip_delays[trip_id]
            for stop_id, sec in info["calls"]:
                rows.append((day_start + sec + delay, trip_id, info["routeId"], stop_id))
        rows.sort()
        return rows

    def arrival_events(self, duration: float = DAY_SECONDS) -> list[StreamEvent]:
        """ArrivalEstimation updates: every emit interval, one countdown per
        upcoming call within the lead window."""
        events = []
        arrivals = self.effective_arrivals()
        interval = self.fixture.arrivalEmitIntervalSeconds
        lead = self.fixture.arrivalLeadSeconds
        steps = int(duration // interval)
        for k in range(1, steps + 1):
            now = self.t0 + k * interval
            for eff, trip_id, route_id, stop_id in arrivals:
                if now < eff <= now + lead:
                    events.append(StreamEvent(now, f"arrival-{trip_id}-{stop_id}",
                                              "ArrivalEstimation", {
                        "refStop": Attribute(stop_id, "Reference"),
                        "refLine": Attribute(route_id, "Reference"),
                        "remainingTime": Attribute(int(eff - now), "Number"),
                    }))
        events.sort(key=lambda e: (e.t, e.entityId))
        return events

    def events(self, duration: float = DAY_SECONDS,
               include_arrivals: bool = True) -> list[StreamEvent]:
        merged = self.series_events(duration)
        if include_arrivals:
            merged += self.arrival_events(duration)
        merged.sort(key=lambda e: (e.t, e.entityId))
        return merged

    def ground_truth(self) -> list[dict]:
        return [{"kind": "delay", "tripId": trip_id, "delaySeconds": delay}
                for trip_id, delay in sorted(self.trip_delays.items())]

    def emit(self, broker: Broker, clock: Optional[SimulatedClock] = None,
             duration: float = DAY_SECONDS) -> int:
        """Replay events into a broker (in-process or HTTP client) in time order.

        Site entities must already exist (patches carry only the changing
        attributes); ArrivalEstimation entities are created on first sight.
        A simulated ``clock`` is moved to each event's time.
        """
        count = 0
        for event in self.events(duration):
            if clock is not None and event.t > clock.now():
                clock.set(event.t)
            if event.entityType == "ArrivalEstimation":
                broker.upsert_entity(NgsiEntity(event.entityId, event.entityType,
                                                dict(event.attributes)))
            else:
                broker.update_attributes(event.entityId, dict(event.attributes))
            count += 1
        return count


# ---------------------------------------------------------------------------
# defect seeding

@dataclass
class DefectSeedResult:
    entities: list
    groundTruth: list


def _attrs_where(test):
    """Eligibility: the entity's attributes whose schema rule passes ``test``."""
    return lambda schema, entity: sorted(
        name for name, rule in schema.attributeRules.items()
        if name in entity.attributes and test(rule))


def _required_attrs(schema, entity: NgsiEntity) -> list[str]:
    return sorted(r for r in schema.requiredAttributes if r in entity.attributes)


def _range_attrs(schema, entity: NgsiEntity) -> list[str]:
    """Attributes where a just-out-of-bounds value trips the range rule alone.

    Lowering the upper partner of a lessOrEqual pair (or raising the lower
    one) would add a second violation, so those attributes are skipped.
    """
    names = []
    for name, rule in schema.attributeRules.items():
        if name not in entity.attributes or rule.numericRange is None:
            continue
        lo, hi = rule.numericRange
        if lo is None and hi is None:
            continue
        goes_low = lo is not None  # planted value is lo-1, else hi+1
        safe = True
        for a, b in schema.lessOrEqual:
            if name == b and goes_low and is_number(entity.value(a)):
                safe = False
            if name == a and not goes_low and is_number(entity.value(b)):
                safe = False
        if safe:
            names.append(name)
    return sorted(names)


def _out_of_range(rule) -> float:
    lo, hi = rule.numericRange
    return (lo - 1) if lo is not None else (hi + 1)


# kind -> (eligible attributes of an entity under its schema, planted value
# from the attribute's rule); a None value deletes the attribute
_PLANTED = {
    "missing-required": (_required_attrs, None),
    "wrong-type": (_attrs_where(lambda r: r.expectedValueType == "Number"),
                   lambda rule: "broken"),
    "out-of-range": (_range_attrs, _out_of_range),
    "not-in-enum": (_attrs_where(lambda r: r.enumValues is not None),
                    lambda rule: "__bogus__"),
    "pattern-mismatch": (_attrs_where(lambda r: r.pattern is not None),
                         lambda rule: "!!"),
}


def seed_defects(entities: Iterable[NgsiEntity], plan: dict, seed: int) -> DefectSeedResult:
    """Plant schema violations, one per chosen entity, and say where.

    Each seeded defect yields exactly one violation of its kind when the
    corpus runs through the bundled schemas. Raises ValueError when the plan
    asks for more defects of a kind than there are untouched eligible hosts.
    """
    registry = bundled_registry()
    rng = Lcg64(seed ^ _DEFECT_SALT)
    out = [copy.deepcopy(e) for e in entities]
    used: set = set()
    truth = []

    def pick(pool: list[int], kind: str) -> int:
        candidates = [i for i in pool if out[i].id not in used]
        if not candidates:
            raise ValueError(f"no untouched entity can host a {kind} defect")
        i = candidates[rng.randrange(len(candidates))]
        used.add(out[i].id)
        return i

    # taken before any type is changed; a host whose type changes is used up
    schemas = [registry.get(e.entityType) for e in out]
    for kind in sorted(plan):
        if kind not in DEFECT_KINDS:
            raise ValueError(f"unknown defect kind {kind!r}")
        for _ in range(plan[kind]):
            if kind == "unknown-entity-type":
                i = pick([i for i, schema in enumerate(schemas) if schema], kind)
                out[i].entityType = f"Unknown{out[i].entityType}"
                attr = ""
            else:
                eligible, planted = _PLANTED[kind]
                i = pick([i for i, schema in enumerate(schemas)
                          if schema and eligible(schema, out[i])], kind)
                names = eligible(schemas[i], out[i])
                attr = names[rng.randrange(len(names))]
                if planted is None:
                    del out[i].attributes[attr]
                else:
                    out[i].attributes[attr].value = planted(schemas[i].attributeRules[attr])
            truth.append({"kind": kind, "entityId": out[i].id, "attributeName": attr})
    return DefectSeedResult(out, truth)


# ---------------------------------------------------------------------------
# ground truth files

def write_ground_truth(path, records: Iterable[dict]) -> int:
    """JSON-lines sidecar; returns the record count."""
    return write_jsonl(path, records)


def read_ground_truth(path) -> list[dict]:
    return list(read_jsonl(path))
