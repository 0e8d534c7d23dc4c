"""End-to-end scenario runner wiring every service together on loopback.

Two scenarios, each a fixed stage list so reports diff cleanly run to run:

* routing: synthetic city -> broker -> GTFS zip -> feed pointer -> fetcher ->
  router plan; then arrival estimations -> GTFS-RT -> overlay -> re-plan.
* estimation: historical backfill + live subscription stream -> scheduled
  retrain/inference -> forecast quality versus the naive baseline ->
  write-back onto the source entities.

A stage failure marks that stage and skips the rest, except a failed feed
update in the routing scenario: the router must keep serving the old graph,
so later stages still run and the overall outcome becomes "fail-safe" when
they succeed. Everything runs in-process; no sockets beyond what a test
explicitly opens.
"""

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from citykit.broker import ContextBroker
from citykit.clock import SimulatedClock
from citykit.datamodels import bundled_registry, validate_entity
from citykit.estimator.ingest import ingest_historical, ingest_subscription
from citykit.estimator.models import TrainingConfig, train
from citykit.estimator.scheduler import EstimatorScheduler
from citykit.estimator.service import writeback
from citykit.estimator.store import TimeSeriesStore
from citykit.feedgen import (
    CityFixture,
    StreamGenerator,
    default_fixture,
    generate_service_entities,
    generate_static_network,
)
from citykit.gtfs import ngsi_to_gtfs, parse_service_date, publish_feed_entity
from citykit.gtfs_fetcher import GtfsFetcher
from citykit.gtfs_realtime import TripResolver, arrival_estimations_to_gtfsrt
from citykit.ngsi import NgsiEntity, iso_utc
from citykit.routing import ItineraryQuery, Router

ROUTING_STAGES = (
    "generate-city", "publish-entities", "build-feed", "fetch-feed",
    "plan-static", "update-feed", "commit-arrivals", "build-rt",
    "apply-rt", "plan-realtime",
)

ESTIMATION_STAGES = (
    "generate-city", "publish-entities", "backfill", "start-scheduler",
    "live-stream", "train-gate", "invocation-counts", "forecast-quality",
    "writeback",
)


class StageFailure(Exception):
    """A stage that ran but did not meet its contract."""

    def __init__(self, detail):
        super().__init__(str(detail))
        self.detail = detail


@dataclass
class StageResult:
    name: str
    status: str  # pass | fail | skipped
    detail: object = None
    latencySeconds: float = 0.0

    def to_doc(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail,
                "latencySeconds": round(self.latencySeconds, 6)}


@dataclass
class ScenarioReport:
    scenario: str
    stages: list = field(default_factory=list)
    outcome: str = "fail"
    generatedAt: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in ("pass", "fail-safe")

    def stage(self, name: str) -> StageResult:
        for result in self.stages:
            if result.name == name:
                return result
        raise KeyError(name)

    def to_doc(self) -> dict:
        return {"scenario": self.scenario, "outcome": self.outcome,
                "generatedAt": self.generatedAt,
                "stages": [s.to_doc() for s in self.stages]}


def _run_stages(scenario: str, steps: dict, keep_going: tuple = ()) -> ScenarioReport:
    """steps: stage name -> fn returning the pass detail, in run order. A
    failed stage skips the rest unless it is named in ``keep_going``."""
    report = ScenarioReport(scenario=scenario, generatedAt=iso_utc(time.time()))
    skipping = False
    for name, fn in steps.items():
        if skipping:
            report.stages.append(StageResult(name, "skipped"))
            continue
        t0 = time.perf_counter()
        try:
            detail = fn()
            status = "pass"
        except StageFailure as exc:
            detail, status = exc.detail, "fail"
        except Exception as exc:
            detail, status = f"{type(exc).__name__}: {exc}", "fail"
        report.stages.append(
            StageResult(name, status, detail, time.perf_counter() - t0))
        if status == "fail" and name not in keep_going:
            skipping = True
    report.outcome = "fail" if any(s.status == "fail" for s in report.stages) else "pass"
    return report


# ---------------------------------------------------------------------------
# routing scenario

@dataclass
class RoutingScenarioConfig:
    seed: int = 42
    fixture: Optional[CityFixture] = None
    origin: str = "S1"
    corruptUpdate: bool = False
    workDir: Optional[str] = None


DESTINATION = "S5"
DELAYED_TRIP = "R1-T1"
DELAY_SECONDS = 600


def run_scenario_routing(config: Optional[RoutingScenarioConfig] = None) -> ScenarioReport:
    cfg = config or RoutingScenarioConfig()
    fixture = cfg.fixture or default_fixture(cfg.seed)
    day_start = fixture.day_start()
    service_date = parse_service_date(fixture.serviceDate)
    work_dir = Path(cfg.workDir) if cfg.workDir else Path(tempfile.mkdtemp(prefix="scenario-"))
    own_dir = cfg.workDir is None
    registry = bundled_registry()
    broker = ContextBroker(clock=SimulatedClock(day_start))
    router = Router(service_date=service_date)
    zip_path = work_dir / "feed.zip"
    shared: dict = {}

    def generate_city():
        shared["network"] = generate_static_network(fixture)
        bad = [e.id for e in shared["network"] if not validate_entity(e, registry).valid]
        if bad:
            raise StageFailure({"invalidEntities": bad})
        return {"entities": len(shared["network"])}

    def publish_entities():
        for entity in shared["network"]:
            broker.upsert_entity(entity)
        return {"published": len(shared["network"])}

    def build_feed():
        entities = broker.query_entities()
        feed, zip_bytes = ngsi_to_gtfs(entities)
        shared["feed"] = feed
        zip_path.write_bytes(zip_bytes)
        pointer = publish_feed_entity(str(zip_path), broker, feed_id="feed-city")
        return {"trips": len(feed.trips), "stopTimes": len(feed.stopTimes),
                "zipBytes": len(zip_bytes), "pointer": pointer.id}

    def fetch_feed():
        fetcher = GtfsFetcher(router)
        shared["fetcher"] = fetcher
        applied = fetcher.poll(broker)
        if applied != 1 or router.graph is None:
            raise StageFailure({"applied": applied, "events": fetcher.events})
        return {"applied": applied, "graphVersion": router.version}

    def plan_static():
        query = ItineraryQuery(cfg.origin, DESTINATION,
                               departAfter=int(day_start + fixture.serviceStartSeconds - 60))
        shared["query"] = query
        itineraries = router.plan(query)
        shared["staticArrival"] = itineraries[0].arrival
        return {"itineraries": [i.to_doc() for i in itineraries],
                "bestArrival": itineraries[0].arrival}

    def update_feed():
        before = router.version
        if cfg.corruptUpdate:
            zip_path.write_bytes(b"\x00not a zip archive\x00")
        else:
            zip_path.write_bytes(zip_path.read_bytes())
        stat = zip_path.stat()
        # force a visibly newer pointer even on coarse filesystem clocks
        os.utime(zip_path, (stat.st_atime, stat.st_mtime + 2))
        publish_feed_entity(str(zip_path), broker, feed_id="feed-city")
        shared["fetcher"].poll(broker)
        outcome = shared["fetcher"].events[-1]["outcome"]
        detail = {"outcome": outcome, "graphVersion": router.version}
        if cfg.corruptUpdate:
            detail["note"] = f"feed rejected; graph v{before} retained"
            raise StageFailure(detail)
        if outcome != "reloaded" or router.version != before + 1:
            raise StageFailure(detail)
        return detail

    def commit_arrivals():
        stream_fixture = replace(fixture, tripDelays={DELAYED_TRIP: DELAY_SECONDS})
        generator = StreamGenerator(stream_fixture)
        shared["generator"] = generator
        interval = fixture.arrivalEmitIntervalSeconds
        offset = ((fixture.serviceStartSeconds - interval) // interval) * interval
        now = day_start + offset
        shared["rtNow"] = now
        events = [e for e in generator.arrival_events(offset) if e.t == now]
        for event in events:
            broker.upsert_entity(NgsiEntity(event.entityId, event.entityType,
                                            dict(event.attributes)))
        if not events:
            raise StageFailure({"committed": 0, "emitTime": now})
        return {"committed": len(events), "emitTime": now,
                "groundTruth": generator.ground_truth()}

    def build_rt():
        estimations = broker.query_entities(typeFilter="ArrivalEstimation")
        resolver = TripResolver(shared["feed"], int(day_start))
        result = arrival_estimations_to_gtfsrt(estimations, int(shared["rtNow"]),
                                               resolver)
        if result.unresolved:
            raise StageFailure({"unresolved": result.unresolved})
        shared["rtFeed"] = result.feed
        return {"tripUpdates": len(result.feed["tripUpdates"]),
                "estimations": len(estimations)}

    def apply_rt():
        overlay = router.set_realtime(shared["rtFeed"])
        return {"effectiveTrips": len(overlay.effective),
                "unknownTrips": overlay.unknownTrips}

    def plan_realtime():
        itineraries = router.plan(shared["query"])
        best = itineraries[0].arrival
        detail = {"itineraries": [i.to_doc() for i in itineraries],
                  "bestArrival": best, "graphVersion": router.version,
                  "arrivalShiftSeconds": best - shared["staticArrival"]}
        if cfg.corruptUpdate:
            detail["note"] = f"served stale graph v{router.version}"
        return detail

    steps = dict(zip(ROUTING_STAGES, (
        generate_city, publish_entities, build_feed, fetch_feed, plan_static,
        update_feed, commit_arrivals, build_rt, apply_rt, plan_realtime), strict=True))
    try:
        report = _run_stages("routing", steps, keep_going=("update-feed",))
        # every later stage passed on the old graph, so the router failed safe
        if [s.name for s in report.stages if s.status == "fail"] == ["update-feed"]:
            report.outcome = "fail-safe"
        return report
    finally:
        broker.close()
        if own_dir:
            shutil.rmtree(work_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# estimation scenario

@dataclass
class EstimationScenarioConfig:
    seed: int = 42
    fixture: Optional[CityFixture] = None
    backfillDays: int = 20
    rmseThreshold: float = 3.0


LIVE_DAYS = 1
PARKING_NOISE_STD = 2.0


_LIVE_MAPPING = {
    "OnStreetParking": "availableSpotNumber",
    "TrafficFlowObserved": "intensity",
    "NoiseLevelObserved": "LAeq",
}


def run_scenario_estimation(config: Optional[EstimationScenarioConfig] = None) -> ScenarioReport:
    cfg = config or EstimationScenarioConfig()
    base = cfg.fixture or default_fixture(cfg.seed)
    specs = dict(base.seriesSpecs)
    specs["availableSpotNumber"] = replace(specs["availableSpotNumber"],
                                           noiseStd=PARKING_NOISE_STD)
    fixture = replace(base, seriesSpecs=specs)
    tcfg = TrainingConfig()
    day_start = fixture.day_start()
    live_end = day_start + LIVE_DAYS * 86400
    clock = SimulatedClock(day_start)
    broker = ContextBroker(clock=clock)
    store = TimeSeriesStore()
    shared: dict = {}
    parking_key = ("parking-1", "availableSpotNumber")

    def generate_city():
        shared["sites"] = generate_service_entities(fixture, t0=day_start)
        return {"entities": len(shared["sites"])}

    def publish_entities():
        for entity in shared["sites"]:
            broker.upsert_entity(entity)
        return {"published": len(shared["sites"])}

    def backfill():
        # noise sites get no history on purpose: they demo the sample gate
        generator = StreamGenerator(fixture,
                                    t0=day_start - cfg.backfillDays * 86400)
        records = []
        for event in generator.series_events(cfg.backfillDays * 86400):
            if event.entityType == "NoiseLevelObserved":
                continue
            attr = next(k for k in event.attributes if k != "dateObserved")
            records.append({"entityId": event.entityId, "attr": attr,
                            "t": event.t, "value": event.attributes[attr].value})
        stats = ingest_historical(store, records)
        return {"appended": stats.appended,
                "series": {f"{k[0]}/{k[1]}": store.length(*k) for k in store.keys()}}

    def start_scheduler():
        scheduler = EstimatorScheduler(store, tcfg, clock=clock,
                                       on_prediction=lambda p: writeback(p, broker))
        shared["scheduler"] = scheduler
        scheduler.start(day_start)
        missing = [k for k in store.keys()
                   if store.length(*k) >= tcfg.minSamples and k not in scheduler.models]
        if missing:
            raise StageFailure({"expectedModels": [f"{a}/{b}" for a, b in missing]})
        return {"initialFits": scheduler.initial_fits,
                "models": sorted(f"{a}/{b}" for a, b in scheduler.models)}

    def live_stream():
        ingest_subscription(store, broker, _LIVE_MAPPING, clock)
        scheduler = shared["scheduler"]
        generator = StreamGenerator(fixture, t0=day_start)
        events = generator.events(LIVE_DAYS * 86400, include_arrivals=False)
        for event in events:
            if event.t > clock.now():
                clock.set(event.t)
            broker.update_attributes(event.entityId, dict(event.attributes))
            scheduler.advance(event.t)
        clock.set(live_end)
        scheduler.advance(live_end)
        return {"events": len(events),
                "series": {f"{k[0]}/{k[1]}": store.length(*k) for k in sorted(store.keys())
                           if not k[1].endswith(".predicted")}}

    def train_gate():
        scheduler = shared["scheduler"]
        rows = {}
        for key in sorted(store.keys()):
            if key[1].endswith(".predicted"):
                continue
            count = store.length(*key)
            has_model = key in scheduler.models
            row = {"samples": count, "model": has_model}
            if count < tcfg.minSamples:
                row["note"] = f"skipped: below minSamples ({count} < {tcfg.minSamples})"
            rows[f"{key[0]}/{key[1]}"] = row
            if (count >= tcfg.minSamples) != has_model:
                raise StageFailure({"gateViolation": f"{key[0]}/{key[1]}", "series": rows})
        return {"series": rows}

    def invocation_counts():
        scheduler = shared["scheduler"]
        expected_infers = LIVE_DAYS * 86400 // tcfg.inferencePeriodSeconds
        expected_trains = LIVE_DAYS * 86400 // tcfg.retrainPeriodSeconds
        detail = {"expectedInfersPerSeries": expected_infers,
                  "expectedTrainsPerSeries": expected_trains,
                  "infers": {f"{a}/{b}": n for (a, b), n in sorted(scheduler.infers_by_key.items())},
                  "trains": {f"{a}/{b}": n for (a, b), n in sorted(scheduler.trains_by_key.items())}}
        for key in scheduler.models:
            if scheduler.infers_by_key.get(key) != expected_infers \
                    or scheduler.trains_by_key.get(key) != expected_trains:
                raise StageFailure(detail)
        return detail

    def forecast_quality():
        scheduler = shared["scheduler"]
        model = scheduler.models.get(parking_key)
        if model is None:
            raise StageFailure({"error": "no parking model"})
        naive = train(store, parking_key[0], parking_key[1],
                      replace(tcfg, algorithm="seasonal-naive"), live_end)
        detail = {"testError": model.testError,
                  "naiveTestError": naive.testError if naive else None,
                  "threshold": cfg.rmseThreshold}
        if model.testError > cfg.rmseThreshold:
            raise StageFailure(detail)
        if naive is not None and model.testError > naive.testError:
            raise StageFailure(detail)
        return detail

    def check_writeback():
        entity = broker.get_entity(parking_key[0])
        name = parking_key[1] + "Forecast"
        if name not in entity.attributes:
            raise StageFailure({"missingAttribute": name})
        attr = entity.attributes[name]
        for meta in ("horizonStart", "horizonEnd", "issuedAt"):
            if meta not in attr.metadata:
                raise StageFailure({"missingMetadata": meta})
        return {"attribute": name, "value": attr.value, "metadata": attr.metadata,
                "predictions": len(shared["scheduler"].predictions)}

    steps = dict(zip(ESTIMATION_STAGES, (
        generate_city, publish_entities, backfill, start_scheduler, live_stream,
        train_gate, invocation_counts, forecast_quality, check_writeback), strict=True))
    try:
        return _run_stages("estimation", steps)
    finally:
        broker.close()
