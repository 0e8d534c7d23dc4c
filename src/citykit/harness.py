"""End-to-end scenario runner wiring every service together on loopback.

Two scenarios, each a fixed stage list so reports diff cleanly run to run:

* routing: synthetic city -> broker -> GTFS zip -> feed pointer -> fetcher ->
  router plan; then arrival estimations -> GTFS-RT -> overlay -> re-plan.
* estimation: historical backfill + live subscription stream -> scheduled
  retrain/inference -> forecast quality versus the naive baseline ->
  write-back onto the source entities.

A scenario runs as a script: one generator runs its stages in order and
yields each stage's pass detail. A stage that raises fails and skips the
rest. The routing scenario's feed update is the one stage that yields its
failure instead: the router must keep serving the old graph, so later stages
still run and the overall outcome becomes "fail-safe" when they pass.
Everything runs in-process; no sockets beyond what a test explicitly opens.
"""

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Optional

from citykit.broker import ContextBroker
from citykit.clock import SimulatedClock
from citykit.datamodels import bundled_registry, validate_entity
from citykit.estimator.ingest import ingest_historical, ingest_subscription
from citykit.estimator.models import TrainingConfig, train
from citykit.estimator.scheduler import EstimatorScheduler
from citykit.estimator.service import PROFILES, writeback
from citykit.estimator.store import TimeSeriesStore
from citykit.feedgen import (
    CityFixture,
    StreamGenerator,
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


def _as_failure(exc: Exception) -> StageFailure:
    return exc if isinstance(exc, StageFailure) else StageFailure(f"{type(exc).__name__}: {exc}")


@dataclass
class StageResult:
    name: str
    status: str  # pass | fail | skipped
    detail: object = None
    latencySeconds: float = 0.0


@dataclass
class ScenarioReport:
    scenario: str
    stages: list = field(default_factory=list)
    outcome: str = "fail"
    generatedAt: str = ""

    def stage(self, name: str) -> StageResult:
        for result in self.stages:
            if result.name == name:
                return result
        raise KeyError(name)


def _run_stages(scenario: str, names: tuple, stages: Iterator) -> ScenarioReport:
    """Pairs the details ``stages`` yields, in order, with ``names``.

    A yielded ``StageFailure`` fails its stage and the run goes on; if no
    stage raises, the outcome is then "fail-safe". Once ``stages`` raises,
    that stage fails and every later one is skipped.
    """
    report = ScenarioReport(scenario=scenario, generatedAt=iso_utc(time.time()))
    stopped = False
    for name in names:
        if stopped:
            report.stages.append(StageResult(name, "skipped"))
            continue
        t0 = time.perf_counter()
        try:
            detail = next(stages)
        except Exception as exc:
            detail, stopped = _as_failure(exc), True
        latency = round(time.perf_counter() - t0, 6)
        if isinstance(detail, StageFailure):
            report.stages.append(StageResult(name, "fail", detail.detail, latency))
        else:
            report.stages.append(StageResult(name, "pass", detail, latency))
    failed = any(s.status == "fail" for s in report.stages)
    report.outcome = "fail" if stopped else "fail-safe" if failed else "pass"
    return report


# ---------------------------------------------------------------------------
# routing scenario

@dataclass
class RoutingScenarioConfig:
    fixture: CityFixture = field(default_factory=CityFixture)
    corruptUpdate: bool = False


ORIGIN = "S1"
DESTINATION = "S5"
DELAYED_TRIP = "R1-T1"
DELAY_SECONDS = 600


def run_scenario_routing(config: Optional[RoutingScenarioConfig] = None) -> ScenarioReport:
    cfg = config or RoutingScenarioConfig()
    day_start = cfg.fixture.day_start()
    work_dir = Path(tempfile.mkdtemp(prefix="scenario-"))
    broker = ContextBroker(clock=SimulatedClock(day_start))
    try:
        return _run_stages("routing", ROUTING_STAGES,
                           _routing(cfg, day_start, broker, work_dir / "feed.zip"))
    finally:
        broker.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def _routing(cfg: RoutingScenarioConfig, day_start: float, broker: ContextBroker,
             zip_path: Path) -> Iterator:
    fixture = cfg.fixture
    network = generate_static_network(fixture)
    registry = bundled_registry()
    bad = [e.id for e in network if not validate_entity(e, registry).valid]
    if bad:
        raise StageFailure({"invalidEntities": bad})
    yield {"entities": len(network)}

    for entity in network:
        broker.upsert_entity(entity)
    yield {"published": len(network)}

    feed, zip_bytes = ngsi_to_gtfs(broker.query_entities())
    zip_path.write_bytes(zip_bytes)
    pointer = publish_feed_entity(str(zip_path), broker, feed_id="feed-city")
    yield {"trips": len(feed.trips), "stopTimes": len(feed.stopTimes),
           "zipBytes": len(zip_bytes), "pointer": pointer.id}

    router = Router(service_date=parse_service_date(fixture.serviceDate))
    fetcher = GtfsFetcher(router)
    applied = fetcher.poll(broker)
    if applied != 1 or router.graph is None:
        raise StageFailure({"applied": applied, "events": fetcher.events})
    yield {"applied": applied, "graphVersion": router.version}

    query = ItineraryQuery(ORIGIN, DESTINATION,
                           departAfter=int(day_start + fixture.serviceStartSeconds - 60))
    itineraries = router.plan(query)
    static_arrival = itineraries[0].arrival
    yield {"itineraries": [i.to_doc() for i in itineraries], "bestArrival": static_arrival}

    before = router.version
    try:
        if cfg.corruptUpdate:
            zip_path.write_bytes(b"\x00not a zip archive\x00")
        else:
            zip_path.write_bytes(zip_path.read_bytes())
        stat = zip_path.stat()
        # force a visibly newer pointer even on coarse filesystem clocks
        os.utime(zip_path, (stat.st_atime, stat.st_mtime + 2))
        publish_feed_entity(str(zip_path), broker, feed_id="feed-city")
        fetcher.poll(broker)
        outcome = fetcher.events[-1]["outcome"]
        update = {"outcome": outcome, "graphVersion": router.version}
        if cfg.corruptUpdate:
            update["note"] = f"feed rejected; graph v{before} retained"
        if cfg.corruptUpdate or outcome != "reloaded" or router.version != before + 1:
            update = StageFailure(update)
    except Exception as exc:
        update = _as_failure(exc)
    yield update  # a failed update leaves the old graph serving, so go on

    stream = StreamGenerator(replace(fixture, tripDelays={DELAYED_TRIP: DELAY_SECONDS}))
    interval = fixture.arrivalEmitIntervalSeconds
    offset = ((fixture.serviceStartSeconds - interval) // interval) * interval
    now = day_start + offset
    events = [e for e in stream.arrival_events(offset) if e.t == now]
    for event in events:
        broker.upsert_entity(NgsiEntity(event.entityId, event.entityType,
                                        dict(event.attributes)))
    if not events:
        raise StageFailure({"committed": 0, "emitTime": now})
    yield {"committed": len(events), "emitTime": now, "groundTruth": stream.ground_truth()}

    estimations = broker.query_entities(typeFilter="ArrivalEstimation")
    result = arrival_estimations_to_gtfsrt(estimations, int(now),
                                           TripResolver(feed, int(day_start)))
    if result.unresolved:
        raise StageFailure({"unresolved": result.unresolved})
    yield {"tripUpdates": len(result.feed["tripUpdates"]), "estimations": len(estimations)}

    overlay = router.set_realtime(result.feed)
    yield {"effectiveTrips": len(overlay.effective), "unknownTrips": overlay.unknownTrips}

    itineraries = router.plan(query)
    best = itineraries[0].arrival
    detail = {"itineraries": [i.to_doc() for i in itineraries],
              "bestArrival": best, "graphVersion": router.version,
              "arrivalShiftSeconds": best - static_arrival}
    if cfg.corruptUpdate:
        detail["note"] = f"served stale graph v{router.version}"
    yield detail


# ---------------------------------------------------------------------------
# estimation scenario

@dataclass
class EstimationScenarioConfig:
    fixture: CityFixture = field(default_factory=CityFixture)
    backfillDays: int = 20
    rmseThreshold: float = 3.0


LIVE_DAYS = 1
PARKING_NOISE_STD = 2.0
PARKING_KEY = ("parking-1", "availableSpotNumber")


def run_scenario_estimation(config: Optional[EstimationScenarioConfig] = None) -> ScenarioReport:
    cfg = config or EstimationScenarioConfig()
    specs = dict(cfg.fixture.seriesSpecs)
    specs["availableSpotNumber"] = replace(specs["availableSpotNumber"],
                                           noiseStd=PARKING_NOISE_STD)
    fixture = replace(cfg.fixture, seriesSpecs=specs)
    day_start = fixture.day_start()
    clock = SimulatedClock(day_start)
    broker = ContextBroker(clock=clock)
    try:
        return _run_stages("estimation", ESTIMATION_STAGES,
                           _estimation(cfg, fixture, day_start, clock, broker))
    finally:
        broker.close()


def _estimation(cfg: EstimationScenarioConfig, fixture: CityFixture, day_start: float,
                clock: SimulatedClock, broker: ContextBroker) -> Iterator:
    tcfg = TrainingConfig()
    live_end = day_start + LIVE_DAYS * 86400
    store = TimeSeriesStore()

    sites = generate_service_entities(fixture, t0=day_start)
    yield {"entities": len(sites)}

    for entity in sites:
        broker.upsert_entity(entity)
    yield {"published": len(sites)}

    # noise sites get no history on purpose: they demo the sample gate
    history = StreamGenerator(fixture, t0=day_start - cfg.backfillDays * 86400)
    records = []
    for event in history.series_events(cfg.backfillDays * 86400):
        if event.entityType == "NoiseLevelObserved":
            continue
        attr = next(k for k in event.attributes if k != "dateObserved")
        records.append({"entityId": event.entityId, "attr": attr,
                        "t": event.t, "value": event.attributes[attr].value})
    stats = ingest_historical(store, records)
    yield {"appended": stats.appended,
           "series": {f"{k[0]}/{k[1]}": store.length(*k) for k in store.keys()}}

    scheduler = EstimatorScheduler(store, tcfg, clock=clock,
                                   on_prediction=lambda p: writeback(p, broker))
    scheduler.start(day_start)
    missing = [k for k in store.keys()
               if store.length(*k) >= tcfg.minSamples and k not in scheduler.models]
    if missing:
        raise StageFailure({"expectedModels": [f"{a}/{b}" for a, b in missing]})
    yield {"initialFits": scheduler.initial_fits,
           "models": sorted(f"{a}/{b}" for a, b in scheduler.models)}

    ingest_subscription(store, broker, dict(PROFILES.values()), clock)
    events = StreamGenerator(fixture, t0=day_start).series_events(LIVE_DAYS * 86400)
    for event in events:
        if event.t > clock.now():
            clock.set(event.t)
        broker.update_attributes(event.entityId, dict(event.attributes))
        scheduler.advance(event.t)
    clock.set(live_end)
    scheduler.advance(live_end)
    yield {"events": len(events),
           "series": {f"{k[0]}/{k[1]}": store.length(*k) for k in store.keys()}}

    rows = {}
    for key in store.keys():
        count = store.length(*key)
        has_model = key in scheduler.models
        row = {"samples": count, "model": has_model}
        if count < tcfg.minSamples:
            row["note"] = f"skipped: below minSamples ({count} < {tcfg.minSamples})"
        rows[f"{key[0]}/{key[1]}"] = row
        if (count >= tcfg.minSamples) != has_model:
            raise StageFailure({"gateViolation": f"{key[0]}/{key[1]}", "series": rows})
    yield {"series": rows}

    expected_infers = LIVE_DAYS * 86400 // tcfg.inferencePeriodSeconds
    expected_trains = LIVE_DAYS * 86400 // tcfg.retrainPeriodSeconds
    counts = {"expectedInfersPerSeries": expected_infers,
              "expectedTrainsPerSeries": expected_trains,
              "infers": {f"{a}/{b}": n for (a, b), n in sorted(scheduler.infers_by_key.items())},
              "trains": {f"{a}/{b}": n for (a, b), n in sorted(scheduler.trains_by_key.items())}}
    for key in scheduler.models:
        if scheduler.infers_by_key.get(key) != expected_infers \
                or scheduler.trains_by_key.get(key) != expected_trains:
            raise StageFailure(counts)
    yield counts

    model = scheduler.models.get(PARKING_KEY)
    if model is None:
        raise StageFailure({"error": "no parking model"})
    naive = train(store, *PARKING_KEY, replace(tcfg, algorithm="seasonal-naive"), live_end)
    quality = {"testError": model.testError,
               "naiveTestError": naive.testError if naive else None,
               "threshold": cfg.rmseThreshold}
    if model.testError > cfg.rmseThreshold:
        raise StageFailure(quality)
    if naive is not None and model.testError > naive.testError:
        raise StageFailure(quality)
    yield quality

    name = PARKING_KEY[1] + "Forecast"
    attr = broker.get_entity(PARKING_KEY[0]).attributes.get(name)
    if attr is None:
        raise StageFailure({"missingAttribute": name})
    for meta in ("horizonStart", "horizonEnd", "issuedAt"):
        if meta not in attr.metadata:
            raise StageFailure({"missingMetadata": meta})
    yield {"attribute": name, "value": attr.value, "metadata": attr.metadata,
           "predictions": sum(scheduler.infers_by_key.values())}
