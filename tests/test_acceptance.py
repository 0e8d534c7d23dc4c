"""Acceptance gate: the package's headline guarantees, one check per claim.

Each test covers one stated guarantee end to end and prints a single
PASS/FAIL line (run with -s to see them all); wall-clock budgets are
enforced with the monotonic clock.
"""

import math
import re
import time
from dataclasses import replace
from datetime import date

from citykit.broker import CollectSink, ContextBroker, Subscription, TypeMismatch
from citykit.datamodels import bundled_registry, validate_batch
from citykit.estimator.models import TrainingConfig, fit_ridge, train
from citykit.estimator.scheduler import EstimatorScheduler
from citykit.estimator.store import TimeSeriesStore
from citykit.feedgen import (
    CityFixture,
    Lcg64,
    generate_city,
    generate_static_network,
    seed_defects,
)
from citykit.gtfs import ngsi_to_gtfs, parse_feed, serialize_feed
from citykit.gtfs_realtime import TripResolver, arrival_estimations_to_gtfsrt
from citykit.harness import run_scenario_routing
from citykit.ngsi import Attribute, make_entity
from citykit.routing import (
    ItineraryQuery,
    PlanError,
    apply_realtime,
    build_graph,
    plan,
)
from citykit.transforms import ngsi_to_ngsild

from oracles import (
    OrderingMismatch,
    extract_ld_values,
    min_arrival,
    random_entity,
    random_filters,
    random_network,
    random_query,
    random_store,
    random_trip_updates,
    ridge_residual,
    scan_query,
    value_multiset,
)

DAY = 1748822400  # 2025-06-02 00:00 UTC


def report(label, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_estimator_defaults_gate_and_daily_cadence():
    started = time.perf_counter()

    def filled_store(n):
        store = TimeSeriesStore()
        for i in range(n):
            store.append("p-1", "availableSpotNumber", DAY - (n - i) * 900.0,
                         20.0 + 6.0 * math.sin(2 * math.pi * i / 96.0))
        return store

    config = TrainingConfig()
    below = train(filled_store(999), "p-1", "availableSpotNumber", config, DAY)
    at = train(filled_store(1000), "p-1", "availableSpotNumber", config, DAY)

    scheduler = EstimatorScheduler(filled_store(1000), config)
    scheduler.start(DAY)
    scheduler.advance(DAY + 86400)
    key = ("p-1", "availableSpotNumber")
    trains = scheduler.trains_by_key.get(key)
    infers = scheduler.infers_by_key.get(key)

    elapsed = time.perf_counter() - started
    report("estimator defaults: model at 1000 samples, not 999; "
           "one retrain and 96 inferences per simulated day",
           below is None and at is not None and trains == 1 and infers == 96
           and elapsed < 10.0,
           f"trains={trains} infers={infers} {elapsed:.2f}s")


def test_ridge_solver_residuals_on_seeded_problems():
    started = time.perf_counter()
    rng = Lcg64(20250602)
    worst = 0.0
    for _ in range(100):
        lags = 1 + rng.randrange(8)
        n = lags + 2 + rng.randrange(2000 - lags - 1)
        values = [rng.gauss(5.0)]
        for _ in range(n - 1):
            values.append(1.0 + 0.4 * values[-1] + rng.gauss(2.0))
        lam = rng.choice([0.0, 1e-4, 0.1, 1.0, 10.0])
        beta = fit_ridge(values, lags, lam)
        worst = max(worst, ridge_residual(values, lags, lam, beta))
    elapsed = time.perf_counter() - started
    report("ridge solver: normal-equation relative residual <= 1e-8 "
           "on 100 seeded problems (lags <= 8, n <= 2000)",
           worst <= 1e-8 and elapsed < 5.0,
           f"worst={worst:.2e} {elapsed:.2f}s")


def test_noise_free_autoregression_is_recovered_exactly():
    values = [0.0]
    for _ in range(29):
        values.append(3.0 + 0.5 * values[-1])
    intercept, coefficient = fit_ridge(values, 1, 0.0)
    ok = abs(intercept - 3.0) <= 1e-8 and abs(coefficient - 0.5) <= 1e-8
    report("noise-free y_t = 0.5*y_(t-1) + 3: fit within 1e-8 of (3, 0.5)",
           ok, f"intercept={intercept!r} coefficient={coefficient!r}")


def test_planner_matches_the_enumerator_on_200_networks():
    started = time.perf_counter()
    mismatches = []
    for seed in range(200):
        rng = Lcg64(seed * 9176 + 31)
        graph = build_graph(random_network(rng), date(2025, 6, 2))
        updates = random_trip_updates(rng, graph)
        query = ItineraryQuery(**random_query(rng, graph, graph.dayStart))
        for overlay in (None, apply_realtime(graph, updates)):
            expected = min_arrival(graph, query, overlay, max_transfers=3)
            try:
                got = plan(graph, query, overlay, max_transfers=3)[0].arrival
            except PlanError:
                got = None
            if got != expected:
                mismatches.append((seed, overlay is not None, expected, got))
    elapsed = time.perf_counter() - started
    report("planner first-itinerary arrival equals the brute-force minimum "
           "on 200 random networks, with and without realtime overlays",
           not mismatches and elapsed < 60.0,
           f"mismatches={len(mismatches)} {elapsed:.2f}s")


def test_routing_pipeline_end_to_end():
    started = time.perf_counter()
    scenario = run_scenario_routing()
    stages_ok = scenario.outcome == "pass"

    # a 120 s countdown turns into an arrival override of exactly now + 120
    fixture = CityFixture()
    network = generate_static_network(fixture)
    feed, _ = ngsi_to_gtfs(network)
    day = int(fixture.day_start())
    now = day + 28740
    result = arrival_estimations_to_gtfsrt(
        [make_entity("a-1", "ArrivalEstimation",
                     refStop=Attribute("S5", "Reference"),
                     refLine=Attribute("R1", "Reference"),
                     remainingTime=120)],
        now, TripResolver(feed, day))
    update = result.feed["tripUpdates"][0]["stopTimeUpdates"][0]
    override_ok = not result.unresolved and update["arrivalOverride"] == now + 120

    # the reported shift equals what the enumerator predicts for the delay
    graph = build_graph(feed, service_date=date(2025, 6, 2))
    query = ItineraryQuery("S1", "S5", day + 28740)
    calls = len(graph.tripStopTimes["R1-T1"])
    overlay = apply_realtime(graph, {"tripUpdates": [
        {"tripId": "R1-T1",
         "stopTimeUpdates": [{"stopSequence": s, "delaySeconds": 600}
                             for s in range(1, calls + 1)]},
    ]})
    predicted_shift = (min_arrival(graph, query, overlay)
                       - min_arrival(graph, query))
    reported_shift = scenario.stage("plan-realtime").detail["arrivalShiftSeconds"]

    elapsed = time.perf_counter() - started
    report("routing pipeline: every stage passes; remainingTime 120 -> "
           "override now+120; replanned shift equals the enumerator's delta",
           stages_ok and override_ok and reported_shift == predicted_shift
           and elapsed < 30.0,
           f"shift={reported_shift} predicted={predicted_shift} {elapsed:.2f}s")


def test_broker_equivalence_completeness_and_unsubscribe():
    # indexed query vs. linear scan on 1000 randomized stores and filters
    mismatches = 0
    for seed in range(1000):
        rng = Lcg64(seed * 7349 + 11)
        entities = random_store(rng, 1 + rng.randrange(30))
        tf, ip, af = random_filters(rng)
        broker = ContextBroker(delivery="manual")
        for entity in entities:
            broker.upsert_entity(entity)
        try:
            got = [e.id for e in broker.query_entities(tf, ip, af)]
        except TypeMismatch:
            got = TypeMismatch
        try:
            want = [e.id for e in scan_query(entities, tf, ip, af)]
        except OrderingMismatch:
            want = TypeMismatch
        if got != want:
            mismatches += 1
        broker.close()

    # at zero throttle every commit is delivered, in order
    broker = ContextBroker(delivery="inline")
    sink = CollectSink()
    broker.subscribe(Subscription(id="", target=sink))
    for i in range(500):
        name = f"e-{i % 50:03d}"
        if i >= 50 and i % 2:
            broker.update_attributes(name, {"level": Attribute(i, "Number")})
        else:
            broker.upsert_entity(make_entity(name, "Sensor", level=i))
    complete = len(sink.notifications) == 500
    ordered = [doc["data"][0]["attributes"]["level"]["value"]
               for doc in sink.notifications] == list(range(500))
    broker.close()

    # nothing is delivered after unsubscribe returns
    leaked = 0
    for trial in range(100):
        broker = ContextBroker(delivery="inline")
        sink = CollectSink()
        sub_id = broker.subscribe(Subscription(id="", target=sink))
        broker.upsert_entity(make_entity(f"t-{trial}", "Sensor", level=1))
        seen = len(sink.notifications)
        broker.unsubscribe(sub_id)
        broker.upsert_entity(make_entity(f"t-{trial}", "Sensor", level=2))
        broker.upsert_entity(make_entity(f"u-{trial}", "Sensor", level=3))
        leaked += len(sink.notifications) - seen
        broker.close()

    report("broker: scan equivalence on 1000 stores (incl. ordering); "
           "500/500 commits notified at zero throttle; "
           "zero notifications after unsubscribe in 100 trials",
           mismatches == 0 and complete and ordered and leaked == 0,
           f"mismatches={mismatches} leaked={leaked}")


def test_defect_seeded_corpus_counts_match_the_plan():
    fixture = replace(CityFixture(), stopCount=40, parkingSites=20,
                      parkingSpots=7, trafficSites=3, noiseSites=2)
    corpus = generate_city(fixture)
    registry = bundled_registry()

    clean = validate_batch(corpus, registry)
    plan = {"missing-required": 12, "wrong-type": 12, "out-of-range": 12,
            "not-in-enum": 4, "pattern-mismatch": 2, "unknown-entity-type": 3}
    # only two entities carry pattern rules, so the seed must leave them
    # for the pattern defects; 1 does
    seeded = seed_defects(corpus, plan, seed=1)
    summary = validate_batch(seeded.entities, registry)

    report("validation: per-kind violation counts on a 200-entity "
           "defect-seeded corpus match the plan exactly; clean corpus is clean",
           len(corpus) == 200
           and clean["invalid"] == 0 and clean["perKindCounts"] == {}
           and summary["perKindCounts"] == plan
           and summary["invalid"] == sum(plan.values()),
           f"entities={len(corpus)} perKind={summary['perKindCounts']}")


def test_linked_data_rendering_preserves_values():
    rng = Lcg64(440)
    bad = 0
    for index in range(500):
        entity = random_entity(rng, index)
        doc = ngsi_to_ngsild(entity, "https://example.org/ctx.jsonld")
        want = value_multiset(
            (name, attr.value) for name, attr in entity.attributes.items())
        got = value_multiset(extract_ld_values(doc))
        expected_id = f"urn:ngsi-ld:{entity.entityType}:{entity.id}"
        if got != want or doc["id"] != expected_id:
            bad += 1
    report("linked data: (name, value) multiset preserved and ids in "
           "urn:ngsi-ld:{type}:{id} form on 500 random entities",
           bad == 0, f"failures={bad}")


def test_gtfs_zip_determinism_and_round_trip():
    network = generate_static_network(CityFixture())
    reference, reference_bytes = ngsi_to_gtfs(network)
    rng = Lcg64(7)
    stable = True
    for _ in range(10):
        shuffled = list(network)
        for i in range(len(shuffled) - 1, 0, -1):
            j = rng.randrange(i + 1)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        feed, zip_bytes = ngsi_to_gtfs(shuffled)
        if zip_bytes != reference_bytes or feed != reference:
            stable = False

    round_trips = parse_feed(serialize_feed(reference)) == reference
    big = generate_static_network(replace(CityFixture(), stopCount=40))
    big_feed, _ = ngsi_to_gtfs(big)
    round_trips = round_trips and parse_feed(serialize_feed(big_feed)) == big_feed
    for seed in range(30):
        feed = random_network(Lcg64(seed * 3643 + 5))
        if parse_feed(serialize_feed(feed)) != feed.sort():
            round_trips = False

    report("gtfs: permuted entity input yields byte-identical zips; "
           "parse(serialize(feed)) == feed on every fixture",
           stable and round_trips, "10 permutations, 32 feeds")
