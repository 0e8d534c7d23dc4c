"""Each output check passes a right answer and rejects a planted fault."""

import copy
import os
import sys
from datetime import date

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from citykit.broker import ContextBroker, parse_q  # noqa: E402
from citykit.estimator.models import TrainingConfig  # noqa: E402
from citykit.gtfs import ngsi_to_gtfs  # noqa: E402
from citykit.routing import ItineraryQuery, Router  # noqa: E402
from citykit.transforms import MappingRuleSet, json_to_ngsi  # noqa: E402

SPEC = gen.GridSpec(5, 5, tripsPerRoute=8)


def router_for(seed):
    router = Router(service_date=date(2025, 6, 2))
    router.load_zip_bytes(ngsi_to_gtfs(gen.grid_entities(SPEC, seed))[1])
    return router


def answer(router, q):
    found = router.plan(ItineraryQuery(q.origin, q.destination, q.departAfter,
                                       maxItineraries=q.n))
    return [i.to_doc() for i in found]


def test_plan_check_rejects_a_shifted_leg():
    router = router_for(1)
    index = checks.trip_index(gen.grid_timetable(SPEC, 1))
    shifted = 0
    for q in gen.rider_queries(SPEC, 1, per_cell=2):
        good = answer(router, q)
        assert checks.check_plan(good, q, index, {}) == []
        for i, itin in enumerate(good):
            for k, leg in enumerate(itin["legs"]):
                if leg["mode"] != "transit":
                    continue  # a walk may legally start later; a ride may not
                bad = copy.deepcopy(good)
                bad[i]["legs"][k]["startTime"] += 60
                bad[i]["legs"][k]["endTime"] += 60
                assert checks.check_plan(bad, q, index, {}), (q, i, k)
                shifted += 1
        one = gen.RiderQuery(q.origin, q.destination, q.departAfter, 1, q.kind)
        assert checks.check_plan(good * 2, one, index, {})
    assert shifted > 10


def test_probe_check_sees_the_delay_and_rejects_a_missing_one():
    spec = gen.LiveSpec(SPEC, pairs=3)
    table = gen.grid_timetable(SPEC, 2)
    index = checks.trip_index(table)
    router = router_for(2)
    tick = gen.live_tick(spec, table, gen.live_pairs(spec, 2), 2, 4)
    static = answer(router, tick["probe"])
    router.set_realtime(tick["feed"])
    delayed = answer(router, tick["probe"])
    overlay = checks.overlay_times(index, tick["feed"])
    assert checks.check_plan(delayed, tick["probe"], index, overlay) == []
    assert checks.check_probe(delayed, tick) == []
    assert checks.check_probe(static, tick)
    assert checks.check_plan(static, tick["probe"], index, overlay)


def sensor_world(seed=1, devices=40, ops=300):
    records = gen.sensor_fleet(seed, devices)
    subs = gen.sensor_subscriptions()
    stream = gen.sensor_ops(seed, records, ops, 0.2)
    writes = [{**op, "due": float(op["seq"])} for op in stream if op["op"] == "patch"]
    received = {(s["name"], w["id"], w["seq"]): w["due"] + 0.01
                for w in writes for s in subs
                if gen.subscription_matches(s, w["id"], w["type"], w["attrs"])}
    return records, subs, stream, writes, received


def test_notification_check_rejects_a_dropped_and_a_stray_notification():
    _, subs, _, writes, received = sensor_world()
    problems, latencies = checks.check_notifications(writes, received, subs)
    assert problems == [] and len(latencies) == len(received)
    dropped = dict(received)
    dropped.pop(next(iter(dropped)))
    assert checks.check_notifications(writes, dropped, subs)[0]
    w = writes[0]
    stray_sub = next(s for s in subs
                     if not gen.subscription_matches(s, w["id"], w["type"], w["attrs"]))
    stray = {**received, (stray_sub["name"], w["id"], w["seq"]): 0.0}
    assert checks.check_notifications(writes, stray, subs)[0]


def test_query_check_agrees_with_the_broker_and_rejects_a_wrong_id():
    records, _, stream, _, _ = sensor_world()
    rules = {k: MappingRuleSet.from_doc(d) for k, d in gen.sensor_rulesets().items()}
    broker = ContextBroker()
    for rec in records:
        broker.upsert_entity(json_to_ngsi(rec, rules[rec["kind"]]).entities[0])
    queries = [op for op in stream if op["op"] == "query"]
    assert queries
    for op in queries:
        ids = [e.id for e in broker.query_entities(typeFilter=op["type"],
                                                   attrFilter=parse_q(op["q"]))]
        assert checks.check_query(op, ids) == []
    op = next(op for op in queries if op["expect"])
    assert checks.check_query(op, op["expect"][1:])
    assert checks.check_query(op, sorted(op["expect"][1:] + ["tf-9999"]))


def test_forecast_gates_reject_a_miscounted_inference():
    city = workloads.ForecastCity(3, 8, TrainingConfig(minSamples=200, windowSize=400))
    try:
        city.replay_day(workloads.Outcome())
        assert city.problems() == []
        key = sorted(city.scheduler.models)[0]
        city.scheduler.infers_by_key[key] -= 1
        assert any(p.startswith("invocations") for p in city.problems())
    finally:
        city.broker.close()


def test_get_check_rejects_an_overwritten_seq():
    ordered = [[5, 0.0, 1.0], [9, 2.0, 3.0]]  # 9 was sent after 5 was acknowledged
    assert checks.readable_seqs(ordered, 4.0, 5.0) == {9}
    overlapping = [[5, 0.0, 2.0], [9, 1.0, 3.0]]  # either may have committed last
    assert checks.readable_seqs(overlapping, 4.0, 5.0) == {5, 9}
    in_flight = [[5, 0.0, 1.0], [9, 4.5, None]]
    assert checks.readable_seqs(in_flight, 4.0, 5.0) == {5, 9}
    assert checks.readable_seqs([], 4.0, 5.0) == {0}

    records = gen.sensor_fleet(1, 3)
    model = gen.sensor_model(records)
    eid = sorted(model)[0]
    kind, static = model[eid]
    doc = {"id": eid, "entityType": kind,
           "attributes": {**{k: {"value": v} for k, v in static.items()},
                          "seq": {"value": 5}}}
    op = {"op": "get", "id": eid}
    assert checks.check_get(op, doc, model, {5, 9}) == []
    assert checks.check_get(op, doc, model, {9})
    moved = {**doc, "attributes": {**doc["attributes"], "district": {"value": -1}}}
    assert checks.check_get(op, moved, model, {5})
