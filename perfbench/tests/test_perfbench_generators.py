"""The benchmark's generators: equal seeds give identical inputs, bytes included."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from citykit.gtfs import ngsi_to_gtfs, parse_feed  # noqa: E402

SPEC = gen.GridSpec(4, 5, tripsPerRoute=4)


def wire(entities):
    return [e.to_wire() for e in entities]


def test_grid_city_and_its_zip_repeat_byte_for_byte():
    a, b = gen.grid_entities(SPEC, 7), gen.grid_entities(SPEC, 7)
    assert wire(a) == wire(b)
    assert ngsi_to_gtfs(a)[1] == ngsi_to_gtfs(b)[1]
    assert ngsi_to_gtfs(gen.grid_entities(SPEC, 8))[1] != ngsi_to_gtfs(a)[1]


def test_alternate_feed_version_keeps_trip_ids_and_times():
    z0 = ngsi_to_gtfs(gen.grid_entities(SPEC, 7))[1]
    z1 = ngsi_to_gtfs(gen.grid_entities(SPEC, 7, version=1))[1]
    assert z0 != z1
    f0, f1 = parse_feed(z0), parse_feed(z1)
    assert f0.trips == f1.trips and f0.stopTimes == f1.stopTimes
    assert f0.routes != f1.routes


def test_rider_queries_repeat_and_keep_their_mix():
    a, b = gen.rider_queries(SPEC, 3), gen.rider_queries(SPEC, 3)
    assert a == b
    assert a != gen.rider_queries(SPEC, 4)
    mix = {(q.kind, q.n): 0 for q in a}
    for q in a:
        mix[(q.kind, q.n)] += 1
    assert mix == {("short", 1): 12, ("cross", 1): 12, ("short", 3): 6, ("cross", 3): 6}


def test_live_ticks_repeat():
    spec = gen.LiveSpec(SPEC, pairs=3)
    table = gen.grid_timetable(SPEC, 5)
    pairs = gen.live_pairs(spec, 5)
    assert pairs == gen.live_pairs(spec, 5)
    for k in (0, 7):
        a = gen.live_tick(spec, table, pairs, 5, k)
        b = gen.live_tick(spec, table, pairs, 5, k)
        assert wire(a.pop("entities")) == wire(b.pop("entities"))
        assert a == b


def test_sensor_inputs_repeat():
    records = gen.sensor_fleet(2, 30)
    assert records == gen.sensor_fleet(2, 30)
    assert gen.sensor_ops(2, records, 200, 0.2) == gen.sensor_ops(2, records, 200, 0.2)
    assert gen.sensor_ops(2, records, 200, 0.2) != gen.sensor_ops(3, records, 200, 0.2)


def test_forecast_streams_repeat():
    from citykit.feedgen import StreamGenerator
    a = StreamGenerator(gen.forecast_fixture(4, 6)).series_events(86400)
    b = StreamGenerator(gen.forecast_fixture(4, 6)).series_events(86400)
    assert [e.to_doc() for e in a] == [e.to_doc() for e in b]
