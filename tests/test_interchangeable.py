"""Consumers take either kind of service: a broker in process or a
BrokerClient over a BrokerServer, a Router or a RouterClient over a
RouterServer. Each scenario runs on every kind and must give the same
result, including the same exception classes on failure.
"""

import os
from datetime import date

import pytest

from citykit.broker import (
    ContextBroker,
    InvalidEntity,
    MalformedPattern,
    NotFound,
    TypeMismatch,
    parse_q,
)
from citykit.broker_http import BrokerClient, BrokerServer
from citykit.clock import SimulatedClock
from citykit.estimator.ingest import ingest_snapshot
from citykit.estimator.models import Prediction
from citykit.estimator.service import writeback
from citykit.estimator.store import TimeSeriesStore
from citykit.feedgen import CityFixture, StreamGenerator, generate_city
from citykit.gtfs import publish_feed_entity, serialize_feed
from citykit.gtfs_fetcher import GtfsFetcher
from citykit.ngsi import Attribute, NgsiEntity, iso_utc, make_entity
from citykit.routing import Router, RouterClient, RouterServer

DAY = 1748822400  # 2025-06-02 00:00 UTC
KINDS = ("in-process", "http")


@pytest.fixture
def open_broker():
    """open_broker(kind) -> a fresh, empty broker of that kind."""
    closers = []

    def open_(kind):
        if kind == "in-process":
            broker = ContextBroker()
            closers.append(broker.close)
            return broker
        server = BrokerServer(ContextBroker())
        closers.append(server.stop)
        return BrokerClient(server.start())

    yield open_
    for close in closers:
        close()


@pytest.fixture
def open_router():
    """open_router(kind) -> (handle given to the fetcher, the Router behind it)."""
    closers = []

    def open_(kind):
        router = Router(service_date=date(2025, 6, 2))
        if kind == "in-process":
            return router, router
        server = RouterServer(router)
        closers.append(server.stop)
        return RouterClient(server.start()), router

    yield open_
    for close in closers:
        close()


def on_every_broker(open_broker, scenario):
    """Run scenario(broker) on each kind; returns the one shared result."""
    results = [scenario(open_broker(kind)) for kind in KINDS]
    assert results[0] == results[1]
    return results[0]


@pytest.fixture
def feed_zip(tmp_path, city_feed):
    path = tmp_path / "city.zip"
    path.write_bytes(serialize_feed(city_feed))
    os.utime(path, (DAY, DAY))  # pins dateModified
    return path


def test_publish_feed_entity(open_broker, feed_zip):
    def scenario(broker):
        published = publish_feed_entity(str(feed_zip), broker, feed_id="feed-main")
        return published.to_wire(), broker.get_entity("feed-main").to_wire()

    published, stored = on_every_broker(open_broker, scenario)
    assert published == stored


@pytest.mark.parametrize("router_kind", KINDS)
@pytest.mark.parametrize("broker_kind", KINDS)
def test_fetcher_poll(open_broker, open_router, broker_kind, router_kind,
                      feed_zip, tmp_path):
    bad = tmp_path / "bad.zip"
    bad.write_bytes(b"not a zip archive")
    os.utime(bad, (DAY, DAY))
    broker = open_broker(broker_kind)
    handle, router = open_router(router_kind)
    fetcher = GtfsFetcher(handle)

    publish_feed_entity(str(feed_zip), broker, feed_id="feed-main")
    assert [fetcher.poll(broker), fetcher.poll(broker)] == [1, 0]
    publish_feed_entity(str(bad), broker, feed_id="feed-main")
    assert fetcher.poll(broker) == 0
    assert [e["outcome"] for e in fetcher.events] == ["reloaded", "parse-error"]
    assert router.version == 1  # the rejected feed left the graph in place


@pytest.mark.parametrize("router_kind", KINDS)
def test_fetcher_missing_archive_is_a_fetch_error(open_router, router_kind, tmp_path):
    handle, router = open_router(router_kind)
    fetcher = GtfsFetcher(handle)
    pointer = make_entity("feed-gone", "GtfsTransitFeedFile",
                          url=f"file://{tmp_path}/missing.zip", dateModified="x")
    assert fetcher.consider(pointer) is False
    assert [e["outcome"] for e in fetcher.events] == ["fetch-error"]
    assert router.version == 0


def test_query_entities(open_broker):
    def scenario(broker):
        for i in range(4):
            broker.upsert_entity(make_entity(f"s-{i}", "Sensor", level=i, name=f"n{i}"))
        broker.upsert_entity(make_entity("p-1", "ParkingSite", level=2))
        ids = [[e.id for e in broker.query_entities(**filters)] for filters in (
            {},
            {"typeFilter": "Sensor"},
            {"idPattern": "^s-[12]"},
            {"typeFilter": "Sensor", "attrFilter": parse_q("level>=2;name!=n3")},
            {"attrFilter": [("name", "==", "n1")]},
            {"attrFilter": [("level", "==", 2.0)]},
        )]
        # a `;` inside a string literal is not a clause separator
        broker.upsert_entity(make_entity("k-1", "Kiosk", name='a;b "c;d"'))
        ids.append([e.id for e in broker.query_entities(
            attrFilter=[("name", "==", 'a;b "c;d"'), ("name", "!=", ";")])])
        return ids

    assert on_every_broker(open_broker, scenario) == [
        ["p-1", "s-0", "s-1", "s-2", "s-3"],
        ["s-0", "s-1", "s-2", "s-3"],
        ["s-1", "s-2"],
        ["s-2"],
        ["s-1"],
        ["p-1", "s-2"],
        ["k-1"],
    ]


def test_a_bool_equals_no_number(open_broker):
    def scenario(broker):
        broker.upsert_entity(make_entity("on", "Sensor", flag=True, count=1))
        broker.upsert_entity(make_entity("off", "Sensor", flag=False, count=0))
        return [[e.id for e in broker.query_entities(attrFilter=parse_q(q))] for q in (
            "flag==1", "flag!=1", "flag==true", "count==true", "count!=true", "count==1.0")]

    assert on_every_broker(open_broker, scenario) == [
        [], ["off", "on"], ["on"], [], ["off", "on"], ["on"]]


def test_ingest_snapshot(open_broker):
    mapping = {"OnStreetParking": "availableSpotNumber"}

    def scenario(broker):
        for i, spots in enumerate((4, 7, "full")):
            broker.upsert_entity(make_entity(
                f"parking-{i}", "OnStreetParking", availableSpotNumber=spots,
                dateObserved=iso_utc(DAY + 60 * i)))
        store = TimeSeriesStore()
        stats = ingest_snapshot(store, broker, mapping, SimulatedClock(DAY))
        return ({"appended": stats.appended, "skippedNonNumeric": stats.skipped_non_numeric},
                {key: store.get(*key) for key in store.keys()})

    stats, series = on_every_broker(open_broker, scenario)
    assert stats == {"appended": 2, "skippedNonNumeric": 1}
    assert sorted(series) == [("parking-0", "availableSpotNumber"),
                              ("parking-1", "availableSpotNumber")]


def test_writeback(open_broker):
    def forecast(entity_id):
        return Prediction(entity_id, "availableSpotNumber", issuedAt=DAY,
                          horizonStart=DAY + 900, horizonEnd=DAY + 1800, value=5.5)

    def scenario(broker):
        broker.upsert_entity(make_entity("parking-1", "OnStreetParking",
                                         availableSpotNumber=4))
        kept = writeback(forecast("parking-1"), broker)
        gone = writeback(forecast("parking-9"), broker)
        return kept, gone, broker.get_entity("parking-1").to_wire()

    kept, gone, doc = on_every_broker(open_broker, scenario)
    assert (kept, gone) == (True, False)
    assert doc["attributes"]["availableSpotNumberForecast"] == {
        "value": 5.5, "valueType": "Number",
        "metadata": {"horizonStart": DAY + 900, "horizonEnd": DAY + 1800,
                     "issuedAt": DAY},
    }


def test_stream_generator_emit(open_broker):
    fixture = CityFixture()

    def scenario(broker):
        for entity in generate_city(fixture):
            broker.upsert_entity(entity)
        clock = SimulatedClock(DAY + 27000)
        count = StreamGenerator(fixture, t0=DAY + 27000).emit(broker, clock=clock,
                                                               duration=2700)
        return count, clock.now(), [e.to_wire() for e in broker.query_entities()]

    count, now, _ = on_every_broker(open_broker, scenario)
    assert count > 0
    assert now == DAY + 29700


@pytest.mark.parametrize("kind", KINDS)
def test_failures_raise_the_same_exception_classes(open_broker, kind):
    broker = open_broker(kind)
    broker.upsert_entity(make_entity("s-1", "Sensor", name="north"))
    with pytest.raises(NotFound):
        broker.get_entity("ghost")
    with pytest.raises(NotFound):
        broker.update_attributes("ghost", {"level": Attribute(1, "Number")})
    with pytest.raises(InvalidEntity):
        broker.upsert_entity(NgsiEntity("x", "T", {"n": Attribute("s", "Number")}))
    with pytest.raises(MalformedPattern):
        broker.query_entities(idPattern="(")
    with pytest.raises(TypeMismatch):
        broker.query_entities(attrFilter=[("name", "<", 3)])
