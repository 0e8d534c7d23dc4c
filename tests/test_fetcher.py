"""Feed pointer tracking: reload-once, change detection, failure logging."""

import os
from datetime import date

import pytest

from citykit.broker import ContextBroker
from citykit.gtfs import publish_feed_entity, serialize_feed
from citykit.gtfs_fetcher import GtfsFetcher
from citykit.ngsi import make_entity
from citykit.routing import ItineraryQuery, Router, RouterClient, RouterServer

DAY = 1748822400  # 2025-06-02 00:00 UTC


@pytest.fixture
def feed_zip(tmp_path, city_feed):
    path = tmp_path / "city.zip"
    path.write_bytes(serialize_feed(city_feed))
    # pin mtime so dateModified is reproducible across test hosts
    os.utime(path, (DAY, DAY))
    return path


@pytest.fixture
def router():
    return Router(service_date=date(2025, 6, 2))


def test_poll_applies_each_pointer_once(broker, router, feed_zip):
    publish_feed_entity(str(feed_zip), broker)
    fetcher = GtfsFetcher(router)
    assert fetcher.poll(broker) == 1
    assert router.version == 1
    assert fetcher.poll(broker) == 0  # unchanged pointer, no second reload
    assert router.version == 1
    assert sum(1 for e in fetcher.events if e["outcome"] == "reloaded") == 1


def test_date_modified_bump_triggers_reload(broker, router, feed_zip):
    publish_feed_entity(str(feed_zip), broker)
    fetcher = GtfsFetcher(router)
    fetcher.poll(broker)
    os.utime(feed_zip, (DAY + 3600, DAY + 3600))
    publish_feed_entity(str(feed_zip), broker)  # same id, fresh dateModified
    assert fetcher.poll(broker) == 1
    assert router.version == 2


def test_reload_event_records_pointer_details(broker, router, feed_zip):
    entity = publish_feed_entity(str(feed_zip), broker, feed_id="feed-main")
    fetcher = GtfsFetcher(router)
    fetcher.poll(broker)
    (event,) = fetcher.events
    assert event["entityId"] == "feed-main"
    assert event["url"] == entity.value("url")
    assert event["dateModified"] == entity.value("dateModified")
    assert event["outcome"] == "reloaded"
    assert event["version"] == 1


def test_corrupt_archive_keeps_previous_graph(broker, router, feed_zip, tmp_path):
    publish_feed_entity(str(feed_zip), broker, feed_id="feed-main")
    fetcher = GtfsFetcher(router)
    fetcher.poll(broker)

    bad = tmp_path / "bad.zip"
    bad.write_bytes(b"this is not a zip archive")
    os.utime(bad, (DAY, DAY))
    publish_feed_entity(str(bad), broker, feed_id="feed-main")
    assert fetcher.poll(broker) == 0
    assert fetcher.events[-1]["outcome"] == "parse-error"
    assert router.version == 1  # old graph still serving
    itineraries = router.plan(ItineraryQuery(
        origin="S1", destination="S5", departAfter=DAY + 28000))
    assert itineraries[0].legs[0].tripId == "R1-T1"

    # the broken pointer was not remembered, so a fixed one re-applies
    os.utime(feed_zip, (DAY + 7200, DAY + 7200))
    publish_feed_entity(str(feed_zip), broker, feed_id="feed-main")
    assert fetcher.poll(broker) == 1
    assert router.version == 2


def test_missing_archive_is_a_fetch_error(broker, router, tmp_path):
    broker.upsert_entity(make_entity(
        "feed-gone", "GtfsTransitFeedFile",
        url=str(tmp_path / "nowhere.zip"), dateModified="2025-06-02T00:00:00Z"))
    fetcher = GtfsFetcher(router)
    assert fetcher.poll(broker) == 0
    assert fetcher.events[-1]["outcome"] == "fetch-error"
    assert router.version == 0


def test_pointer_without_url_is_a_fetch_error(router):
    fetcher = GtfsFetcher(router)
    entity = make_entity("feed-blank", "GtfsTransitFeedFile",
                         dateModified="2025-06-02T00:00:00Z")
    assert fetcher.consider(entity) is False
    assert fetcher.events[-1]["outcome"] == "fetch-error"
    assert "url" in fetcher.events[-1]["detail"]


def test_attach_reloads_on_pointer_commits(broker, router, feed_zip):
    fetcher = GtfsFetcher(router)
    fetcher.attach(broker)
    publish_feed_entity(str(feed_zip), broker)
    assert router.version == 1  # applied from the notification, no poll needed
    publish_feed_entity(str(feed_zip), broker)  # same mtime, same pointer
    assert sum(1 for e in fetcher.events if e["outcome"] == "reloaded") == 1


def test_attach_ignores_unrelated_commits(broker, router):
    fetcher = GtfsFetcher(router)
    fetcher.attach(broker)
    broker.upsert_entity(make_entity("S1", "Stop", name="First"))
    assert fetcher.events == []
    assert router.version == 0


def test_malformed_notification_entity_is_skipped(router):
    fetcher = GtfsFetcher(router)
    fetcher.handle_notification({"data": [{"id": "feed-x"}]})  # no type field
    assert fetcher.events == []


class TestRemoteRouter:
    @pytest.fixture
    def served(self, router):
        server = RouterServer(router)
        url = server.start()
        yield url, router
        server.stop()

    def test_reload_is_delegated_over_http(self, broker, served, feed_zip):
        url, router = served
        publish_feed_entity(str(feed_zip), broker)
        fetcher = GtfsFetcher(RouterClient(url))
        assert fetcher.poll(broker) == 1
        assert router.version == 1
        assert fetcher.events[-1] == {
            "entityId": "feed-city", "url": fetcher.events[-1]["url"],
            "dateModified": fetcher.events[-1]["dateModified"],
            "outcome": "reloaded", "version": 1,
        }

    def test_rejected_reload_is_a_parse_error(self, broker, served, tmp_path):
        url, router = served
        bad = tmp_path / "bad.zip"
        bad.write_bytes(b"garbage")
        os.utime(bad, (DAY, DAY))
        publish_feed_entity(str(bad), broker)
        fetcher = GtfsFetcher(RouterClient(url))
        assert fetcher.poll(broker) == 0
        assert fetcher.events[-1]["outcome"] == "parse-error"
        assert router.version == 0

    def test_unreachable_router_is_a_fetch_error(self, broker, feed_zip):
        publish_feed_entity(str(feed_zip), broker)
        fetcher = GtfsFetcher(RouterClient("http://127.0.0.1:9"))  # discard port, nothing listens
        assert fetcher.poll(broker) == 0
        assert fetcher.events[-1]["outcome"] == "fetch-error"
