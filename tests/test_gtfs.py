"""Static feed model: validation, deterministic zips, round trips."""

import zipfile
from io import BytesIO

import pytest

from citykit.feedgen import Lcg64, generate_static_network
from citykit.gtfs import (
    Agency,
    FeedError,
    GtfsFeed,
    Route,
    Service,
    Stop,
    StopTime,
    Trip,
    file_url,
    format_time,
    load_feed,
    ngsi_to_gtfs,
    parse_feed,
    parse_time,
    publish_feed_entity,
    serialize_feed,
)
from citykit.ngsi import make_entity

from oracles import random_network


def minimal_feed():
    return GtfsFeed(
        agencies=[Agency("A1", "Metro", "https://metro.example", "UTC")],
        stops=[Stop("S1", "First", 40.0, -3.0), Stop("S2", "Second", 40.01, -3.0)],
        routes=[Route("R1", "A1", "1", 3)],
        trips=[Trip("R1-T1", "R1", "WD")],
        stopTimes=[
            StopTime("R1-T1", 1, "S1", 28800, 28800),
            StopTime("R1-T1", 2, "S2", 28920, 28930),
        ],
        services=[Service("WD", (1, 1, 1, 1, 1, 0, 0), "20250101", "20251231")],
    )


def test_time_formatting_round_trips():
    assert format_time(28800) == "08:00:00"
    assert format_time(90000) == "25:00:00"  # service day runs past midnight
    assert parse_time("25:00:00") == 90000
    assert parse_time(format_time(86399)) == 86399
    with pytest.raises(FeedError):
        format_time(-1)
    with pytest.raises(FeedError):
        parse_time("8:00")


class TestValidation:
    def test_minimal_feed_is_valid(self):
        serialize_feed(minimal_feed())

    def test_empty_feed_rejected(self):
        with pytest.raises(FeedError) as err:
            serialize_feed(GtfsFeed())
        assert err.value.kind == "empty-feed"

    def test_dangling_references(self):
        feed = minimal_feed()
        feed.trips.append(Trip("ghost", "R9", "WD"))
        with pytest.raises(FeedError) as err:
            serialize_feed(feed)
        assert err.value.kind == "dangling-reference"

    def test_bad_coordinates(self):
        feed = minimal_feed()
        feed.stops[0] = Stop("S1", "First", 91.0, -3.0)
        with pytest.raises(FeedError) as err:
            serialize_feed(feed)
        assert err.value.kind == "bad-coordinate"

    def test_decreasing_stop_times(self):
        feed = minimal_feed()
        feed.stopTimes[1] = StopTime("R1-T1", 2, "S2", 28700, 28700)
        with pytest.raises(FeedError) as err:
            serialize_feed(feed)
        assert err.value.kind == "unsorted-stop-times"

    def test_departure_before_arrival(self):
        feed = minimal_feed()
        feed.stopTimes[0] = StopTime("R1-T1", 1, "S1", 28800, 28790)
        with pytest.raises(FeedError) as err:
            serialize_feed(feed)
        assert err.value.kind == "unsorted-stop-times"

    def test_duplicate_stop_sequence(self):
        feed = minimal_feed()
        feed.stopTimes.append(StopTime("R1-T1", 2, "S1", 29000, 29000))
        with pytest.raises(FeedError) as err:
            serialize_feed(feed)
        assert err.value.kind == "unsorted-stop-times"


class TestDeterminism:
    def test_permuted_inputs_give_identical_bytes(self):
        a = minimal_feed()
        b = minimal_feed()
        b.stops.reverse()
        b.stopTimes.reverse()
        b.trips.reverse()
        assert serialize_feed(a) == serialize_feed(b)

    def test_repeated_serialization_is_stable(self):
        feed = minimal_feed()
        assert serialize_feed(feed) == serialize_feed(feed)

    def test_zip_member_metadata_is_pinned(self):
        data = serialize_feed(minimal_feed())
        with zipfile.ZipFile(BytesIO(data)) as zf:
            stamps = {info.date_time for info in zf.infolist()}
        assert len(stamps) == 1  # no wall-clock leakage into the archive

    def test_random_feeds_serialize_identically_after_shuffles(self):
        for seed in range(10):
            rng = Lcg64(seed + 400)
            feed = random_network(rng)
            reference = serialize_feed(feed)
            shuffled = GtfsFeed(
                agencies=list(reversed(feed.agencies)),
                stops=list(reversed(feed.stops)),
                routes=list(reversed(feed.routes)),
                trips=list(reversed(feed.trips)),
                stopTimes=list(reversed(feed.stopTimes)),
                services=list(reversed(feed.services)),
            )
            assert serialize_feed(shuffled) == reference


class TestRoundTrip:
    def test_parse_inverts_serialize(self):
        feed = minimal_feed()
        again = parse_feed(serialize_feed(feed))
        assert again == feed.sort()

    def test_round_trip_on_random_feeds(self):
        for seed in range(15):
            feed = random_network(Lcg64(seed + 900))
            assert parse_feed(serialize_feed(feed)) == feed.sort()

    def test_float_coordinates_survive_exactly(self):
        feed = minimal_feed()
        feed.stops[0] = Stop("S1", "First", 40.123456789012345, -3.000000000000001)
        again = parse_feed(serialize_feed(feed))
        assert again.stops[0].lat == 40.123456789012345
        assert again.stops[0].lon == -3.000000000000001

    def test_parse_rejects_garbage_and_partial_archives(self):
        with pytest.raises(FeedError) as err:
            parse_feed(b"\x00 not a zip \x00")
        assert err.value.kind == "parse-error"

        buf = BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("agency.txt", "agency_id\nA1\n")
        with pytest.raises(FeedError) as err:
            parse_feed(buf.getvalue())
        assert err.value.kind == "parse-error"

    def test_load_feed_from_disk(self, tmp_path):
        target = tmp_path / "feed.zip"
        target.write_bytes(serialize_feed(minimal_feed()))
        assert load_feed(target) == minimal_feed().sort()


class TestEntityAssembly:
    def test_city_entities_assemble_and_round_trip(self, city):
        feed, data = ngsi_to_gtfs(generate_static_network(city))
        assert len(feed.stops) == 5
        assert len(feed.routes) == 2
        assert len(feed.trips) == 4
        assert parse_feed(data) == feed

    def test_non_gtfs_entities_are_ignored(self, city):
        entities = generate_static_network(city)
        entities.append(make_entity("p-1", "ParkingSite", availableSpotNumber=1))
        feed, _ = ngsi_to_gtfs(entities)
        assert len(feed.stops) == 5

    def test_missing_required_attribute_fails(self):
        stop = make_entity("S1", "GtfsStop", name="Centro", latitude=40.0)
        with pytest.raises(FeedError):
            ngsi_to_gtfs([stop])


def test_file_url_round_trip(tmp_path):
    target = tmp_path / "feed.zip"
    url = file_url(target)
    assert url.startswith("file://")


def test_publish_feed_entity_points_at_archive(tmp_path, broker):
    target = tmp_path / "city.zip"
    target.write_bytes(serialize_feed(minimal_feed()))
    entity = publish_feed_entity(str(target), broker)
    assert entity.id == "feed-city"
    assert entity.entityType == "GtfsTransitFeedFile"
    stored = broker.get_entity("feed-city")
    assert stored.value("url") == file_url(target)
    assert stored.value("dateModified")


def test_publish_feed_entity_requires_existing_file(tmp_path, broker):
    with pytest.raises(FeedError) as err:
        publish_feed_entity(str(tmp_path / "missing.zip"), broker)
    assert err.value.kind == "file-missing"
