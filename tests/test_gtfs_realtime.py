"""Real-time feed building: trip resolution, overrides, loader, server."""

import pytest

from citykit.broker import ContextBroker, Subscription
from citykit.clock import SimulatedClock
from citykit.gtfs_realtime import (
    RtLoader,
    RtServer,
    TripResolver,
    arrival_estimations_to_gtfsrt,
)
from citykit.httpd import HttpError, request_json
from citykit.ngsi import Attribute, make_entity

DAY = 1748822400


def arrival(eid, stop, line, remaining):
    return make_entity(
        eid, "ArrivalEstimation",
        refStop=Attribute(stop, "Reference"),
        refLine=Attribute(line, "Reference"),
        remainingTime=remaining,
    )


@pytest.fixture
def resolver(city_feed):
    return TripResolver(city_feed, DAY)


class TestTripResolver:
    def test_next_call_strictly_after_now(self, resolver):
        # R1 calls at S5: T1 at 29280, T2 at 31080
        assert resolver.resolve("R1", "S5", DAY + 29000)[0] == "R1-T1"
        assert resolver.resolve("R1", "S5", DAY + 29280)[0] == "R1-T2"
        assert resolver.resolve("R1", "S5", DAY + 29279)[0] == "R1-T1"

    def test_resolution_carries_schedule_details(self, resolver):
        trip_id, stop_id, seq, scheduled = resolver.resolve("R1", "S5", DAY + 29000)
        assert (trip_id, stop_id, seq) == ("R1-T1", "S5", 5)
        assert scheduled == DAY + 29280

    def test_wraps_to_the_next_day_after_last_service(self, resolver):
        trip_id, _, _, scheduled = resolver.resolve("R1", "S5", DAY + 80000)
        assert trip_id == "R1-T1"
        assert scheduled == DAY + 86400 + 29280

    def test_unknown_line_or_stop(self, resolver):
        assert resolver.resolve("R9", "S5", DAY) is None
        assert resolver.resolve("R1", "S9", DAY) is None
        # R2 is the express: it never calls at S2
        assert resolver.resolve("R2", "S2", DAY) is None


class TestFeedBuild:
    def test_remaining_time_becomes_absolute_override(self, resolver):
        now = DAY + 29000
        result = arrival_estimations_to_gtfsrt([arrival("a1", "S5", "R1", 120)],
                                               now, resolver)
        assert result.unresolved == []
        (tu,) = result.feed["tripUpdates"]
        assert tu["tripId"] == "R1-T1"
        (stu,) = tu["stopTimeUpdates"]
        assert stu["stopId"] == "S5"
        assert stu["stopSequence"] == 5
        assert stu["arrivalOverride"] == now + 120
        assert result.feed["headerTimestamp"] == now

    def test_last_estimation_wins_per_trip_stop(self, resolver):
        now = DAY + 29000
        result = arrival_estimations_to_gtfsrt(
            [arrival("a1", "S5", "R1", 100), arrival("a2", "S5", "R1", 300)],
            now, resolver)
        (tu,) = result.feed["tripUpdates"]
        assert tu["stopTimeUpdates"][0]["arrivalOverride"] == now + 300

    def test_updates_are_sorted_and_grouped(self, resolver):
        now = DAY + 28900
        result = arrival_estimations_to_gtfsrt(
            [arrival("a1", "S5", "R2", 500), arrival("a2", "S3", "R1", 130),
             arrival("a3", "S5", "R1", 380)],
            now, resolver)
        assert [tu["tripId"] for tu in result.feed["tripUpdates"]] == ["R1-T1", "R2-T1"]
        seqs = [stu["stopSequence"] for stu in result.feed["tripUpdates"][0]["stopTimeUpdates"]]
        assert seqs == sorted(seqs)

    def test_unresolvable_estimations_are_reported(self, resolver):
        result = arrival_estimations_to_gtfsrt(
            [arrival("a1", "S5", "R9", 60),           # unknown line
             arrival("a2", "S5", "R1", -5),           # negative countdown
             make_entity("a3", "ArrivalEstimation")],  # missing refs
            DAY + 29000, resolver)
        assert result.feed["tripUpdates"] == []
        assert sorted(u["entityId"] for u in result.unresolved) == ["a1", "a2", "a3"]

    def test_a_non_finite_countdown_is_reported(self, resolver):
        now = DAY + 29000
        result = arrival_estimations_to_gtfsrt(
            [arrival("a1", "S5", "R1", float("inf")), arrival("a2", "S3", "R1", 130),
             arrival("a3", "S5", "R2", float("nan"))], now, resolver)
        (tu,) = result.feed["tripUpdates"]
        assert [stu["stopId"] for stu in tu["stopTimeUpdates"]] == ["S3"]
        assert tu["stopTimeUpdates"][0]["arrivalOverride"] == now + 130
        assert [(u["entityId"], u["reason"]) for u in result.unresolved] == [
            ("a1", "bad remainingTime inf"), ("a3", "bad remainingTime nan")]


class TestRtLoader:
    def make_loader(self, broker, resolver, t0=DAY + 28900):
        clock = SimulatedClock(t0)
        loader = RtLoader(
            lambda: broker.query_entities(typeFilter="ArrivalEstimation"),
            resolver, clock=clock)
        return loader, clock

    def test_refresh_builds_from_current_entities(self, broker, resolver):
        loader, _ = self.make_loader(broker, resolver)
        broker.upsert_entity(arrival("a1", "S5", "R1", 120))
        feed = loader.refresh()
        assert feed["tripUpdates"][0]["tripId"] == "R1-T1"
        assert loader.refresh_count == 1

    def test_attach_refreshes_on_every_commit(self, broker, resolver):
        loader, _ = self.make_loader(broker, resolver)
        broker.subscribe(Subscription(id="", entityTypeFilter="ArrivalEstimation",
                                      target=lambda entities: loader.refresh()))
        broker.upsert_entity(arrival("a1", "S5", "R1", 120))
        broker.upsert_entity(arrival("a2", "S3", "R1", 60))
        assert loader.refresh_count == 2
        assert len(loader.current()["tripUpdates"]) == 1  # both ride R1-T1

    def test_non_estimation_commits_do_not_refresh(self, broker, resolver):
        loader, _ = self.make_loader(broker, resolver)
        broker.subscribe(Subscription(id="", entityTypeFilter="ArrivalEstimation",
                                      target=lambda entities: loader.refresh()))
        broker.upsert_entity(make_entity("p-1", "ParkingSite", availableSpotNumber=2))
        assert loader.refresh_count == 0

    def test_header_timestamp_never_regresses(self, broker, resolver):
        class WobblyClock:
            t = DAY + 29050

            def now(self):
                return self.t

        clock = WobblyClock()
        loader = RtLoader(
            lambda: broker.query_entities(typeFilter="ArrivalEstimation"),
            resolver, clock=clock)
        broker.upsert_entity(arrival("a1", "S5", "R1", 120))
        first = loader.refresh()["headerTimestamp"]
        clock.t = DAY + 29000  # wall clock stepped backwards
        second = loader.refresh()["headerTimestamp"]
        assert first == DAY + 29050
        assert second == first


class TestRtServer:
    def test_feed_notify_and_status(self, city_feed):
        broker = ContextBroker()
        resolver = TripResolver(city_feed, DAY)
        loader = RtLoader(
            lambda: broker.query_entities(typeFilter="ArrivalEstimation"),
            resolver, clock=SimulatedClock(DAY + 28900))
        server = RtServer(loader)
        url = server.start()
        try:
            with pytest.raises(HttpError) as err:
                request_json("GET", f"{url}/gtfs-rt")
            assert err.value.status == 503

            broker.upsert_entity(arrival("a1", "S5", "R1", 120))
            request_json("POST", f"{url}/notify", {"data": []})
            _, doc = request_json("GET", f"{url}/gtfs-rt")
            assert doc["tripUpdates"][0]["tripId"] == "R1-T1"

            _, status = request_json("GET", f"{url}/status")
            assert status["refreshCount"] == 1
            assert status["unresolved"] == []
            assert status["headerTimestamp"] == DAY + 28900
        finally:
            server.stop()
            broker.close()
