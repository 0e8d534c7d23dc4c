"""Journey planner: graph building, search, overlays, alternatives, HTTP."""

import sys
import threading
import time
from datetime import date

import pytest

import citykit.routing as routing
from citykit.feedgen import Lcg64
from citykit.gtfs import (
    Agency,
    GtfsFeed,
    Route,
    Service,
    Stop,
    StopTime,
    Trip,
    serialize_feed,
)
from citykit.routing import (
    ItineraryQuery,
    PlanError,
    Router,
    RouterServer,
    apply_realtime,
    build_graph,
    haversine_m,
    plan,
    walk_seconds,
)
from citykit.httpd import HttpError, get_json, post_json

from oracles import (
    min_arrival,
    random_grid_network,
    random_network,
    random_query,
    random_trip_updates,
)

DAY = 1748822400  # 2025-06-02 00:00:00 UTC


def query(origin="S1", destination="S5", depart=DAY + 28000, **kwargs):
    return ItineraryQuery(origin=origin, destination=destination,
                          departAfter=depart, **kwargs)


def two_leg_feed():
    """X --tripA--> Y --tripB--> Z, with the legs 200 s apart at Y."""
    return GtfsFeed(
        agencies=[Agency("A1", "M", "https://m.example", "UTC")],
        stops=[Stop("X", "X", 40.00, -3.0), Stop("Y", "Y", 40.05, -3.0),
               Stop("Z", "Z", 40.10, -3.0)],
        routes=[Route("RA", "A1", "a", 3), Route("RB", "A1", "b", 3)],
        trips=[Trip("TA", "RA", "ALL"), Trip("TB", "RB", "ALL")],
        stopTimes=[
            StopTime("TA", 1, "X", 1000, 1000),
            StopTime("TA", 2, "Y", 1100, 1100),
            StopTime("TB", 1, "Y", 1300, 1300),
            StopTime("TB", 2, "Z", 1400, 1400),
        ],
        services=[Service("ALL", (1,) * 7, "20250101", "20261231")],
    )


class TestGraphBuild:
    def test_footpaths_link_adjacent_stops_only(self, city_graph):
        # consecutive stops are ~445 m apart; two hops away is past the radius
        paths = dict(city_graph.footpaths["S2"])
        assert set(paths) == {"S1", "S3"}
        assert paths["S1"] == 356

    def test_footpaths_are_symmetric(self, city_graph):
        for stop, paths in city_graph.footpaths.items():
            for other, secs in paths:
                assert (stop, secs) in city_graph.footpaths[other]

    def test_stop_times_are_day_anchored(self, city_graph):
        assert city_graph.dayStart == DAY
        first = city_graph.tripStopTimes["R1-T1"][0]
        assert first.departure == DAY + 28800

    def test_out_of_range_service_dates_empty_the_timetable(self, city_feed):
        before = build_graph([city_feed], service_date=date(2024, 12, 31))
        assert len(before.tripStopTimes) == 0
        inside = build_graph([city_feed], service_date=date(2025, 6, 2))
        assert len(inside.tripStopTimes) == 4

    def test_weekday_flags_gate_the_service(self):
        feed = two_leg_feed()
        feed.services[0] = Service("ALL", (1, 1, 1, 1, 1, 0, 0),
                                   "20250101", "20261231")
        weekday = build_graph([feed], service_date=date(2025, 6, 2))
        sunday = build_graph([feed], service_date=date(2025, 6, 1))
        assert len(weekday.tripStopTimes) == 2
        assert len(sunday.tripStopTimes) == 0

    def test_feed_order_does_not_matter(self, city_feed):
        other = GtfsFeed(
            agencies=list(reversed(city_feed.agencies)),
            stops=list(reversed(city_feed.stops)),
            routes=list(reversed(city_feed.routes)),
            trips=list(reversed(city_feed.trips)),
            stopTimes=list(reversed(city_feed.stopTimes)),
            services=list(reversed(city_feed.services)),
        )
        a = build_graph([city_feed], service_date=date(2025, 6, 2))
        b = build_graph([other], service_date=date(2025, 6, 2))
        assert a.tripStopTimes == b.tripStopTimes
        assert a.departuresByStop == b.departuresByStop
        assert a.footpaths == b.footpaths


class TestPlanStatic:
    def test_express_vs_local(self, city_graph):
        itineraries = plan(city_graph, query())
        assert itineraries[0].trip_ids() == ("R1-T1",)
        assert itineraries[0].arrival == DAY + 29280
        assert itineraries[0].transfers == 0

    def test_alternatives_come_from_banning_earlier_trips(self, city_graph):
        itineraries = plan(city_graph, query(maxItineraries=3))
        assert [i.trip_ids() for i in itineraries] \
            == [("R1-T1",), ("R2-T1",), ("R1-T2",)]
        assert [i.arrival for i in itineraries] \
            == [DAY + 29280, DAY + 29400, DAY + 31080]

    def test_depart_after_is_inclusive(self, city_graph):
        at_departure = plan(city_graph, query(depart=DAY + 28800))
        assert at_departure[0].trip_ids() == ("R1-T1",)

    def test_leg_structure(self, city_graph):
        (best, *_) = plan(city_graph, query())
        (leg,) = best.legs
        assert leg.mode == "transit"
        assert (leg.boardStopId, leg.alightStopId) == ("S1", "S5")
        assert (leg.startTime, leg.endTime) == (DAY + 28800, DAY + 29280)
        assert best.totalSeconds == best.arrival - (DAY + 28000)

    def test_unreachable_when_service_is_over(self, city_graph):
        with pytest.raises(PlanError) as err:
            plan(city_graph, query(depart=DAY + 80000))
        assert err.value.kind == "unreachable"

    def test_unknown_stop_is_origin_isolated(self, city_graph):
        with pytest.raises(PlanError) as err:
            plan(city_graph, query(origin="S99"))
        assert err.value.kind == "origin-isolated"

    def test_same_stop_answers_a_zero_leg_itinerary(self, city_graph):
        (only,) = plan(city_graph, query(destination="S1"))
        assert only.legs == []
        assert only.totalSeconds == 0

    def test_walk_beats_the_bus_next_door(self, city_graph):
        # one stop apart and the first bus is far away
        (best, *_) = plan(city_graph, query(destination="S2", depart=DAY + 20000))
        assert best.legs[0].mode == "walk"
        assert best.arrival == DAY + 20000 + 356

    def test_modes_walk_only(self, city_graph):
        (only,) = plan(city_graph, query(destination="S2", modes={"walk"}))
        assert [leg.mode for leg in only.legs] == ["walk"]
        with pytest.raises(PlanError):
            plan(city_graph, query(modes={"walk"}))  # S5 is 1.8 km away

    def test_modes_must_be_known(self, city_graph):
        with pytest.raises(ValueError):
            query(modes={"bike"})


class TestTransfers:
    def test_transfer_between_routes(self):
        graph = build_graph([two_leg_feed()])
        q = ItineraryQuery("X", "Z", graph.dayStart + 900, modes={"transit"})
        (best,) = plan(graph, q, max_transfers=1)
        assert best.trip_ids() == ("TA", "TB")
        assert best.transfers == 1
        assert best.arrival == graph.dayStart + 1400

    def test_transfer_cap_prunes_the_journey(self):
        graph = build_graph([two_leg_feed()])
        q = ItineraryQuery("X", "Z", graph.dayStart + 900, modes={"transit"})
        with pytest.raises(PlanError):
            plan(graph, q, max_transfers=0)

    def test_missed_connection_is_respected(self):
        feed = two_leg_feed()
        # connection now departs Y before TA arrives there
        feed.stopTimes[2] = StopTime("TB", 1, "Y", 1050, 1050)
        feed.stopTimes[3] = StopTime("TB", 2, "Z", 1150, 1150)
        graph = build_graph([feed])
        q = ItineraryQuery("X", "Z", graph.dayStart + 900, modes={"transit"})
        with pytest.raises(PlanError):
            plan(graph, q)


class TestCoordinateEndpoints:
    def test_access_walk_from_a_point(self, city_graph):
        lat, lon, _ = city_graph.stops["S1"]
        (best, *_) = plan(city_graph, query(origin=(lat, lon)))
        assert best.legs[0].mode == "walk"
        assert best.legs[0].startTime == DAY + 28000
        assert best.trip_ids()  # then rides

    def test_egress_walk_cannot_follow_a_footpath(self, city_graph):
        # a point just past S2: reachable by riding to S2 and walking out,
        # not by footpathing S1->S2 first (two walks would chain)
        dest = (40.0049, -3.0)
        q = query(destination=dest, maxWalkMeters=200.0)
        (best, *_) = plan(city_graph, q)
        assert [leg.mode for leg in best.legs] == ["transit", "walk"]
        assert best.legs[0].alightStopId == "S2"
        ride_arrival = DAY + 28920
        s2 = city_graph.stop_position("S2")
        egress = walk_seconds(haversine_m(s2[0], s2[1], dest[0], dest[1]), 1.25)
        assert best.arrival == ride_arrival + egress

    def test_point_far_from_every_stop_is_isolated(self, city_graph):
        with pytest.raises(PlanError) as err:
            plan(city_graph, query(origin=(41.5, -3.0)))
        assert err.value.kind == "origin-isolated"


class TestOverlay:
    def test_delay_shifts_later_stops_of_the_trip(self, city_graph):
        overlay = apply_realtime(city_graph, {"tripUpdates": [
            {"tripId": "R1-T1",
             "stopTimeUpdates": [{"stopSequence": 3, "delaySeconds": 600}]},
        ]})
        times = overlay.trip_times(city_graph, "R1-T1")
        assert times[0].arrival == DAY + 28800      # before the update: untouched
        assert times[2].arrival == DAY + 29040 + 600
        assert times[4].arrival == DAY + 29280 + 600

    def test_arrival_override_pins_absolute_time(self, city_graph):
        overlay = apply_realtime(city_graph, {"tripUpdates": [
            {"tripId": "R1-T1",
             "stopTimeUpdates": [{"stopId": "S5", "arrivalOverride": DAY + 30000}]},
        ]})
        assert overlay.trip_times(city_graph, "R1-T1")[4].arrival == DAY + 30000

    def test_unknown_trips_are_collected_not_fatal(self, city_graph):
        overlay = apply_realtime(city_graph, {"tripUpdates": [
            {"tripId": "ghost", "stopTimeUpdates": []},
        ]})
        assert overlay.unknownTrips == ["ghost"]

    def test_delay_reroutes_to_the_express(self, city_graph):
        overlay = apply_realtime(city_graph, {"tripUpdates": [
            {"tripId": "R1-T1",
             "stopTimeUpdates": [{"stopSequence": 1, "delaySeconds": 600}]},
        ]})
        (best, *_) = plan(city_graph, query(), overlay)
        assert best.trip_ids() == ("R2-T1",)
        assert best.arrival == DAY + 29400

    def test_graph_is_untouched_by_overlays(self, city_graph):
        before = {t: list(ts) for t, ts in city_graph.tripStopTimes.items()}
        apply_realtime(city_graph, {"tripUpdates": [
            {"tripId": "R1-T1",
             "stopTimeUpdates": [{"stopSequence": 1, "delaySeconds": 600}]},
        ]})
        assert city_graph.tripStopTimes == before

    def test_non_causal_segment_is_unridable(self):
        graph = build_graph([two_leg_feed()])
        # pull TB's last arrival before its own departure at Y
        overlay = apply_realtime(graph, {"tripUpdates": [
            {"tripId": "TB",
             "stopTimeUpdates": [{"stopSequence": 2,
                                  "arrivalOverride": graph.dayStart + 1200}]},
        ]})
        q = ItineraryQuery("Y", "Z", graph.dayStart + 1250, modes={"transit"})
        with pytest.raises(PlanError):
            plan(graph, q, overlay)


class TestAgainstEnumerator:
    def test_planner_matches_the_enumerator(self):
        for seed in range(60):
            rng = Lcg64(seed * 6151 + 17)
            graph = build_graph([random_network(rng)])
            overlay = None
            if seed % 2:
                overlay = apply_realtime(graph, random_trip_updates(rng, graph))
            q = ItineraryQuery(**random_query(rng, graph, graph.dayStart))
            expected = min_arrival(graph, q, overlay, max_transfers=3)
            try:
                got = plan(graph, q, overlay, max_transfers=3)[0].arrival
            except PlanError:
                got = None
            assert got == expected, f"seed {seed}"

    def test_planner_matches_the_enumerator_on_grids(self):
        checked = answered = transferred = 0
        for seed in range(3):
            rng = Lcg64(seed * 7001 + 29)
            graph = build_graph([random_grid_network(rng)])
            overlay = apply_realtime(graph, random_trip_updates(rng, graph))
            for _ in range(30):
                kwargs = random_query(rng, graph, graph.dayStart)
                # while the grid's trips run, so that most answers ride
                kwargs["departAfter"] = graph.dayStart + 6 * 3600 + rng.randrange(16) * 600
                q = ItineraryQuery(**kwargs)
                for ov in (None, overlay):
                    for cap in (None, 0, 1, 2):
                        expected = min_arrival(graph, q, ov, max_transfers=cap)
                        try:
                            best = plan(graph, q, ov, max_transfers=cap)[0]
                        except PlanError:
                            best = None
                        got = best.arrival if best else None
                        assert got == expected, (seed, q, ov is not None, cap)
                        checked += 1
                        answered += best is not None
                        transferred += bool(best and best.transfers)
        assert checked == 720 and answered > 600 and transferred > 10


class TestRoundBoundaries:
    """Cases a round-based search can get wrong while a label-setting one
    cannot: a trip made non-causal by an overlay, and a tie between boarding
    a bus at the origin and walking back to board it a stop earlier."""

    @staticmethod
    def line_feed(lats, times):
        """Stops A, B, C on a north-south line and one trip T through them."""
        return GtfsFeed(
            agencies=[Agency("A1", "M", "https://m.example", "UTC")],
            stops=[Stop(s, s, lat, -3.0) for s, lat in zip("ABC", lats)],
            routes=[Route("R", "A1", "r", 3)],
            trips=[Trip("T", "R", "ALL")],
            stopTimes=[StopTime("T", 10 * (i + 1), s, t, t)
                       for i, (s, t) in enumerate(zip("ABC", times))],
            services=[Service("ALL", (1,) * 7, "20250101", "20261231")],
        )

    def test_a_later_boarding_reaches_what_an_earlier_one_cannot(self):
        # A and B are 200 m apart (160 s on foot); C is far from both
        graph = build_graph([self.line_feed((40.0, 40.0018, 40.05), (1000, 1300, 1600))])
        overlay = apply_realtime(graph, {"tripUpdates": [{"tripId": "T", "stopTimeUpdates": [
            {"stopSequence": 10, "delaySeconds": 600},
            {"stopSequence": 20, "arrivalOverride": graph.dayStart + 1100},
        ]}]})
        times = [(t.departure - graph.dayStart) for t in overlay.trip_times(graph, "T")]
        assert times == [1600, 1100, 1400]  # T leaves A after it reaches C
        q = ItineraryQuery("A", "C", graph.dayStart + 900, modes={"transit"})
        (best,) = plan(graph, q, overlay, max_transfers=0)
        assert [(leg.mode, leg.boardStopId, leg.alightStopId) for leg in best.legs] \
            == [("walk", "A", "B"), ("transit", "B", "C")]
        assert best.arrival == graph.dayStart + 1400
        assert best.arrival == min_arrival(graph, q, overlay, max_transfers=0)

    def test_boards_at_the_origin_rather_than_walking_back_a_stop(self):
        # the bus calls at A, then at B (the origin, 300 m on), then at C;
        # walking back to A in time to board there arrives at the same time
        graph = build_graph([self.line_feed((40.0, 40.0027, 40.05), (1200, 1300, 1500))])
        walk_back = dict(graph.footpaths["B"])["A"]
        assert 900 + walk_back <= 1200
        q = ItineraryQuery("B", "C", graph.dayStart + 900, modes={"transit"})
        (best,) = plan(graph, q, max_transfers=0)
        (leg,) = best.legs
        assert (leg.mode, leg.boardStopId, leg.alightStopId) == ("transit", "B", "C")
        assert (leg.startTime, leg.endTime) == (graph.dayStart + 1300, graph.dayStart + 1500)


class TestScanWindow:
    """The search bisects a stop's static departures over a window widened
    by the overlay's shift. One case per edge of that window."""

    def test_a_delay_makes_an_already_departed_trip_catchable(self):
        # no footpaths: the stops are kilometres apart
        line_feed = TestRoundBoundaries.line_feed
        graph = build_graph([line_feed((40.0, 40.05, 40.10), (1000, 1300, 1600))])
        overlay = apply_realtime(graph, {"tripUpdates": [{"tripId": "T", "stopTimeUpdates": [
            {"stopSequence": 10, "delaySeconds": 300}]}]})
        assert overlay.shift == (0, 300)
        q = ItineraryQuery("A", "C", graph.dayStart + 1300, modes={"transit"})
        # statically T left A at 1000: at the lower edge, arrival - late
        assert graph.departuresByStop["A"][0][0] == q.departAfter - overlay.shift[1]
        with pytest.raises(PlanError):
            plan(graph, q)
        (best,) = plan(graph, q, overlay, max_transfers=0)
        (leg,) = best.legs
        assert (leg.tripId, leg.startTime, leg.endTime) \
            == ("T", graph.dayStart + 1300, graph.dayStart + 1900)
        assert best.arrival == min_arrival(graph, q, overlay, max_transfers=0)

    def test_an_override_pulls_a_trip_ahead_of_the_walk(self):
        # A and B are 400 m apart, so the walk sets the bound of round 1
        line_feed = TestRoundBoundaries.line_feed
        graph = build_graph([line_feed((40.0, 40.0036, 40.10), (1500, 1600, 1900))])
        overlay = apply_realtime(graph, {"tripUpdates": [{"tripId": "T", "stopTimeUpdates": [
            {"stopSequence": 10, "arrivalOverride": graph.dayStart + 1100}]}]})
        assert overlay.shift == (-400, 0)
        q = ItineraryQuery("A", "B", graph.dayStart + 1000, modes={"transit"})
        walked = q.departAfter + dict(graph.footpaths["A"])["B"]
        (static,) = plan(graph, q)
        assert static.arrival == walked and not static.trip_ids()
        # statically T leaves A after the walk arrives: past the bound, before limit - early
        assert walked <= graph.departuresByStop["A"][0][0] < walked - overlay.shift[0]
        best = plan(graph, q, overlay, max_transfers=0)[0]
        (leg,) = best.legs
        assert (leg.tripId, leg.startTime, leg.endTime) \
            == ("T", graph.dayStart + 1100, graph.dayStart + 1200)
        assert best.arrival == min_arrival(graph, q, overlay, max_transfers=0)


class TestRouter:
    def test_load_and_version_bumps(self, city_feed):
        router = Router(service_date=date(2025, 6, 2))
        assert router.version == 0
        assert router.load_feed(city_feed) == 1
        assert router.load_feed(city_feed) == 2

    def test_reload_clears_the_overlay(self, city_feed):
        router = Router(service_date=date(2025, 6, 2))
        router.load_feed(city_feed)
        router.set_realtime({"tripUpdates": [
            {"tripId": "R1-T1",
             "stopTimeUpdates": [{"stopSequence": 1, "delaySeconds": 600}]},
        ]})
        assert router.plan(query())[0].trip_ids() == ("R2-T1",)
        router.load_feed(city_feed)
        assert router.plan(query())[0].trip_ids() == ("R1-T1",)

    def test_realtime_never_pairs_an_overlay_with_another_graph(self, city_feed,
                                                                monkeypatch):
        router = Router(service_date=date(2025, 6, 2))
        router.load_feed(city_feed)
        built = []  # (overlay, the graph it was built on)
        apply_realtime_now = routing.apply_realtime

        def apply_during_a_reload(graph, rt):
            overlay = apply_realtime_now(graph, rt)
            built.append((overlay, graph))
            if len(built) == 1:
                router.load_feed(city_feed)  # a reload lands partway through
            return overlay

        seen = []
        plan_now = routing.plan

        def recording_plan(graph, query, overlay=None, max_transfers=None):
            seen.append((graph, overlay))
            return plan_now(graph, query, overlay, max_transfers)

        monkeypatch.setattr(routing, "apply_realtime", apply_during_a_reload)
        monkeypatch.setattr(routing, "plan", recording_plan)
        router.set_realtime({"tripUpdates": [
            {"tripId": "R1-T1",
             "stopTimeUpdates": [{"stopSequence": 1, "delaySeconds": 600}]},
        ]})
        # the update was applied again, to the graph that replaced the old one
        assert router.plan(query())[0].trip_ids() == ("R2-T1",)
        assert router.version == 2
        ((graph, overlay),) = seen
        assert graph is router.graph
        assert any(o is overlay and g is graph for o, g in built)

    def test_reloads_are_numbered_in_the_order_they_land(self, city_feed, monkeypatch):
        router = Router(service_date=date(2025, 6, 2))
        router.load_feed(city_feed)
        build_graph_now = routing.build_graph
        inner = []

        def build_during_a_reload(*args, **kwargs):
            graph = build_graph_now(*args, **kwargs)
            if not inner:
                monkeypatch.setattr(routing, "build_graph", build_graph_now)
                inner.append(router.load_feed(city_feed))  # lands while this one builds
            return graph

        monkeypatch.setattr(routing, "build_graph", build_during_a_reload)
        outer = router.load_feed(city_feed)
        assert (inner, outer, router.version) == ([2], 3, 3)

    def test_reloads_realtime_and_plans_in_threads_stay_paired(self, city_feed,
                                                               monkeypatch):
        router = Router(service_date=date(2025, 6, 2))
        router.load_feed(city_feed)
        built_on = {}  # id(overlay) -> graph; `kept` holds the overlays so ids stay unique
        kept = []
        apply_realtime_now, plan_now = routing.apply_realtime, routing.plan

        def recording_apply(graph, rt):
            overlay = apply_realtime_now(graph, rt)
            kept.append(overlay)
            built_on[id(overlay)] = graph
            time.sleep(0.0002)  # widens the window in which a reload can land
            return overlay

        mismatched = []

        def checking_plan(graph, query, overlay=None, max_transfers=None):
            if overlay is not None and built_on[id(overlay)] is not graph:
                mismatched.append(graph.version)
            return plan_now(graph, query, overlay, max_transfers)

        monkeypatch.setattr(routing, "apply_realtime", recording_apply)
        monkeypatch.setattr(routing, "plan", checking_plan)
        rt = {"tripUpdates": [{"tripId": "R1-T1", "stopTimeUpdates": [
            {"stopSequence": 1, "delaySeconds": 600}]}]}
        errors = []

        def repeat(times, call):
            def run():
                try:
                    for _ in range(times):
                        call()
                except Exception as exc:  # reported below; a thread would swallow it
                    errors.append(exc)
            return threading.Thread(target=run)

        threads = [repeat(10, lambda: router.load_feed(city_feed)) for _ in range(4)] + [
            repeat(300, lambda: router.set_realtime(rt)),
            repeat(300, lambda: router.set_realtime(rt)),
            repeat(300, lambda: router.plan(query())),
            repeat(300, lambda: router.plan(query()))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatched == []
        assert router.version == 41  # each reload got its own number

    def test_plan_before_load_fails(self):
        with pytest.raises(PlanError):
            Router().plan(query())

    def test_load_url_from_file(self, city_feed, tmp_path):
        target = tmp_path / "city.zip"
        target.write_bytes(serialize_feed(city_feed))
        router = Router(service_date=date(2025, 6, 2))
        assert router.load_url(str(target)) == 1
        assert router.plan(query())[0].arrival == DAY + 29280


class TestRouterServer:
    @pytest.fixture
    def served(self, city_feed):
        router = Router(service_date=date(2025, 6, 2))
        router.load_feed(city_feed)
        server = RouterServer(router)
        url = server.start()
        yield url
        server.stop()

    def test_plan_endpoint(self, served):
        _, docs = get_json(f"{served}/plan?fromStop=S1&toStop=S5"
                           f"&departAfter={DAY + 28000}&n=2")
        assert [d["legs"][0]["tripId"] for d in docs] == ["R1-T1", "R2-T1"]

    def test_plan_unreachable_is_404(self, served):
        with pytest.raises(HttpError) as err:
            get_json(f"{served}/plan?fromStop=S1&toStop=S5&departAfter={DAY + 80000}")
        assert err.value.status == 404

    def test_plan_bad_query_is_400(self, served):
        with pytest.raises(HttpError) as err:
            get_json(f"{served}/plan?fromStop=S1&toStop=S5&departAfter=noon")
        assert err.value.status == 400
        with pytest.raises(HttpError) as err:
            get_json(f"{served}/plan?fromStop=S1&departAfter=0")
        assert err.value.status == 400

    def test_reload_endpoint_and_version(self, served, city_feed, tmp_path):
        target = tmp_path / "v2.zip"
        target.write_bytes(serialize_feed(city_feed))
        _, doc = get_json(f"{served}/version")
        before = doc["version"]
        _, reply = post_json(f"{served}/graph/reload", {"url": str(target)})
        assert reply["version"] == before + 1
        bad = tmp_path / "bad.zip"
        bad.write_bytes(b"junk")
        with pytest.raises(HttpError):
            post_json(f"{served}/graph/reload", {"url": str(bad)})
        _, doc = get_json(f"{served}/version")
        assert doc["version"] == before + 1
