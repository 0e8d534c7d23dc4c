"""Synthetic city: seeded RNG, timetable, streams, defect corpora."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import citykit
from citykit.clock import SimulatedClock
from citykit.datamodels import bundled_registry, validate_batch
from citykit.feedgen import (
    CityFixture,
    DEFECT_KINDS,
    Lcg64,
    SeriesSpec,
    StreamGenerator,
    closed_form,
    generate_city,
    generate_service_entities,
    generate_static_network,
    load_fixture_file,
    network_timetable,
    parse_fixture_text,
    seed_defects,
)
from citykit.textio import read_jsonl, write_jsonl

DAY = 1748822400  # 2025-06-02 00:00 UTC


class TestLcg64:
    def test_same_seed_same_stream(self):
        a, b = Lcg64(123), Lcg64(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_different_seeds_diverge(self):
        assert Lcg64(1).next_u64() != Lcg64(2).next_u64()

    def test_random_stays_in_unit_interval(self):
        rng = Lcg64(7)
        draws = [rng.random() for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) > 990  # not stuck in a short cycle

    def test_randrange_and_choice(self):
        rng = Lcg64(7)
        assert all(rng.randrange(10) in range(10) for _ in range(200))
        assert rng.choice(["a", "b", "c"]) in {"a", "b", "c"}
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_gauss_scales_linearly_with_std(self):
        wide = Lcg64(9).gauss(2.0)
        unit = Lcg64(9).gauss()
        assert wide == 2.0 * unit

    def test_gauss_is_reproducible(self):
        assert [Lcg64(4).gauss() for _ in range(1)] == [Lcg64(4).gauss()]

    def test_gauss_takes_a_zero_draw_as_the_smallest_one(self):
        mult, inc = 6364136223846793005, 1442695040888963407  # Knuth's MMIX LCG
        before_zero = -inc * pow(mult, -1, 1 << 64) % (1 << 64)  # its successor is 0
        rng = Lcg64(before_zero)
        assert rng.random() == 0.0
        u2 = rng.random()
        assert Lcg64(before_zero).gauss() == \
            math.sqrt(-2.0 * math.log(2.0 ** -53)) * math.cos(2.0 * math.pi * u2)


class TestFixture:
    def test_bundled_fixture_file_matches_defaults(self):
        path = Path(citykit.__file__).parent / "fixtures" / "default_city.txt"
        assert load_fixture_file(path) == CityFixture()

    def test_dotted_keys_fill_the_tables(self):
        fixture = parse_fixture_text(
            "stopCount = 7\n"
            "delay.R1-T1 = 60\n"
            "defect.wrong-type = 2\n"
            "series.intensity.noiseStd = 5\n"
            "series.humidity.baseline = 10\n")
        assert fixture.stopCount == 7
        assert fixture.tripDelays == {"R1-T1": 60}
        assert fixture.defectPlan == {"wrong-type": 2}
        assert fixture.seriesSpecs["intensity"].noiseStd == 5.0
        assert fixture.seriesSpecs["humidity"] == SeriesSpec(10.0, 0)

    def test_parse_rejections(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_fixture_text("stopCount 5")
        with pytest.raises(ValueError, match="unknown key"):
            parse_fixture_text("stops = 5")
        with pytest.raises(ValueError, match="unknown series field"):
            parse_fixture_text("series.LAeq.wobble = 3")

    def test_fixture_validation(self):
        with pytest.raises(ValueError):
            CityFixture(stopCount=1)
        for counts in ({"routeCount": 0}, {"tripsPerRoute": 0}):
            with pytest.raises(ValueError, match="need at least one route and one trip"):
                CityFixture(**counts)
        with pytest.raises(ValueError):
            CityFixture(defectPlan={"wrong-type": -1})

    def test_day_start_is_utc_midnight(self):
        assert CityFixture().day_start() == DAY


class TestTimetable:
    def test_canonical_calls(self):
        table = network_timetable(CityFixture())
        assert table["stops"] == ["S1", "S2", "S3", "S4", "S5"]
        assert table["routes"] == ["R1", "R2"]
        assert table["trips"]["R1-T1"]["calls"] == [
            ("S1", 28800), ("S2", 28920), ("S3", 29040),
            ("S4", 29160), ("S5", 29280)]
        assert table["trips"]["R2-T1"]["calls"] == [
            ("S1", 29100), ("S3", 29250), ("S5", 29400)]
        assert table["trips"]["R1-T2"]["calls"][-1] == ("S5", 31080)
        assert table["trips"]["R2-T2"]["calls"][-1] == ("S5", 31200)

    def test_express_serves_every_other_stop(self):
        table = network_timetable(CityFixture())
        assert [s for s, _ in table["trips"]["R2-T1"]["calls"]] == ["S1", "S3", "S5"]

    def test_sparse_route_still_gets_two_stops(self):
        table = network_timetable(CityFixture(stopCount=2, routeCount=3))
        assert [s for s, _ in table["trips"]["R3-T1"]["calls"]] == ["S1", "S2"]


class TestCityEntities:
    def test_static_network_shape(self):
        entities = generate_static_network(CityFixture())
        assert len(entities) == 29  # agency+5 stops+2 routes+service+4 trips+16 calls
        by_type: dict = {}
        for entity in entities:
            by_type.setdefault(entity.entityType, []).append(entity)
        assert len(by_type["GtfsStop"]) == 5
        assert len(by_type["GtfsStopTime"]) == 16
        assert [s.value("latitude") for s in by_type["GtfsStop"]] == [
            40.0, 40.004, 40.008, 40.012, 40.016]
        stop_ids = {s.id for s in by_type["GtfsStop"]}
        assert all(st.value("refStop") in stop_ids
                   for st in by_type["GtfsStopTime"])
        assert by_type["GtfsService"][0].value("weekdays") == [1] * 7

    def test_service_entities_start_on_profile(self):
        entities = {e.id: e for e in generate_service_entities(CityFixture())}
        assert len(entities) == 6
        parking = entities["parking-1"]
        assert parking.value("availableSpotNumber") == 30  # midnight sinusoid
        assert parking.value("totalSpotNumber") == 42
        assert parking.value("dateObserved") == "2025-06-02T00:00:00Z"
        assert entities["spot-1"].value("refOnStreetParking") == "parking-1"

    def test_city_is_schema_clean(self):
        summary = validate_batch(generate_city(CityFixture()),
                                 bundled_registry())
        assert summary["total"] == 35
        assert summary["invalid"] == 0
        assert summary["perKindCounts"] == {}


class TestProfiles:
    def test_parking_sinusoid_peaks_at_6am(self):
        spec = SeriesSpec(30, 12)
        assert closed_form("availableSpotNumber", spec, DAY) == 30
        assert closed_form("availableSpotNumber", spec, DAY + 21600) == 42
        assert closed_form("availableSpotNumber", spec, DAY + 64800) == 18

    def test_parking_clamps_to_capacity_band(self):
        spec = SeriesSpec(2, 12)
        assert closed_form("availableSpotNumber", spec, DAY + 64800) == 0

    def test_traffic_peaks_at_rush_hours(self):
        spec = SeriesSpec(180, 120)
        morning = closed_form("intensity", spec, DAY + int(8.5 * 3600))
        assert morning == 300
        lull = closed_form("intensity", spec, DAY + 3 * 3600)
        assert lull == 180

    def test_noise_keeps_one_decimal_and_clamps(self):
        assert closed_form("LAeq", SeriesSpec(55.0, 6.0), DAY + 7200) == 58.0
        assert closed_form("LAeq", SeriesSpec(139.0, 10.0), DAY + 21600) == 140.0

    def test_unknown_attribute_has_no_profile(self):
        with pytest.raises(ValueError):
            closed_form("humidity", SeriesSpec(1, 1), DAY)


class TestStreams:
    def test_noise_free_events_equal_the_closed_form(self):
        fixture = CityFixture()
        events = StreamGenerator(fixture).series_events()
        assert len(events) == 384  # 4 sites x 96 samples
        for event in events:
            (attr,) = [k for k in event.attributes if k != "dateObserved"]
            spec = fixture.seriesSpecs[attr]
            assert event.attributes[attr].value == closed_form(attr, spec, event.t)

    def test_an_attribute_without_a_series_spec_is_not_emitted(self):
        fixture = CityFixture()
        specs = {k: v for k, v in fixture.seriesSpecs.items() if k != "intensity"}
        events = StreamGenerator(replace(fixture, seriesSpecs=specs)).series_events()
        assert len(events) == 288  # the traffic site's 96 samples are gone
        assert "traffic-1" not in {e.entityId for e in events}

    def test_events_sorted_by_time_then_entity(self):
        events = StreamGenerator(CityFixture()).events()
        keys = [(e.t, e.entityId) for e in events]
        assert keys == sorted(keys)

    def test_arrival_countdowns_tick_down_to_the_call(self):
        events = StreamGenerator(CityFixture()).arrival_events()
        assert all(0 < e.attributes["remainingTime"].value <= 1800
                   for e in events)
        first_call = [e for e in events if e.entityId == "arrival-R1-T1-S1"]
        assert [e.attributes["remainingTime"].value for e in first_call] == [
            1800, 1500, 1200, 900, 600, 300]
        assert [e.t - DAY for e in first_call] == [
            27000, 27300, 27600, 27900, 28200, 28500]
        assert first_call[0].attributes["refLine"].value == "R1"

    def test_trip_delays_shift_arrivals_only(self):
        fixture = CityFixture(tripDelays={"R1-T1": 60})
        gen = StreamGenerator(fixture)
        arrivals = {(trip, stop): t for t, trip, _, stop in gen.effective_arrivals()}
        assert arrivals[("R1-T1", "S5")] == DAY + 29340
        assert arrivals[("R2-T1", "S5")] == DAY + 29400
        truth = {r["tripId"]: r["delaySeconds"] for r in gen.ground_truth()}
        assert truth["R1-T1"] == 60
        assert truth["R2-T1"] == 0

    def test_random_delays_are_reproducible(self):
        fixture = CityFixture(delayStd=120.0)
        first = StreamGenerator(fixture).trip_delays
        second = StreamGenerator(fixture).trip_delays
        assert first == second
        assert any(d != 0 for d in first.values())

    def test_delays_never_perturb_the_sensor_series(self):
        specs = dict(CityFixture().seriesSpecs)
        specs["availableSpotNumber"] = SeriesSpec(30, 12, 3.0, 900)
        quiet = CityFixture(seriesSpecs=dict(specs))
        delayed = CityFixture(seriesSpecs=dict(specs), delayStd=120.0)
        assert StreamGenerator(quiet).series_events() == \
            StreamGenerator(delayed).series_events()

    def test_emit_replays_into_a_broker(self, broker):
        fixture = CityFixture()
        for entity in generate_city(fixture):
            broker.upsert_entity(entity)
        clock = SimulatedClock(DAY + 27000)
        gen = StreamGenerator(fixture, t0=DAY + 27000)
        count = gen.emit(broker, clock=clock, duration=2700)
        assert count == len(gen.events(2700))
        assert clock.now() == DAY + 29700
        # site patched to the latest sample
        parking = broker.get_entity("parking-1")
        spec = fixture.seriesSpecs["availableSpotNumber"]
        assert parking.value("availableSpotNumber") == closed_form(
            "availableSpotNumber", spec, DAY + 29700)
        # countdown entity holds its final pre-arrival value
        arrival = broker.get_entity("arrival-R1-T1-S1")
        assert arrival.value("remainingTime") == 300


class TestDefectSeeding:
    PLAN = {"missing-required": 2, "wrong-type": 2, "out-of-range": 2,
            "not-in-enum": 1, "pattern-mismatch": 1, "unknown-entity-type": 1}

    def test_kinds_catalog(self):
        assert set(self.PLAN) <= set(DEFECT_KINDS)
        assert len(DEFECT_KINDS) == 6

    def test_per_kind_violation_counts_match_the_plan(self):
        corpus = generate_city(CityFixture())
        result = seed_defects(corpus, self.PLAN, seed=42)
        summary = validate_batch(result.entities, bundled_registry())
        assert summary["perKindCounts"] == self.PLAN
        assert summary["invalid"] == sum(self.PLAN.values())
        assert summary["total"] == len(corpus)

    def test_one_defect_per_entity(self):
        result = seed_defects(generate_city(CityFixture()), self.PLAN, seed=42)
        hosts = [r["entityId"] for r in result.groundTruth]
        assert len(hosts) == len(set(hosts))

    def test_out_of_range_stays_single_even_on_paired_attributes(self):
        # stop times dominate this corpus; their arrival/departure pair must
        # not double-report a planted range defect
        corpus = generate_city(CityFixture(stopCount=40))
        result = seed_defects(corpus, {"out-of-range": 30}, seed=7)
        summary = validate_batch(result.entities, bundled_registry())
        assert summary["perKindCounts"] == {"out-of-range": 30}
        assert summary["invalid"] == 30

    def test_seeding_is_deterministic(self):
        corpus = generate_city(CityFixture())
        first = seed_defects(corpus, self.PLAN, seed=9)
        second = seed_defects(corpus, self.PLAN, seed=9)
        assert first.groundTruth == second.groundTruth
        assert [e.to_wire() for e in first.entities] == \
            [e.to_wire() for e in second.entities]
        assert seed_defects(corpus, self.PLAN, seed=10).groundTruth \
            != first.groundTruth

    def test_input_corpus_is_never_mutated(self):
        corpus = generate_city(CityFixture())
        before = [e.to_wire() for e in corpus]
        seed_defects(corpus, self.PLAN, seed=42)
        assert [e.to_wire() for e in corpus] == before

    def test_exhausted_host_pool_is_an_error(self):
        corpus = generate_city(CityFixture())
        with pytest.raises(ValueError, match="pattern-mismatch"):
            seed_defects(corpus, {"pattern-mismatch": 3}, seed=1)

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown defect kind"):
            seed_defects(generate_city(CityFixture()), {"typo": 1}, seed=1)

    def test_ground_truth_names_the_touched_attribute(self):
        corpus = generate_city(CityFixture())
        result = seed_defects(corpus, {"wrong-type": 1,
                                       "unknown-entity-type": 1}, seed=3)
        by_kind = {r["kind"]: r for r in result.groundTruth}
        assert by_kind["wrong-type"]["attributeName"] != ""
        assert by_kind["unknown-entity-type"]["attributeName"] == ""


def test_ground_truth_file_round_trip(tmp_path):
    path = tmp_path / "truth.jsonl"
    records = [{"kind": "delay", "tripId": "R1-T1", "delaySeconds": 60},
               {"kind": "defect", "entityId": "S1", "attributeName": "name"}]
    assert write_jsonl(path, records) == 2
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")  # stray blank line is ignored on read
    assert list(read_jsonl(path)) == records


def _digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(doc, sort_keys=True).encode("utf-8") + b"\n")
    return h.hexdigest()


class TestPinnedBytes:
    """Digests of generated data, fixed when these tests were written.

    Equal seeds must keep giving equal bytes across versions, not just
    within one: a change to the RNG draw order, the series formula or the
    defect planting shows up here.
    """

    def test_defect_corpora(self):
        corpus = generate_city(CityFixture(stopCount=12, parkingSites=3, parkingSpots=3,
                                           trafficSites=2, noiseSites=2))
        plans = [{kind: 1 for kind in DEFECT_KINDS},
                 {"not-in-enum": 2, "pattern-mismatch": 2, "out-of-range": 3,
                  "wrong-type": 3},
                 {"missing-required": 4, "unknown-entity-type": 3, "out-of-range": 5,
                  "wrong-type": 3}]
        docs = []
        for seed in (1, 2, 3, 42):
            for plan in plans:
                result = seed_defects(corpus, plan, seed)
                docs += [e.to_wire() for e in result.entities] + result.groundTruth
        assert _digest(docs) == \
            "b1010446909a92f8b928d81566bd0e2771bac902295343aedb7fef66ed1d0919"

    def test_noisy_delayed_streams(self):
        specs = {"availableSpotNumber": SeriesSpec(30, 12, 4.0, 900),
                 "intensity": SeriesSpec(180, 120, 25.0, 600),
                 "LAeq": SeriesSpec(55.0, 6.0, 1.5, 900)}
        docs = []
        for seed in (1, 2, 42):
            gen = StreamGenerator(CityFixture(seed=seed, seriesSpecs=specs, delayStd=90.0,
                                              trafficSites=2, noiseSites=2))
            docs += [e.to_doc() for e in gen.events(2 * 86400)] + gen.ground_truth()
        assert _digest(docs) == \
            "66c5e50e6a0a7775630438a75c5870636cde84a6e480ddb0792626151799f6dc"

    def test_forecast_shaped_series(self):
        # >= 10 sites per kind, so ids sort as strings (parking-10 < parking-2);
        # every attribute noisy, two sampling intervals, a t0 off midnight
        specs = {"availableSpotNumber": SeriesSpec(30, 12, 2.0, 900),
                 "intensity": SeriesSpec(180, 120, 25.0, 600),
                 "LAeq": SeriesSpec(55.0, 6.0, 1.5, 900)}
        docs = []
        for seed in (1, 7):
            gen = StreamGenerator(CityFixture(seed=seed, seriesSpecs=specs, parkingSites=12,
                                              parkingSpots=0, trafficSites=11,
                                              noiseSites=10), t0=DAY - 3 * 86400 + 450.5)
            docs += [e.to_doc() for e in gen.series_events(2 * 86400 + 1000)]
        assert _digest(docs) == \
            "9f9baa0fa6abd4f1adc3889f1181b0fe6373714b8eb7757775f48cea40c3b77f"
