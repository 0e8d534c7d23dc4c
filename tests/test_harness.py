"""Scenario runner: stage wiring, fail-safe behavior, report documents."""

import hashlib
import json
from dataclasses import asdict, replace
from types import SimpleNamespace

import pytest

import citykit.estimator.scheduler as scheduler_module
from citykit import harness
from citykit.estimator.models import EstimatorError
from citykit.feedgen import CityFixture
from citykit.gtfs_realtime import TripResolver
from citykit.harness import (
    ESTIMATION_STAGES,
    ROUTING_STAGES,
    EstimationScenarioConfig,
    RoutingScenarioConfig,
    run_scenario_estimation,
    run_scenario_routing,
)
from citykit.ngsi import Attribute

DAY = 1748822400  # 2025-06-02 00:00 UTC


@pytest.fixture(scope="module")
def routing_report():
    return run_scenario_routing()


@pytest.fixture(scope="module")
def failsafe_report():
    return run_scenario_routing(RoutingScenarioConfig(corruptUpdate=True))


@pytest.fixture(scope="module")
def estimation_report():
    return run_scenario_estimation()


class TestRoutingScenario:
    def test_every_stage_passes(self, routing_report):
        assert [s.name for s in routing_report.stages] == list(ROUTING_STAGES)
        assert [s.status for s in routing_report.stages] == ["pass"] * 10
        assert routing_report.outcome == "pass"

    def test_static_plan_rides_the_first_local(self, routing_report):
        detail = routing_report.stage("plan-static").detail
        assert detail["bestArrival"] == DAY + 29280

    def test_update_feed_swaps_the_graph(self, routing_report):
        detail = routing_report.stage("update-feed").detail
        assert detail == {"outcome": "reloaded", "graphVersion": 2}

    def test_arrivals_commit_with_ground_truth(self, routing_report):
        detail = routing_report.stage("commit-arrivals").detail
        assert detail["emitTime"] == DAY + 28500
        assert detail["committed"] == 8  # all R1-T1 and R2-T1 calls in window
        truth = {r["tripId"]: r["delaySeconds"] for r in detail["groundTruth"]}
        assert truth["R1-T1"] == 600
        assert truth["R2-T1"] == 0

    def test_overlay_covers_both_running_trips(self, routing_report):
        assert routing_report.stage("build-rt").detail["tripUpdates"] == 2
        assert routing_report.stage("apply-rt").detail["unknownTrips"] == []

    def test_replan_shifts_to_the_express(self, routing_report):
        detail = routing_report.stage("plan-realtime").detail
        assert detail["bestArrival"] == DAY + 29400  # R2-T1 overtakes
        assert detail["arrivalShiftSeconds"] == 120
        assert detail["graphVersion"] == 2

    def test_report_document_shape(self, routing_report):
        doc = asdict(routing_report)
        assert set(doc) == {"scenario", "outcome", "generatedAt", "stages"}
        assert doc["scenario"] == "routing"
        assert "T" in doc["generatedAt"]
        for stage_doc in doc["stages"]:
            assert set(stage_doc) == {"name", "status", "detail",
                                      "latencySeconds"}
            assert stage_doc["latencySeconds"] >= 0
        with pytest.raises(KeyError):
            routing_report.stage("no-such-stage")


class TestRoutingFailSafe:
    def test_outcome_is_fail_safe(self, failsafe_report):
        assert failsafe_report.outcome == "fail-safe"

    def test_rejected_update_keeps_the_old_graph(self, failsafe_report):
        stage = failsafe_report.stage("update-feed")
        assert stage.status == "fail"
        assert stage.detail["outcome"] == "parse-error"
        assert stage.detail["graphVersion"] == 1
        assert stage.detail["note"] == "feed rejected; graph v1 retained"

    def test_later_stages_still_run_on_the_stale_graph(self, failsafe_report):
        after = [failsafe_report.stage(n).status for n in
                 ("commit-arrivals", "build-rt", "apply-rt", "plan-realtime")]
        assert after == ["pass"] * 4
        detail = failsafe_report.stage("plan-realtime").detail
        assert detail["graphVersion"] == 1
        assert detail["note"] == "served stale graph v1"
        assert detail["arrivalShiftSeconds"] == 120


class TestRoutingHardFailure:
    def test_failure_skips_the_remaining_stages(self):
        report = run_scenario_routing(RoutingScenarioConfig(fixture=CityFixture(stopCount=4)))
        statuses = {s.name: s.status for s in report.stages}
        assert statuses["plan-static"] == "fail"
        assert "origin-isolated" in str(report.stage("plan-static").detail)
        for name in ROUTING_STAGES[ROUTING_STAGES.index("plan-static") + 1:]:
            assert statuses[name] == "skipped"
        assert report.outcome == "fail"


class TestEstimationScenario:
    def test_every_stage_passes(self, estimation_report):
        assert [s.name for s in estimation_report.stages] == list(ESTIMATION_STAGES)
        assert estimation_report.outcome == "pass"

    def test_backfill_skips_the_noise_site(self, estimation_report):
        series = estimation_report.stage("backfill").detail["series"]
        assert series["parking-1/availableSpotNumber"] == 20 * 96
        assert "noise-1/LAeq" not in series

    def test_training_gate_is_documented(self, estimation_report):
        rows = estimation_report.stage("train-gate").detail["series"]
        noise = rows["noise-1/LAeq"]
        assert noise["model"] is False
        assert noise["note"] == "skipped: below minSamples (96 < 1000)"
        assert rows["parking-1/availableSpotNumber"]["model"] is True

    def test_invocation_counts_are_exact(self, estimation_report):
        detail = estimation_report.stage("invocation-counts").detail
        assert detail["expectedInfersPerSeries"] == 96
        assert detail["expectedTrainsPerSeries"] == 1
        assert set(detail["infers"].values()) == {96}
        assert set(detail["trains"].values()) == {1}
        assert len(detail["infers"]) == 3  # both parkings and the traffic site

    def test_forecast_beats_the_naive_baseline(self, estimation_report):
        detail = estimation_report.stage("forecast-quality").detail
        assert detail["testError"] <= detail["naiveTestError"]
        assert detail["testError"] <= detail["threshold"]

    def test_forecast_written_back_to_the_entity(self, estimation_report):
        detail = estimation_report.stage("writeback").detail
        assert detail["attribute"] == "availableSpotNumberForecast"
        assert set(detail["metadata"]) == {"horizonStart", "horizonEnd",
                                           "issuedAt"}
        assert detail["predictions"] == 3 * 96


def test_unreachable_quality_threshold_fails_the_run():
    config = EstimationScenarioConfig(backfillDays=11, rmseThreshold=0.001)
    report = run_scenario_estimation(config)
    assert report.outcome == "fail"
    stage = report.stage("forecast-quality")
    assert stage.status == "fail"
    assert stage.detail["testError"] > 0.001
    assert report.stage("writeback").status == "skipped"


def _report_digest(report, strip=()) -> str:
    """sha256 of the report document without its wall-clock fields and
    without the detail fields named in ``strip`` as (stage, key) pairs."""
    doc = asdict(report)
    del doc["generatedAt"]
    for stage_doc in doc["stages"]:
        del stage_doc["latencySeconds"]
        for name, key in strip:
            if stage_doc["name"] == name:
                del stage_doc["detail"][key]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


class TestPinnedReports:
    """Digests of whole scenario reports, fixed when these tests were written.

    Equal configs must keep giving equal reports across versions. The
    estimation digest leaves out the model's test error and the written-back
    forecast values, whose last bits depend on the linear algebra build.
    """

    def test_routing_reports(self, routing_report, failsafe_report):
        hard = run_scenario_routing(RoutingScenarioConfig(fixture=CityFixture(stopCount=4)))
        assert [_report_digest(r) for r in (routing_report, failsafe_report, hard)] == [
            "f68d37e733aee97892c60b3e54344130fe1d227251b80ec64559fb54340f9224",
            "d0dc20b9bc721c7dcebae86f99e10d707d75672519b291f7d0f6ba9e346d326d",
            "217d67074abce35fb6a401e7fe1e9494a07e0366d746f14a6ea6faad58984f6e"]

    def test_estimation_report(self, estimation_report):
        strip = (("forecast-quality", "testError"), ("writeback", "value"))
        assert _report_digest(estimation_report, strip) == \
            "af223bda731526ea83acc5887e87500adcd9907a1634e964c60392d46e93812e"


def _failed_at(report, stage, outcome="fail"):
    """The detail of ``stage``, after checking it is the one stage that failed,
    and that the stages after it were skipped (outcome "fail") or passed."""
    after = "skipped" if outcome == "fail" else "pass"
    names = [s.name for s in report.stages]
    at = names.index(stage)
    assert [s.status for s in report.stages] == \
        ["pass"] * at + ["fail"] + [after] * (len(names) - at - 1)
    assert report.outcome == outcome
    return report.stage(stage).detail


class TestRoutingStageFailures:
    def test_an_invalid_city_entity(self, monkeypatch):
        monkeypatch.setattr(harness, "validate_entity", lambda entity, registry:
                            SimpleNamespace(valid=entity.entityType != "GtfsStop"))
        detail = _failed_at(run_scenario_routing(), "generate-city")
        assert detail == {"invalidEntities": ["S1", "S2", "S3", "S4", "S5"]}

    def test_a_feed_the_fetcher_does_not_apply(self, monkeypatch):
        monkeypatch.setattr(harness.GtfsFetcher, "poll", lambda self, broker: 0)
        detail = _failed_at(run_scenario_routing(), "fetch-feed")
        assert detail == {"applied": 0, "events": []}

    def test_an_update_that_raises_leaves_the_old_graph_serving(self, monkeypatch):
        publish, calls = harness.publish_feed_entity, []

        def publish_once(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise OSError("disk gone")
            return publish(*args, **kwargs)

        monkeypatch.setattr(harness, "publish_feed_entity", publish_once)
        report = run_scenario_routing()
        assert _failed_at(report, "update-feed", "fail-safe") == "OSError: disk gone"
        assert report.stage("plan-realtime").detail["graphVersion"] == 1

    def test_no_arrival_within_the_lead(self):
        report = run_scenario_routing(RoutingScenarioConfig(
            fixture=CityFixture(arrivalLeadSeconds=60)))  # the first call is 300 s away
        assert _failed_at(report, "commit-arrivals") == {"committed": 0,
                                                         "emitTime": DAY + 28500}

    def test_an_estimation_no_trip_resolves(self, monkeypatch):
        monkeypatch.setattr(harness, "TripResolver", lambda feed, day_start:
                            TripResolver(replace(feed, trips=[]), day_start))
        detail = _failed_at(run_scenario_routing(), "build-rt")
        assert len(detail["unresolved"]) == 8
        assert all(u["reason"].startswith("no upcoming trip") for u in detail["unresolved"])


class TestEstimationStageFailures:
    def test_a_series_that_does_not_train(self, monkeypatch):
        def fail(*args):
            raise ValueError("boom")

        monkeypatch.setattr(scheduler_module, "train", fail)
        detail = _failed_at(run_scenario_estimation(), "start-scheduler")
        assert detail == {"expectedModels": ["parking-1/availableSpotNumber",
                                             "parking-2/availableSpotNumber",
                                             "traffic-1/intensity"]}

    def test_a_model_below_min_samples(self, monkeypatch):
        train = scheduler_module.train
        monkeypatch.setattr(scheduler_module, "train", lambda store, e, a, config, now:
                            train(store, e, a, replace(config, minSamples=96), now))
        detail = _failed_at(run_scenario_estimation(), "train-gate")
        assert detail["gateViolation"] == "noise-1/LAeq"
        assert detail["series"]["noise-1/LAeq"] == {
            "samples": 96, "model": True, "note": "skipped: below minSamples (96 < 1000)"}

    def test_a_skipped_inference(self, monkeypatch):
        infer = scheduler_module.infer

        def infer_but_parking_2(model, *args):
            if model.entityId == "parking-2":
                raise EstimatorError("insufficient-context", "withheld")
            return infer(model, *args)

        monkeypatch.setattr(scheduler_module, "infer", infer_but_parking_2)
        detail = _failed_at(run_scenario_estimation(), "invocation-counts")
        assert detail["infers"] == {"parking-1/availableSpotNumber": 96,
                                    "traffic-1/intensity": 96}

    def test_no_parking_model(self):
        report = run_scenario_estimation(EstimationScenarioConfig(backfillDays=1))
        assert _failed_at(report, "forecast-quality") == {"error": "no parking model"}

    def test_a_model_the_naive_baseline_beats(self, monkeypatch):
        monkeypatch.setattr(harness, "train", lambda *args: SimpleNamespace(testError=0.0))
        detail = _failed_at(run_scenario_estimation(), "forecast-quality")
        assert detail["naiveTestError"] == 0.0 < detail["testError"] <= detail["threshold"]

    def test_no_forecast_written_back(self, monkeypatch):
        monkeypatch.setattr(harness, "writeback", lambda prediction, broker: True)
        detail = _failed_at(run_scenario_estimation(), "writeback")
        assert detail == {"missingAttribute": "availableSpotNumberForecast"}

    def test_a_forecast_written_back_without_its_horizon(self, monkeypatch):
        def bare_writeback(prediction, broker):
            broker.update_attributes(prediction.entityId, {
                prediction.attributeName + "Forecast": Attribute(prediction.value, "Number")})

        monkeypatch.setattr(harness, "writeback", bare_writeback)
        detail = _failed_at(run_scenario_estimation(), "writeback")
        assert detail == {"missingMetadata": "horizonStart"}
