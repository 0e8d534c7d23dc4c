"""Scenario runner: stage wiring, fail-safe behavior, report documents."""

import hashlib
import json
from dataclasses import asdict

import pytest

from citykit.feedgen import CityFixture
from citykit.harness import (
    ESTIMATION_STAGES,
    ROUTING_STAGES,
    EstimationScenarioConfig,
    RoutingScenarioConfig,
    run_scenario_estimation,
    run_scenario_routing,
)

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
