"""Tiny-size runs of the whole command: every workload, traced and not."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_tiny_run_checks_its_answers_and_prints_every_end_to_end_metric(workload):
    seconds = "3" if workload == "live" else "1.5"  # live reloads every 10th tick
    result = result_of(run(RUN, "--workload", workload, "--seed", "3", "--seconds", seconds,
                           "--tiny"))
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    for m in CONTRACT["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


# The layers each workload is there to exercise: their metrics must read
# above 0 in a traced run, so a wrapper that stops matching shows.
EXERCISED = {
    "plan": ["httpd.rtt_ms", "httpd.handler_ms", "broker_http.upsert_ms",
             "datamodels.validated", "gtfs.ngsi_to_gtfs_ms", "gtfs.parse_ms",
             "gtfs_fetcher.reloads", "routing.plan_ms", "routing.plan_share",
             "routing.itineraries_per_plan", "routing.build_graph_ms", "feedgen.generate_s"],
    "live": ["broker_http.upsert_ms", "broker.commit_us", "gtfs.parse_ms",
             "gtfs_fetcher.consider_ms", "gtfs_fetcher.reloads", "gtfs_realtime.refresh_ms",
             "gtfs_realtime.refreshes_per_estimation", "gtfs_realtime.resolve_us",
             "routing.plan_ms", "routing.apply_realtime_ms", "routing.overlay_trips"],
    "sensors": ["httpd.rtt_ms", "httpd.handler_ms", "httpd.conns_per_req",
                "broker_http.patch_ms", "broker_http.query_ms", "broker_http.client_ms",
                "ngsi.from_wire_us", "ngsi.to_wire_us", "broker.commit_us", "broker.query_ms",
                "broker.query_hit_ratio", "broker.pump_ms", "broker.delivered",
                "broker.sink_ms", "broker.journal_bytes_per_commit", "datamodels.validated",
                "transforms.map_us", "transforms.mapped"],
    "forecast": ["broker.commit_us", "broker.delivered", "estimator.ingest_us",
                 "estimator.train_ms", "estimator.fit_ridge_ms", "estimator.infer_us",
                 "estimator.store_get_us", "estimator.read_ratio", "estimator.writeback_us",
                 "feedgen.generate_s"],
}


@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    seconds = "3" if workload == "live" else "1.5"
    proc = run(RUN, "--workload", workload, "--seed", "3", "--seconds", seconds, "--tiny",
               "--trace", "1")
    result = result_of(proc)
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["per_layer"]}
    for m in CONTRACT["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    idle = [name for name in EXERCISED[workload] if not result["metrics"][name]["value"] > 0]
    assert not idle, f"{workload}: exercised layers read 0: {idle}"
    if workload == "live":
        assert result["metrics"]["gtfs_fetcher.reloads"]["value"] >= 2
    assert "tracing.overhead" in proc.stdout


def test_without_the_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("perfbench/run.py", "--workload", "plan", "--seed", "1", "--seconds", "1",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
