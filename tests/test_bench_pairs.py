"""The pair summary of tools/bench_pairs.py, on canned run output; no run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.24},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24},
]}


def stdout(p50, rate, correct=True, failed=0):
    """What perfbench/run.py prints: a report, the run record, then the result line."""
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"},
                          "ops_per_s": {"value": rate, "unit": "1/s"}}}
    return ("workload plan  seed 1\ngated metrics\n  op_p50_ms 1.0 ms\n"
            'run record {"seed": 1, "srcLines": 5000}\n' + json.dumps(result) + "\n")


def run(side, pair, text, code=0):
    result, record = bench_pairs.parse_output(text)
    return {"workload": "plan", "side": side, "pair": pair, "exit": code,
            "result": result, "record": record}


def test_parse_output_reads_the_result_and_the_run_record():
    result, record = bench_pairs.parse_output(stdout(10.0, 100.0))
    assert result["metrics"]["op_p50_ms"]["value"] == 10.0
    assert record == {"seed": 1, "srcLines": 5000}
    assert bench_pairs.parse_output("Traceback (most recent call last):\n  boom\n") == (None, None)


def test_summary_gives_medians_quartiles_pair_wins_and_the_bound_flag():
    runs = [run("parent", k, stdout(10.0 + k, 100.0)) for k in range(1, 6)]
    runs += [run("change", k, stdout(12.0 + k, 70.0)) for k in range(1, 6)]
    summary = bench_pairs.summarise(runs, SPEC)["plan"]
    p50 = summary["metrics"]["op_p50_ms"]
    assert (p50["parent"]["median"], p50["parent"]["q1"], p50["parent"]["q3"]) == (13, 12, 14)
    assert p50["change"]["median"] == 15
    assert (p50["pairs"], p50["changeBetterPairs"]) == (5, 0)
    assert p50["relativeChange"] == pytest.approx(15 / 13 - 1)
    assert not p50["worseBeyondBound"]  # +15%, inside 24%
    assert p50["parentSpread"] == pytest.approx(2 / 13)
    assert not p50["unresolved"]
    rate = summary["metrics"]["ops_per_s"]
    assert rate["worseBeyondBound"]  # -30% of a higher-is-better metric
    assert summary["runs"]["change"] == {"runs": 5, "failedRuns": 0, "attempted": 500,
                                         "failed": 0}


def test_failed_and_incorrect_runs_are_counted_not_dropped():
    runs = [run("parent", 1, stdout(10.0, 100.0)), run("parent", 2, stdout(10.0, 100.0)),
            run("change", 1, "Traceback (most recent call last):\n", code=1),
            run("change", 2, stdout(9.0, 110.0, correct=False, failed=3), code=1)]
    summary = bench_pairs.summarise(runs, SPEC)["plan"]
    assert summary["runs"]["change"] == {"runs": 2, "failedRuns": 2, "attempted": 100,
                                         "failed": 3}
    p50 = summary["metrics"]["op_p50_ms"]
    assert p50["change"] == {"n": 1, "median": 9.0, "q1": 9.0, "q3": 9.0}
    assert (p50["pairs"], p50["changeBetterPairs"]) == (1, 1)


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    runs = [run("parent", k, stdout(p50, 100.0)) for k, p50 in enumerate((5, 10, 15, 20), 1)]
    runs += [run("change", k, stdout(p50, 100.0)) for k, p50 in enumerate((6, 11, 14, 19), 1)]
    p50 = bench_pairs.summarise(runs, SPEC)["plan"]["metrics"]["op_p50_ms"]
    assert p50["unresolved"] and not p50["worseBeyondBound"]
    runs = [r for r in runs if r["side"] == "parent"]
    runs += [run("change", k, stdout(4.0, 100.0)) for k in range(1, 5)]
    assert not bench_pairs.summarise(runs, SPEC)["plan"]["metrics"]["op_p50_ms"]["unresolved"]


NAMED_STDOUT = """workload sensors  seed 1  seconds 18  trace 0  wall 30.1 s
end-to-end metrics
  setup_s                      0.3584 s     n=3 (median of set-ups)
  write_p50_ms                 0.7772 ms    n=148
  write_p95_ms                omitted ms    n=148 (fewer than 10 samples beyond it)
  notify_p50_ms               29.9070 ms    n=194 (as measured)
  query_p50_ms                      - ms    n=0
  train_pass_s                    nan s     n=0
gated metrics
  op = PATCH due time until the broker acknowledges it; tail = p80
  op_p50_ms                    0.7771 ms    n=148
run record {"seed": 1}
{"correct": true, "attempted": 180, "failed": 0, "metrics": {}}
"""


def test_the_report_names_worse_and_unresolved_metrics(capsys):
    runs = [run("parent", k, stdout(p50, 100.0)) for k, p50 in enumerate((5, 10, 15, 20), 1)]
    runs += [run("change", k, stdout(p50, 70.0)) for k, p50 in enumerate((6, 11, 14, 19), 1)]
    assert bench_pairs.report(bench_pairs.summarise(runs, SPEC)) == 1
    assert capsys.readouterr().err.splitlines() == ["unresolved: plan op_p50_ms",
                                                   "worse beyond bound: plan ops_per_s"]
    runs = [r for r in runs if r["side"] == "parent"]
    runs += [run("change", k, stdout(p50, 100.0)) for k, p50 in enumerate((6, 11, 14, 19), 1)]
    assert bench_pairs.report(bench_pairs.summarise(runs, SPEC)) == 0  # unresolved alone
    assert capsys.readouterr().err.splitlines() == ["unresolved: plan op_p50_ms"]


def test_named_figures_are_kept_and_summarised_for_information():
    named = bench_pairs.parse_named(NAMED_STDOUT)
    assert named == {"setup_s": {"value": 0.3584, "unit": "s"},
                     "write_p50_ms": {"value": 0.7772, "unit": "ms"},
                     "notify_p50_ms": {"value": 29.907, "unit": "ms"}}
    runs = [{**run(side, k, stdout(10.0, 100.0)),
             "named": {"write_p50_ms": {"value": value + k, "unit": "ms"}}}
            for side, value in (("parent", 1.0), ("change", 2.0)) for k in range(1, 4)]
    figure = bench_pairs.summarise(runs, SPEC)["plan"]["named"]["write_p50_ms"]
    assert figure == {"unit": "ms", "parent": {"n": 3, "median": 3.0, "q1": 2.5, "q3": 3.5},
                      "change": {"n": 3, "median": 4.0, "q1": 3.5, "q3": 4.5}}
