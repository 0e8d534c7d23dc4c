"""Alternating parent/change runs of the benchmark, summarised into a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 --seconds 18 \\
        --out BENCH_<tag>.json

Each side is a source checkout. For every workload that the change's
``BENCHMARK.json`` declares, pair k runs ``perfbench/run.py --seed k
--trace 0`` in both checkouts as subprocesses, one after the other; odd pairs
run the parent first, even pairs the change. Nothing from ``perfbench/`` is
imported. Each run keeps its exit code, its last stdout line (the result
JSON), its ``run record`` line and the named figures it prints under
"end-to-end metrics" (``write_p50_ms``, ``plan_p50_ms``, ...). A run that
fails or is incorrect is counted, never dropped. The summary gives, per
workload and end-to-end metric, each side's median and quartiles, how many
pairs the change won, whether the change's median is worse than the
parent's by more than the metric's ``bound``, and whether the parent's own
spread (its quartile distance over its median) is too wide for that bound
to be told; beside them, for information only, each side's median and
quartiles of every named figure. The output file is rewritten after every
pair, so an interrupted run keeps what it measured. At the end, every metric
worse beyond its bound and every unresolved one is named on stderr; the exit
status is 1 when any is worse beyond its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RECORD_PREFIX = "run record "
SIDES = ("parent", "change")


def parse_output(stdout: str) -> tuple:
    """(result, record) from a run's stdout; either is None when missing or not JSON."""
    lines = stdout.strip().splitlines()
    result = record = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    for line in lines:
        if line.startswith(RECORD_PREFIX):
            try:
                record = json.loads(line[len(RECORD_PREFIX):])
            except ValueError:
                pass
    return (result if isinstance(result, dict) else None), record


def parse_named(stdout: str) -> dict:
    """``{name: {"value", "unit"}}`` of the figures a run prints under
    "end-to-end metrics"; one shown as ``-`` or ``omitted`` is left out."""
    named, inside = {}, False
    for line in stdout.splitlines():
        if not line.startswith(" "):
            inside = line.startswith("end-to-end metrics")
            continue
        words = line.split()
        if inside and len(words) >= 4 and words[3].startswith("n="):
            try:
                value = float(words[1])
            except ValueError:  # "-" or "omitted"
                continue
            if value == value:  # not NaN
                named[words[0]] = {"value": value, "unit": words[2]}
    return named


def run_once(checkout: str, command: list, workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                              timeout=4 * seconds + 600)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stdout, stderr = None, exc.stdout or "", "timed out"
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
    result, record = parse_output(stdout)
    lines = stdout.strip().splitlines()
    return {"exit": code, "wallSeconds": round(time.monotonic() - started, 2),
            "lastLine": lines[-1] if lines else "", "result": result, "record": record,
            "named": parse_named(stdout),
            "stderrTail": stderr.strip().splitlines()[-5:] if code != 0 else []}


def quartiles(values: list) -> dict:
    if not values:
        return {"n": 0, "median": None, "q1": None, "q3": None}
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def _metric(run: dict, name: str):
    metric = ((run.get("result") or {}).get("metrics") or {}).get(name)
    return metric["value"] if isinstance(metric, dict) else None


def _worse(change: float, parent: float, better: str, bound: float) -> bool:
    if better == "lower":
        return change > parent * (1 + bound)
    return change < parent * (1 - bound)


def summarise(runs: list, spec: dict) -> dict:
    """Per workload: each side's run outcomes, per end-to-end metric each
    side's median and quartiles, the pairs the change won and the bound flag,
    and per named figure each side's median and quartiles."""
    summary = {}
    for workload in sorted({run["workload"] for run in runs}):
        mine = [run for run in runs if run["workload"] == workload]
        outcomes = {}
        for side in SIDES:
            side_runs = [run for run in mine if run["side"] == side]
            results = [run["result"] or {} for run in side_runs]
            outcomes[side] = {
                "runs": len(side_runs),
                "failedRuns": sum(1 for run, result in zip(side_runs, results)
                                  if run["exit"] != 0 or result.get("correct") is not True),
                "attempted": sum(result.get("attempted", 0) for result in results),
                "failed": sum(result.get("failed", 0) for result in results),
            }
        metrics = {}
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            by_pair = {side: {run["pair"]: _metric(run, name) for run in mine
                              if run["side"] == side} for side in SIDES}
            values = {side: [v for v in by_pair[side].values() if v is not None]
                      for side in SIDES}
            stats = {side: quartiles(values[side]) for side in SIDES}
            won = [(c < p) if better == "lower" else (c > p)
                   for pair, p in by_pair["parent"].items()
                   if p is not None and (c := by_pair["change"].get(pair)) is not None]
            parent, change = stats["parent"]["median"], stats["change"]["median"]
            # the parent's own spread; wider than the bound, a tie cannot be told
            spread = ((stats["parent"]["q3"] - stats["parent"]["q1"]) / parent
                      if parent else None)
            always_better = bool(values["parent"] and values["change"]) and (
                max(values["change"]) < min(values["parent"]) if better == "lower"
                else min(values["change"]) > max(values["parent"]))
            metrics[name] = {
                "unit": metric["unit"], "better": better, "bound": bound, **stats,
                "pairs": len(won), "changeBetterPairs": sum(won),
                "relativeChange": (change / parent - 1) if parent and change is not None
                else None,
                "parentSpread": spread,
                "unresolved": spread is not None and spread > bound and not always_better,
                "worseBeyondBound": (parent is not None and change is not None
                                     and _worse(change, parent, better, bound)),
            }
        named = {}  # name -> (unit, values by side)
        for run in mine:
            for name, figure in (run.get("named") or {}).items():
                unit, values = named.setdefault(name, (figure["unit"], {s: [] for s in SIDES}))
                values[run["side"]].append(figure["value"])
        summary[workload] = {"runs": outcomes, "metrics": metrics, "named": {
            name: {"unit": unit, **{side: quartiles(values[side]) for side in SIDES}}
            for name, (unit, values) in sorted(named.items())}}
    return summary


def _commit(checkout: str):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True, help="BENCH_<tag>.json to write")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    doc = {"command": spec["command"], "seconds": args.seconds, "pairs": args.pairs,
           "workloads": workloads,
           "checkouts": {side: {"commit": _commit(path)} for side, path in checkouts.items()},
           "runs": [], "summary": {}}
    for workload in workloads:
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(checkouts[side], spec["command"], workload, pair, args.seconds)
                doc["runs"].append({"workload": workload, "pair": pair, "seed": pair,
                                    "side": side, "position": position, **run})
                print(f"{workload} pair {pair} {side}: exit {run['exit']} "
                      f"{run['lastLine'][:160]}", file=sys.stderr, flush=True)
            doc["summary"] = summarise(doc["runs"], spec)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return report(doc["summary"])


def report(summary: dict) -> int:
    """Name on stderr each metric worse beyond its bound and each unresolved
    one; the exit status is 1 when any is worse beyond its bound."""
    worse = False
    for workload, stats in summary.items():
        for metric, figures in stats["metrics"].items():
            for flag, label in (("worseBeyondBound", "worse beyond bound"),
                                ("unresolved", "unresolved")):
                if figures[flag]:
                    print(f"{label}: {workload} {metric}", file=sys.stderr)
            worse = worse or figures["worseBeyondBound"]
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
