"""citykit benchmark: one command, one workload, one seed.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 18 --trace 0

Runs from the root of a source checkout: citykit is imported from ``src/``.
Prints a human-readable report (every metric of the workload by name, with
unit and sample count, and the run record), then as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs an untraced half and a traced half, and reports the
per-layer metrics taken from the traced half (and the traced set-up) with
the tracing overhead. Exit status is 0 only when every output check passed
and the open-loop generator kept up.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

from stats import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The headline operation of each workload and its tail: the highest
# percentile with at least ten samples beyond it in a run at today's speed.
# Each is work the machine does from end to end; times that include the
# broker's 50 ms delivery poll (rt_fresh, reload, notify) are partly a
# sleep, which scaling to reference speed would distort, so they are
# printed as measured and not gated.
OP_FAMILY = {"plan": "plan", "live": "plan", "sensors": "write", "forecast": "slot"}
OP_TAIL = {"plan": 0.9, "live": 0.8, "sensors": 0.8, "forecast": 0.9}
AS_MEASURED = {"rt_fresh", "reload", "notify"}
OP_MEANING = {
    "plan": "/plan round trip, 2 closed-loop clients",
    "live": "the tick's probe /plan round trip, with the tick's delays applied",
    "sensors": "PATCH due time until the broker acknowledges it",
    "forecast": "one simulated 15-minute slot: ingest, inference pass, write-back "
                "(and the daily retrain in the last slot)",
}
NAMED = {
    "plan": [("plan_p50_ms", "plan", 0.5), ("plan_p95_ms", "plan", 0.95)],
    "live": [("rt_fresh_p50_ms", "rt_fresh", 0.5), ("rt_fresh_p90_ms", "rt_fresh", 0.9),
             ("reload_p50_ms", "reload", 0.5), ("plan_p50_ms", "plan", 0.5),
             ("plan_p95_ms", "plan", 0.95), ("write_p50_ms", "write", 0.5),
             ("write_p95_ms", "write", 0.95)],
    "sensors": [("write_p50_ms", "write", 0.5), ("write_p95_ms", "write", 0.95),
                ("notify_p50_ms", "notify", 0.5), ("notify_p95_ms", "notify", 0.95),
                ("query_p50_ms", "query", 0.5), ("query_p95_ms", "query", 0.95)],
    "forecast": [],
}
LATE_MARGIN = 0.5  # open loop is invalid when the median start is later than this share of the interval


def tail_ok(n: int, q: float) -> bool:
    """A tail is kept only with at least ten samples beyond it."""
    return q <= 0.5 or n * (1 - q) >= 10


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def src_lines() -> int:
    total = 0
    for base, _, files in os.walk(os.path.join(SRC, "citykit")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def ops_per_s(out, phase: str) -> float:
    """Completed operations per second of the program's time. An open loop
    completes what its schedule offers, so there it is requests served per
    second of summed request time per client thread, not per wall second."""
    if out.interval:
        return len(out.service[phase]) / (out.busy[phase] / out.clients)
    return out.done.get(phase, 0) / out.elapsed[phase]


def end_to_end(workload: str, out) -> tuple:
    """The gated metrics, from the untraced phase, at reference speed."""
    ops = out.samples.get("run", {}).get(OP_FAMILY[workload], [])
    if not ops or not out.setup:
        return None, []
    metrics = {
        "setup_s": (statistics.median(out.setup), "s", len(out.setup)),
        "op_p50_ms": (statistics.median(ops) * 1e3, "ms", len(ops)),
        "op_tail_ms": (percentile(ops, OP_TAIL[workload]) * 1e3, "ms", len(ops)),
        "ops_per_s": (ops_per_s(out, "run"), "1/s",
                      len(out.service["run"]) if out.interval else out.done.get("run", 0)),
    }
    tail = OP_TAIL[workload]
    raw = out.raw.get("run", {}).get(OP_FAMILY[workload], [])
    lines = [f"  op = {OP_MEANING[workload]}; tail = p{round(tail * 100)}",
             f"  (as measured, before scaling to reference speed: op p50 "
             f"{statistics.median(raw) * 1e3:.4f} ms, tail {percentile(raw, tail) * 1e3:.4f} ms)"]
    for name, (value, unit, n) in metrics.items():
        note = "" if name != "op_tail_ms" or tail_ok(n, tail) else " (fewer than 10 beyond)"
        lines.append(f"  {name:<22} {value:12.4f} {unit:<5} n={n}{note}")
    return metrics, lines


def named_metrics(workload: str, out, phase: str) -> list:
    """Every end-to-end figure the workload defines, under its own name."""
    lines = [f"  {'setup_s':<22} {statistics.median(out.setup):12.4f} s     "
             f"n={len(out.setup)} (median of set-ups)"]
    for name, family, q in NAMED[workload]:
        source = out.raw if family in AS_MEASURED else out.samples
        values = source.get(phase, {}).get(family, [])
        if not values:
            lines.append(f"  {name:<22} {'-':>12} ms    n=0")
        elif not tail_ok(len(values), q):
            lines.append(f"  {name:<22} {'omitted':>12} ms    n={len(values)} "
                         "(fewer than 10 samples beyond it)")
        else:
            note = " (as measured)" if family in AS_MEASURED else ""
            lines.append(f"  {name:<22} {percentile(values, q) * 1e3:12.4f} ms    "
                         f"n={len(values)}{note}")
    if workload == "plan":
        rate = out.done.get(phase, 0) / out.elapsed[phase]
        lines.append(f"  {'plans_per_s':<22} {rate:12.4f} 1/s   n={out.done.get(phase, 0)}")
    if workload == "forecast":
        for name, family in (("train_pass_s", "train"), ("forecast_day_s", "day")):
            values = out.samples.get(phase, {}).get(family, [])
            value = statistics.median(values) if values else float("nan")
            lines.append(f"  {name:<22} {value:12.4f} s     n={len(values)}")
    return lines


def lateness(out) -> tuple:
    """(valid, description) for open-loop workloads."""
    if not out.interval:
        return True, "closed loop or batch: no schedule to fall behind"
    late = out.lateness
    p50, p90, worst = (percentile(late, 0.5), percentile(late, 0.9), max(late))
    valid = p50 <= LATE_MARGIN * out.interval
    text = (f"start lateness p50 {p50 * 1e3:.2f} ms, p90 {p90 * 1e3:.2f} ms, "
            f"max {worst * 1e3:.2f} ms over {len(late)} due times; margin: median "
            f"<= {LATE_MARGIN * out.interval * 1e3:.1f} ms")
    return valid, text


def trace_metrics(workload: str, out) -> tuple:
    import tracing
    layer, bases = tracing.layer_metrics(out.dumps)
    family = OP_FAMILY[workload]
    untraced = out.samples.get("untraced", {}).get(family, [])
    traced = out.samples.get("traced", {}).get(family, [])
    if untraced and traced:
        ratio = statistics.median(traced) / statistics.median(untraced) - 1
        base = (f"median {family} traced {statistics.median(traced) * 1e3:.3f} ms "
                f"(n={len(traced)}) vs untraced {statistics.median(untraced) * 1e3:.3f} ms "
                f"(n={len(untraced)})")
    else:
        ratio, base = 0.0, "no samples in one of the phases"
    layer["tracing.overhead"] = (ratio, "ratio")
    bases["tracing.overhead"] = base
    lines = []
    for name, (value, unit) in layer.items():
        note = f"  [{bases[name]}]" if name in bases else ""
        lines.append(f"  {name:<38} {value:14.6f} {unit:<5}{note}")
    return layer, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan", "live", "sensors", "forecast"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs for a smoke run; figures are not comparable")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "citykit", "__init__.py")):
        print(f"no citykit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import speed
    cpu = speed.pin()  # before numpy starts its threads; the service host inherits it
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Context(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.tiny, workdir)
    out = workloads.Outcome()
    started = time.time()
    try:
        workloads.WORKLOADS[args.workload](ctx, out)
        out.finish_run()
    except Exception:
        traceback.print_exc()
        print(f"{args.workload}: the run did not complete", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    valid, late_text = lateness(out)
    phase = "traced" if args.trace else "run"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  wall {time.time() - started:.1f} s")
    print("end-to-end metrics" + (" (traced half; not for comparison)" if args.trace else ""))
    for line in named_metrics(args.workload, out, phase):
        print(line)
    if args.trace:
        metrics, lines = trace_metrics(args.workload, out)
        print("per-layer metrics (traced set-up and traced half)")
    else:
        gated, lines = end_to_end(args.workload, out)
        if gated is None:
            print("no operation completed", file=sys.stderr)
            return 1
        metrics = {k: (v, u) for k, (v, u, _) in gated.items()}
        print("gated metrics")
    for line in lines:
        print(line)
    kernel = [k for _, _, k in out.speed.probes]
    record = {"seed": args.seed, "workload": args.workload, "machine": machine(), "cpu": cpu,
              "speedProbes": len(kernel),
              "kernelMs": {"kind": out.speed.kind, "reference": out.speed.reference * 1e3,
                           "min": min(kernel) * 1e3, "median": statistics.median(kernel) * 1e3,
                           "max": max(kernel) * 1e3},
              "srcLines": src_lines(), "setupRuns": len(out.setup), **out.info,
              "samples": {p: {f: len(v) for f, v in fams.items()}
                          for p, fams in out.samples.items()},
              "measuredSeconds": {p: round(s, 3) for p, s in out.elapsed.items()}}
    print("run record " + json.dumps(record, sort_keys=True))
    print("generator: " + late_text + ("" if valid else "  -> INVALID: generator fell behind"))
    for problem in out.problems[:20]:
        print("check failed: " + problem)
    correct = out.failed == 0 and valid
    result = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if not valid:
        result["metrics"] = {}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
