#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 cfbench/steadiness.py [--workloads cold_serving,hot_repeat]
                                  [--seeds 1-10] [--out FILE] [--label TEXT]

Run from the repository root. Runs cfbench/run.py once per (workload, seed)
with ``--trace 0`` and the ``run_seconds`` of BENCHMARK.json, then prints,
for every end-to-end metric, the median of the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median. A spread is steady when it is below a third
of the metric's bound in BENCHMARK.json (setup_s is reported but exempt).
A metric the runs record but do not gate (latency_p99_ms) is listed with its
spread and no bound, read from the per-run records.
With ``--out`` the summary is written as JSON, e.g. one point of the
trajectory under cfbench/history/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    record_path = os.path.join(ROOT, ".bench_build", "records",
                               "%s-seed%d-trace0.json" % (workload, seed))
    with open(record_path) as f:
        recorded = {m["name"]: m["median"] for m in json.load(f)["metrics"]}
    return result, recorded


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            result, recorded = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            values.setdefault("latency_p99_ms", []).append(
                recorded["latency_p99_ms"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            ok = name == "setup_s" or bound is None or spread < bound / 3
            steady = steady and ok
            rows[name] = {"median": statistics.median(vals), "q1": q1,
                          "q3": q3, "spread": spread, "bound": bound,
                          "n": len(vals), "values": vals}
            print("  %-16s median %12.4f  spread %6.3f  bound %s  %s" %
                  (name, statistics.median(vals), spread, bound,
                   ("ok" if bound is not None else "not gated") if ok
                   else "NOT STEADY"), flush=True)
        summary["workloads"][workload] = {"runs": runs, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
