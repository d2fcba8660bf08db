#!/usr/bin/env python3
"""The repository benchmark entry point.

    python3 cfbench/run.py --workload cold_serving --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the causalformer library, the shipped
``serve_cli`` server and the ``cfbench`` harness from source into
``.bench_build/`` (the first run compiles; later runs only re-check), then runs
one workload against ``serve_cli serve --port 0`` as a child process. The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Per-run records in the
``{bench, host, git_sha, metrics: [{name, unit, median, p10, p90, n}]}``
schema land in ``.bench_build/records/``.

    python3 cfbench/run.py --all --seed 1 --seconds 24 --trace 0
                                      # every workload of BENCHMARK.json in turn;
                                      # the last line merges their results
    python3 cfbench/run.py --test     # build and run the benchmark's own tests

Exits non-zero, printing no result, when the repository sources are missing.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("cfbench: repository sources not found next to cfbench/; "
            "run from a full checkout")
        return False
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent runs in one checkout build once; the rest wait here.
    with open(os.path.join(BUILD, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                return False
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_all(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             *argv], stdout=subprocess.PIPE, text=True)
        lines = out.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        status = status or out.returncode
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return status or 1
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    print(json.dumps(merged))
    return status


def main(argv):
    if argv[:1] == ["--all"]:
        return run_all(argv[1:])
    if argv[:1] == ["--test"]:
        if not build(["cfbench_test", "serve_cli"]):
            return 2
        return subprocess.run(["ctest", "--output-on-failure"],
                              cwd=BUILD).returncode
    if not build(["cfbench", "serve_cli"]):
        return 2
    cmd = [os.path.join(BUILD, "cfbench"), *argv,
           "--serve-cli", os.path.join(BUILD, "causalformer", "serve_cli"),
           "--workdir", os.path.join(BUILD, "work"),
           "--records", os.path.join(BUILD, "records"),
           "--git-sha", git_sha()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("cfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
