#!/usr/bin/env python3
"""Runs one workload of the Silica benchmark and prints its metrics.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 10 --trace 0

Builds perfbench_runner (the library from src/ plus perfbench/cpp/) on
first use, under $CARGO_TARGET_DIR (default .bench_build) of the checkout,
runs the workload, prints every metric by name with its unit and every gate,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when every
correctness, determinism, mechanism and sample-size gate passed.
--workload all runs fleet, geo, durability and archive in turn.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet", "geo", "durability", "archive"]
RUNNER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build_runner():
    """Configures and builds the runner once; later runs are no-op builds."""
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", out,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", out, "--target",
                          "perfbench_runner", "-j", jobs])
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-30:]))
                    fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench_runner")


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull,
               GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(runner, workload, args):
    spans = os.path.join(build_dir(), "spans", "%s-seed%d.json" % (workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    command = [runner, "--workload=" + workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
               "--git-describe=" + git_describe(), "--spans=" + spans]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUNNER_TIMEOUT_S))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s produced no report (exit %d)" % (workload, done.returncode))
    return json.loads(lines[-1])


def fmt(value):
    return "%.6g" % value if isinstance(value, float) else str(value)


def print_report(report, spec, trace):
    host = report["host"]
    print("== %s  seed %d  %s ==" % (report["workload"], report["seed"],
                                     "traced" if trace else "untraced"))
    print("host: nproc %s, %s, %s, simd %s, threads %s, %s" % (
        host["nproc"], host["compiler"], host["cxx_flags"].strip(),
        host["simd"], host["threads"], host["git_describe"]))
    for gate in report["gates"]:
        print("gate %-11s %-34s %s  %s" % (gate["kind"], gate["name"],
                                          "ok  " if gate["ok"] else "FAIL",
                                          gate["detail"]))
    sections = [("end-to-end", report["end_to_end"])]
    if trace:
        sections.append(("per-layer", report["per_layer"]))
    if report["workload"] in {w["name"] for w in spec["workloads"]}:
        listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    else:
        print("(not a BENCHMARK.json workload: see perfbench/README.md)")
        listed = None
    for title, metrics in sections:
        print("-- %s --" % title)
        for name, m in metrics.items():
            extra = ", ".join("%s %s" % (k, fmt(v)) for k, v in m["detail"].items())
            print("%-40s %-16s %-12s %-4s%s%s" % (
                name, fmt(m["value"]), m["unit"], m["domain"],
                "" if listed is None or name in listed else "  (not in BENCHMARK.json)",
                "  [" + extra + "]" if extra else ""))
    print("attempted %d, failed %d, failed_fraction %s" % (
        report["attempted"], report["failed"],
        fmt(report["failed"] / max(1, report["attempted"]))))


def result_line(report, spec, trace):
    """The result: BENCHMARK.json's metrics for this mode, or for a workload
    BENCHMARK.json does not list, every metric the runner reported."""
    section = "per_layer" if trace else "end_to_end"
    measured = report[section]
    if report["workload"] in {w["name"] for w in spec["workloads"]}:
        metrics = {}
        for entry in spec[section]:
            m = measured.get(entry["name"])
            if m is None or m["unit"] != entry["unit"]:
                fail("%s: metric %s missing or not in %s" % (
                    report["workload"], entry["name"], entry["unit"]), 3)
            metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in measured.items()}
    return {"correct": bool(report["correct"]), "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    runner = build_runner()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        report = run_workload(runner, workload, args)
        print_report(report, spec, args.trace)
        results.append(result_line(report, spec, args.trace))
        if len(workloads) > 1:
            print(json.dumps(results[-1]))
    if len(results) == 1:
        final = results[0]
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {"%s.%s" % (w, k): v for w, r in zip(workloads, results)
                             for k, v in r["metrics"].items()}}
    sys.stdout.flush()
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
