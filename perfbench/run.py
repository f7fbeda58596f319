#!/usr/bin/env python3
"""End-to-end benchmark of the WRHT optical all-reduce simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/ (which
compiles ../src) in Release mode into $CARGO_TARGET_DIR, default
.bench_build. Each workload iteration runs in its own wrht_e2e process;
iterations repeat until --seconds would be exceeded (at least two per run).

--trace 0 reports the end-to-end metrics as medians over iterations:
setup_s, wall_s, cpu_s (of the measured operation) and peak_rss_mb (of
the whole process). --trace 1 alternates untraced and traced iterations
and reports the per-layer metrics of the traced ones, the per-module self
times, and the tracing overhead (traced minus untraced wall_s).

Every iteration checks its simulated outputs; a mismatch is a failed
operation. The last stdout line is the JSON result; the line before it
is the full record with provenance and per-iteration samples.
See perfbench/README.md for the workloads, seeds and metric definitions.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "svc_saturated", "explain")
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def load_per_layer():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(REPO, path)


def build(out_dir, jobs):
    """Configures once, then lets cmake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        die("no src/ next to perfbench/: run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", str(jobs)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, "wrht_e2e")


def git_sha():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def threads_for(workload, nproc):
    """Explicit worker counts whose product never exceeds nproc."""
    if workload == "paper_sweep":
        sweep = min(4, nproc)
        return sweep, max(1, nproc // sweep)
    if workload == "explain":
        return 1, min(4, nproc)
    return 1, 1


def run_child(cmd, env, deadline):
    """Runs one iteration to completion and returns its JSON record."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("iteration timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        die("iteration exited with %d: %s" % (proc.returncode, " ".join(cmd)))
    lines = [line for line in out.splitlines() if line.startswith("{")]
    if not lines:
        die("iteration printed no record: " + " ".join(cmd))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    per_layer = load_per_layer()
    nproc = len(os.sched_getaffinity(0))
    binary = build(build_dir(), min(4, nproc))
    provenance = json.loads(subprocess.run(
        [binary, "--provenance"], capture_output=True, text=True,
        check=True).stdout)
    provenance.update(nproc=nproc, git_sha=git_sha())

    sweep_threads, rwa_threads = threads_for(args.workload, nproc)
    base_cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
                "--ref-dir", os.path.join(HERE, "ref"),
                "--sweep-threads", str(sweep_threads),
                "--rwa-threads", str(rwa_threads)]
    # Concurrency is pinned on the command line; no WRHT_* knob leaks in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("WRHT_")}
    trace_path = os.path.join(build_dir(), "traces", "%s-seed%d.trace.json"
                              % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)

    start = time.time()
    untraced, traced = [], []
    while True:
        tracing = args.trace == 1 and len(traced) < len(untraced)
        cmd = base_cmd + (["--trace-out", trace_path] if tracing else [])
        record = run_child(cmd, env, time.time() + CHILD_TIMEOUT_S)
        (traced if tracing else untraced).append(record)
        done = untraced + traced
        elapsed = time.time() - start
        per_iteration = elapsed / len(done)
        if (len(done) >= MIN_ITERATIONS and (args.trace == 0 or traced)
                and elapsed + per_iteration > args.seconds):
            break

    done = untraced + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    correct = failed == 0
    metrics = {}
    if args.trace == 0:
        for name in END_TO_END:
            metrics[name] = statistics.median(r[name] for r in untraced)
    else:
        values = {name: [] for name in per_layer}
        for r in traced:
            error = r["identity_error_s"]
            if error > 1e-9 * max(1.0, r["traced_wall_s"]):
                correct = False
                print("run.py: self-time identity off by %g s" % error,
                      file=sys.stderr)
            sample = {"self_s." + m: v for m, v in r["self_s"].items()}
            sample.update(r["layers"])
            sample["unattributed_s"] = r["unattributed_s"]
            sample["traced_wall_s"] = r["traced_wall_s"]
            unknown = set(sample) - set(per_layer)
            if unknown:
                die("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
            for name in per_layer:
                values[name].append(sample.get(name, 0.0))
        for name in per_layer:
            metrics[name] = statistics.median(values[name])
        metrics["trace_overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) -
            statistics.median(r["wall_s"] for r in untraced))
    units = END_TO_END if args.trace == 0 else per_layer
    failed_frac = failed / attempted if attempted else 1.0

    for r in done:
        for failure in r["failures"]:
            print("FAILED %s: %s" % (args.workload, failure))
    for name, value in metrics.items():
        print("%-34s %16.6f %s" % (name, value, units[name]))
    print("%-34s %16.6f fraction" % ("ops_failed_frac", failed_frac))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance,
        "threads": {"sweep": sweep_threads, "rwa": rwa_threads},
        "ops_failed_frac": failed_frac,
        "iterations": done}))
    print(json.dumps({
        "correct": correct and attempted > 0, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


if __name__ == "__main__":
    main()
