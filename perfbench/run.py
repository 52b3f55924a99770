#!/usr/bin/env python3
"""Builds and runs the end-to-end controller benchmark.

    python3 perfbench/run.py --workload steady|failover|campaign \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root. The first call configures and builds the
library sources under src/ together with perfbench/ldr_bench.cc into
.bench_build/perfbench (RelWithDebInfo, the repository's default build type);
later calls rebuild only what changed. The last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}; with --trace 1 the spans
are written to .bench_build/traces/<workload>-seed<N>.json (Chrome
trace-event JSON, opens in Perfetto). Exit status is non-zero when the build
fails, an environment override is set, or any checked output is wrong.

--self-check runs every workload of BENCHMARK.json briefly, traced and
untraced, and fails if a metric named there is missing, non-finite or has the
wrong unit, or if a span lies outside its parent or has no request id.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("steady", "failover", "campaign")
RUN_TIMEOUT_S = 170
# Span containment tolerance: the trace stores times rounded to 1 ns.
SPAN_TOLERANCE_US = 0.002


def nproc():
    return len(os.sched_getaffinity(0))


def configured():
    """True when BUILD_DIR holds a CMake cache made for this source tree."""
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            return "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE in f.read()
    except OSError:
        return False


def build():
    """Configures once, builds incrementally; returns the binary's path."""
    jobs = str(min(4, nproc()))
    steps = []
    if not configured():
        # A cache copied from another tree would build that tree's sources.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "ldr_bench")


def revision():
    """The git revision, or a digest of src/ when the tree is not a repo."""
    # Only the tree's own repository: a checkout nested in another one must
    # not report the outer repository's commit.
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=False)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def trace_path(workload, seed):
    return os.path.join(TRACE_DIR, "%s-seed%d.json" % (workload, seed))


def run(binary, workload, seed, seconds, trace, rev):
    """Runs one measurement; returns (exit code, captured stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--revision", rev]
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", trace_path(workload, seed)]
    env = dict(os.environ)
    # The controller loop is serial; LDR_THREADS only sizes the shared pool.
    # Pin it to the machine (at most 4) so every run records the same value.
    env["LDR_THREADS"] = str(min(4, nproc()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def check_result(line, declared, errors, label):
    """Checks one result line against the metrics BENCHMARK.json declares."""
    try:
        result = json.loads(line)
    except ValueError:
        errors.append("%s: last line is not JSON" % label)
        return
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append("%s: correct=%s failed=%s" %
                      (label, result["correct"], result["failed"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        errors.append("%s: attempted=%r" % (label, result["attempted"]))
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("%s: metric %s missing" % (label, m["name"]))
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: metric %s value %r" %
                          (label, m["name"], value))
        if not got.get("unit") or got.get("unit") != m["unit"]:
            errors.append("%s: metric %s unit %r, declared %r" %
                          (label, m["name"], got.get("unit"), m["unit"]))
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        errors.append("%s: undeclared metrics %s" % (label, sorted(extra)))


def check_trace(path, errors, label):
    """Every span lies inside its parent and carries a request id."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError):
        errors.append("%s: cannot read trace %s" % (label, path))
        return
    if not events:
        errors.append("%s: trace has no spans" % label)
    by_id = {e["args"]["id"]: e for e in events}
    bad_parent = bad_request = 0
    for e in events:
        if not e["args"].get("request"):
            bad_request += 1
        parent = e["args"]["parent"]
        if parent < 0:
            continue
        p = by_id.get(parent)
        if (p is None or p["args"]["request"] != e["args"]["request"] or
                e["ts"] < p["ts"] - SPAN_TOLERANCE_US or
                e["ts"] + e["dur"] >
                p["ts"] + p["dur"] + 2 * SPAN_TOLERANCE_US):
            bad_parent += 1
    if bad_parent:
        errors.append("%s: %d spans outside their parent" %
                      (label, bad_parent))
    if bad_request:
        errors.append("%s: %d spans without a request id" %
                      (label, bad_request))


def self_check(binary, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rev = revision()
    errors = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            label = "%s --trace %d" % (name, trace)
            code, out = run(binary, name, 1, seconds, trace, rev)
            lines = out.strip().splitlines()
            if code != 0:
                errors.append("%s: exit code %d" % (label, code))
            if lines:
                check_result(lines[-1], declared, errors, label)
            if trace:
                check_trace(trace_path(name, 1), errors, label)
            print("self-check: %s done" % label, file=sys.stderr)
    for e in errors:
        print("self-check FAILED: " + e)
    if not errors:
        print("self-check OK: %d workloads, %d end-to-end and %d per-layer "
              "metrics, traces well-formed" %
              (len(bench["workloads"]), len(bench["end_to_end"]),
               len(bench["per_layer"])))
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required (or --self-check)")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1
    if args.self_check:
        return self_check(binary, args.seconds or 2)
    code, out = run(binary, args.workload, args.seed, args.seconds or 40,
                    args.trace, revision())
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
