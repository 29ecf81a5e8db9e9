#!/usr/bin/env python3
"""Three-path benchmark of Sync-Switch: sim grid, live-switch threads, socket PS.

Run from the repository root:

  python3 perfbench/run.py --workload sim_grid|threaded_switch|wire_asp|all \
      --seed N --seconds S --trace 0|1

The first run builds the library and the benchmark binary from source into
.bench_build/perfbench (Release).  Each workload then runs in its own
process for about S seconds, checks its outputs, and prints its metrics by
name with their units.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  A traced run also
writes a Chrome trace to .bench_build/perfbench/trace-<workload>.json and
validates it with tools/check_trace.py.

`--workload all` runs the three workloads one after another and prints the
end-to-end numbers of every path under their per-path names.

Exit status: 0 when every check passed, 1 when an output check failed, 2 when
the benchmark could not build or run.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sim_grid", "threaded_switch", "wire_asp")
RUN_TIMEOUT_S = 170

# Span names each traced run must leave in its trace: benchmark-side spans
# and, where the path has them, the system's own obs spans ("step").
TRACE_EXPECT = {
    "sim_grid": ["sim_grid untraced", "sim_grid traced", "layer nn.gradient"],
    "threaded_switch": ["threaded_train untraced", "threaded_train traced", "step"],
    "wire_asp": ["serve untraced", "serve mirror", "serve traced", "mirror pull", "step"],
}

# The end-to-end numbers of each path under their per-path names, as
# `--workload all` summarises them.
PATH_SUMMARY = {
    "sim_grid": ["sim_steps_per_s", "sim_switch_speedup", "sim_switch_acc", "setup_s",
                 "peak_rss_mb"],
    "threaded_switch": ["threaded_samples_per_s", "threaded_step_p50_us", "setup_s",
                        "peak_rss_mb"],
    "wire_asp": ["wire_samples_per_s", "setup_s", "peak_rss_mb"],
}

METRIC_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+(\S+)$")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no source tree to build (CMakeLists.txt and src/ are missing)")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake is not on PATH")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append([cmake, "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed; see {log_path}")
    return BUILD / "perfbench"


def check_trace(workload, path):
    cmd = [sys.executable, str(ROOT / "tools" / "check_trace.py"), str(path)]
    for name in TRACE_EXPECT[workload]:
        cmd += ["--expect", name]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print("  " + (proc.stdout + proc.stderr).strip())
    return proc.returncode == 0


def run_workload(binary, workload, args):
    """Run one workload; returns (exit code, result dict, printed metrics)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(BUILD / "run")]
    trace_path = BUILD / f"trace-{workload}.json"
    if args.trace:
        trace_path.unlink(missing_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} exited {proc.returncode} without a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed a malformed result line")
    printed = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    if args.trace:
        ok = trace_path.is_file() and check_trace(workload, trace_path)
        print(f"  trace {trace_path.relative_to(ROOT)} "
              f"{'passed' if ok else 'FAILED'} tools/check_trace.py; "
              f"obs.overhead_ratio {result['metrics']['obs.overhead_ratio']['value']:.4f}")
        result["correct"] = result["correct"] and ok
    return proc.returncode, result, printed


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    worst = 0
    for workload in workloads:
        code, result, printed = run_workload(binary, workload, args)
        if code not in (0, 1):
            fail(f"{workload} exited {code}")
        worst = max(worst, code, 0 if result["correct"] else 1)
        results[workload] = (result, printed)

    if args.workload == "all":
        if not args.trace:
            print("end-to-end, per path:")
            for workload, (_, printed) in results.items():
                for name in PATH_SUMMARY[workload]:
                    value, unit = printed[name]
                    print(f"  {workload:16s} {name:24s} {value:16.6f} {unit}")
        combined = {
            "correct": all(r["correct"] for r, _ in results.values()),
            "attempted": sum(r["attempted"] for r, _ in results.values()),
            "failed": sum(r["failed"] for r, _ in results.values()),
            "metrics": {f"{w}.{k}": v for w, (r, _) in results.items()
                        for k, v in r["metrics"].items()},
        }
        print(json.dumps(combined))
    else:
        print(json.dumps(results[args.workload][0]))
    sys.exit(worst)


if __name__ == "__main__":
    main()
