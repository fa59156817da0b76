#!/usr/bin/env python3
"""Build and run the pipeline benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload in turn

Run from the repository root. The first run configures and builds
perfbench/ (the src/ libraries plus the driver) into .bench_build/; later
runs rebuild incrementally. The driver's output is passed through; its
last stdout line is the result JSON. The exit status is the driver's:
0 when every correctness check passed, non-zero otherwise. With
--workload all, each workload runs in its own process, one after another,
and the exit status is non-zero if any of them failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
# Time a run may take beyond --seconds: set-up, the last whole round (a
# 45-batch op may run to its 60 s search budget) and the replays that
# check reproducibility.
RUN_GRACE_S = 150
WORKLOADS = ("synth-guided-45", "verify-fischer-7", "optimize-3",
             "execute-replan-6")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD, "--target", "pipeline_bench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def git_rev():
    """Short revision when the checkout is a git work tree, else 'unknown'."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_workload(workload, args, rev):
    """Run the driver once; returns (exit status, its stdout)."""
    trace_out = os.path.join(
        BUILD, "trace-%s-seed%d.jsonl" % (workload, args.seed))
    cmd = [os.path.join(BUILD, "pipeline_bench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--rev", rev, "--trace-out", trace_out]
    # Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
    # rises after the first large free, and whether an op's zones then
    # come from retained heap or fresh pages varied run to run (0.2-0.4 M
    # page faults per 45-batch op, 820-1030 ms median op). Pinned, every
    # op pages its memory in afresh, as a one-shot CLI run does.
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log("perfbench: driver exceeded %g s" % (args.seconds + RUN_GRACE_S))
            return 3, ""
    last = out.rstrip("\n").split("\n")[-1]
    if proc.returncode == 0 and not last.startswith("{"):
        log("perfbench: driver printed no result line")
        return 4, out
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; nothing to build")
        return 2
    if not build():
        return 2

    rev = git_rev()
    if args.workload != "all":
        status, out = run_workload(args.workload, args, rev)
        sys.stdout.write(out)
        return status

    # Every workload, then one summary line keyed "<workload>/<metric>".
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        status, out = run_workload(workload, args, rev)
        sys.stdout.write(out)
        sys.stdout.flush()
        worst = worst or status
        try:
            result = json.loads(out.rstrip("\n").split("\n")[-1])
        except ValueError:
            summary["correct"] = False
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][workload + "/" + name] = metric
    print(json.dumps(summary))
    return worst or (0 if summary["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
