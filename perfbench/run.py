#!/usr/bin/env python3
"""Builds and runs the vastats end-to-end benchmark (perfbench).

Run from the repository root:

    python3 perfbench/run.py --workload extract_d2 --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one table

The first call configures and compiles the library from src/ plus the
benchmark program into .bench_build/perfbench (Release); later calls only
re-check the build. Build output goes to stderr. The program's stdout is
passed through: a report line (host, thread counts, sample counts, checks,
layer shares) and, last, one JSON line with the keys correct, attempted,
failed and metrics. With --trace 1 the metrics are the per-layer ones and
the span log is written to .bench_build/spans/. The exit code is nonzero
when the build fails, any op fails, or any correctness check fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ["extract_d2", "extract_wide", "serve_zipf", "chaos_transport"]
DEFAULT_SEED = 20150323
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"


def build():
    if not (ROOT / "src" / "core" / "extractor.h").is_file():
        print("perfbench: no library sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def run_one(args, workload, echo):
    """Runs one workload; returns (exit code, parsed result or None)."""
    command = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plant_density_delay:
        command += ["--plant-density-delay", str(args.plant_density_delay)]
    if args.trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out",
                    str(spans / ("%s-seed%d.json" % (workload, args.seed)))]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: %s printed no result line" % workload,
              file=sys.stderr)
        return (proc.returncode or 1), None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--plant-density-delay", type=float, default=0.0,
                        help="attribution self-test: planted delay as a "
                             "fraction of the bagged-KDE time (traced runs)")
    args = parser.parse_args()
    if args.seconds == int(args.seconds):
        args.seconds = int(args.seconds)

    if not build():
        return 2
    if args.workload != "all":
        code, _ = run_one(args, args.workload, echo=True)
        return code

    worst = 0
    for workload in WORKLOADS:
        code, result = run_one(args, workload, echo=False)
        worst = worst or code
        if result is None:
            print("%-16s  FAILED (exit %d)" % (workload, code))
            continue
        status = "ok" if result["correct"] else "CHECK FAILED"
        print("%-16s  %s  attempted=%d failed=%d" %
              (workload, status, result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            print("    %-34s %14.6g %s" % (name, metric["value"],
                                           metric["unit"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
