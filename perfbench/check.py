#!/usr/bin/env python3
"""Steadiness and attribution checks for perfbench.

Run from the repository root:

  python3 perfbench/check.py spread --workload extract_d2 --seeds 10
      Runs the workload once per seed and prints, for every end-to-end
      metric, the median and the quartile spread (Q3 - Q1) / median next to
      the metric's bound from BENCHMARK.json. A spread above a third of the
      bound is flagged.

  python3 perfbench/check.py attribution --seeds 5
      The planted-slowdown self-test: one traced extract_d2 run per seed in
      which every other op carries a busy-wait of 0.3x the bagged-KDE time,
      planted inside EstimateBaggedKde through the extractor's plan_provider
      hook. Passes when density.kde_ms_per_op of the planted ops is 20-40%
      above that of the plain ops, and every other layer's time differs
      between planted and plain ops by less than its own seed-to-seed spread.

Both exit nonzero when a run fails or a check does not hold.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (metrics, report detail)."""
    command = RUN + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    command += list(extra)
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(command),
                                                       proc.returncode))
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["report"]["detail"]
    return {name: m["value"] for name, m in result["metrics"].items()}, detail


def spread(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def cmd_spread(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    rows = []
    for i in range(args.seeds):
        rows.append(run(args.workload, args.first_seed + i, seconds, 0)[0])
        print("seed %d: %s" % (args.first_seed + i, json.dumps(rows[-1])),
              file=sys.stderr)
    ok = True
    print("%-18s %14s %9s %7s" % ("metric", "median", "spread", "bound"))
    for name, bound in bounds.items():
        median, rel = spread([row[name] for row in rows])
        flag = ""
        if rel > bound / 3:
            flag = "  <-- above bound/3"
            ok = False
        print("%-18s %14.6g %8.2f%% %6.0f%%%s" %
              (name, median, 100 * rel, 100 * bound, flag))
    return 0 if ok else 1


def cmd_attribution(args):
    runs = [run("extract_d2", args.first_seed + i, args.seconds, 1,
                       ["--plant-density-delay", str(args.fraction)])
            for i in range(args.seeds)]
    ok = True
    print("%-34s %10s %8s %8s" % ("layer", "plain ms", "change", "spread"))
    for name in runs[0][1]["planted_vs_plain"]:
        base, rel = spread([metrics[name] for metrics, _ in runs])
        change = statistics.median(
            [detail["planted_vs_plain"][name] for _, detail in runs]) - 1.0
        if name == "density.kde_ms_per_op":
            verdict = "planted" if 0.2 <= change <= 0.4 else "WRONG SIZE"
            ok = ok and verdict == "planted"
        else:
            verdict = "" if abs(change) <= rel else "MOVED"
            ok = ok and verdict == ""
        print("%-34s %10.4f %+7.1f%% %7.1f%%  %s" %
              (name, base, 100 * change, 100 * rel, verdict))
    print("attribution self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=0,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p = sub.add_parser("attribution")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--fraction", type=float, default=0.3)
    args = parser.parse_args()
    return cmd_spread(args) if args.command == "spread" else cmd_attribution(args)


if __name__ == "__main__":
    sys.exit(main())
