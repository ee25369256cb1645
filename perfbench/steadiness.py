#!/usr/bin/env python3
"""Steadiness self-check for the wall-clock benchmark.

    python3 perfbench/steadiness.py [--workloads fig4-wide,...] [--runs 10]
                                    [--sets 1|2] [--first-seed 1]
                                    [--save FILE] [--baseline FILE]

Runs each workload --runs times through perfbench/run.py, each run with
its own seed, and reports for every end-to-end metric of BENCHMARK.json
its median and its spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
A spread above the metric's bound fails the check; a spread above a third
of the bound is flagged as not yet steady. Every run of a workload must
also report its tail at the same percentile of the same query count.

With --sets 2, two sets of runs of the same code are made with their runs
interleaved (run i of set 1, then run i of set 2, workload by workload),
so a change in host speed during the check lands on both sets alike; a
median of set 2 worse than set 1's by more than the bound fails the check.
With --baseline, each median of the last set is also compared with the
one saved earlier by --save. Exits non-zero on any failure, including a
run that fails or reports wrong answers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """Returns ({metric: value}, tail note), or None when the run failed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        return None
    # "query_wall_tail_s  <value> s  p97.9 of 480 queries"
    tail = next((l.split(None, 3)[3] for l in lines
                 if l.startswith("query_wall_tail_s ")), "")
    return {name: m["value"] for name, m in result["metrics"].items()}, tail


def worse_by(metric, med, base):
    if metric["better"] == "lower":
        return (med - base) / base
    return (base - med) / base


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write the last set's values as JSON")
    ap.add_argument("--baseline", help="compare medians with a --save file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    ok = True
    # values[set][workload][metric] -> list of values
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    tails = {w: set() for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            for s in range(args.sets):
                got = run_once(workload, seed, spec["run_seconds"])
                if got is None:
                    print("%s seed %d set %d: run failed" % (workload, seed, s + 1))
                    ok = False
                    continue
                for m in metrics:
                    values[s][workload][m["name"]].append(got[0][m["name"]])
                tails[workload].add(got[1])
            sys.stdout.flush()

    for workload in workloads:
        if len(tails[workload]) > 1:
            print("%s: FAIL tail reported at different percentiles: %s" %
                  (workload, sorted(tails[workload])))
            ok = False
        print("%s (%d runs per set; tail %s)" %
              (workload, args.runs, ", ".join(sorted(tails[workload]))))
        header = "  %-20s" % "metric"
        for s in range(args.sets):
            header += " %12s %8s" % ("median%d" % (s + 1), "spread%d" % (s + 1))
        print(header + " %7s %8s %8s  %s" % ("bound", "set2-1", "vs.base", "verdict"))
        for m in metrics:
            line = "  %-20s" % m["name"]
            verdicts = []
            medians = []
            for s in range(args.sets):
                v = values[s][workload][m["name"]]
                if len(v) < 4:
                    ok = False
                    verdicts.append("too few runs")
                    line += " %12s %8s" % ("-", "-")
                    medians.append(None)
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                line += " %12.6g %8.4f" % (med, spread)
                if spread > m["bound"]:
                    verdicts.append("FAIL spread (set %d)" % (s + 1))
                    ok = False
                elif spread > m["bound"] / 3:
                    verdicts.append("not steady (set %d > bound/3)" % (s + 1))
            line += " %7.3f" % m["bound"]
            drift = ""
            if args.sets == 2 and None not in medians:
                worse = worse_by(m, medians[1], medians[0])
                drift = "%+.3f" % worse
                if worse > m["bound"]:
                    verdicts.append("FAIL set 2 worse than set 1")
                    ok = False
            line += " %8s" % drift
            vs_base = ""
            base = baseline.get(workload, {}).get(m["name"])
            if base and medians[-1] is not None:
                worse = worse_by(m, medians[-1], statistics.median(base))
                vs_base = "%+.3f" % worse
                if worse > m["bound"]:
                    verdicts.append("FAIL worse than baseline")
                    ok = False
            line += " %8s" % vs_base
            print(line + "  " + ("; ".join(verdicts) or "ok"))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values[-1], f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
