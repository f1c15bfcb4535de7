#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs `perfbench/run.py` once per seed on each workload, then prints, for
every end-to-end metric, the median of the runs and the interquartile
spread (Q3 - Q1 of statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--workloads uni_sweep,...]
        [--first-seed 1000] [--seconds N] [--json OUT]

Run it from the repository root.  With --json the raw values are saved so
two sets of runs can be compared with --compare A.json B.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def table(spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst, where = 0.0, ""
    for workload, samples in runs.items():
        print(f"\n{workload}: {len(samples)} runs")
        for name in sorted(bounds):
            values = [s[name] for s in samples]
            s, med = spread(values)
            share = s / bounds[name]
            if share > worst:
                worst, where = share, f"{workload}/{name}"
            print(f"  {name:22s} median {med:14.6g}  spread {s:7.4f}  "
                  f"bound {bounds[name]:5.3f}  spread/bound {share:5.2f}")
    print(f"\nworst spread/bound: {worst:.2f} ({where})")


def compare(spec, a, b):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    ok = True
    for workload in a:
        for name, (bound, better) in sorted(bounds.items()):
            ma = statistics.median(s[name] for s in a[workload])
            mb = statistics.median(s[name] for s in b[workload])
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            flag = "ok" if worse <= bound else "WORSE"
            ok = ok and worse <= bound
            print(f"{workload:9s} {name:22s} {ma:14.6g} -> {mb:14.6g}  "
                  f"worse by {worse:+.4f} (bound {bound})  {flag}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--json", default="")
    ap.add_argument("--compare", nargs=2, default=None)
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        sys.exit(0 if compare(spec, a, b) else 1)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = [run_once(w, args.first_seed + i, seconds)
                   for i in range(args.runs)]
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    table(spec, runs)


if __name__ == "__main__":
    main()
