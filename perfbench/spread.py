#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload W [--seeds 1,2,...] [--seconds S]

Runs the benchmark once per seed (untraced) from the root of a
checkout and prints, for every end-to-end metric, the median of the
runs and their spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. A
spread must stay within the metric's bound in BENCHMARK.json; the
benchmark is meant to keep it under a third of the bound. Exits 1 if
any run fails or any spread other than setup_s exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    ok = True
    for seed in [int(s) for s in args.seeds.split(",")]:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=400)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        res = json.loads(last) if last.startswith("{") else {}
        if p.returncode != 0 or not res.get("correct"):
            print(f"seed {seed}: FAILED (exit {p.returncode})\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
            ok = False
            continue
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: wall_s={res['metrics']['wall_s']['value']:.4f}", flush=True)
    print(f"\n{args.workload}: {len(next(iter(values.values()), []))} runs")
    print(f"{'metric':<30} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        vs = values.get(m["name"], [])
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"] else "OVER")
        if m["name"] != "setup_s" and spread > m["bound"]:
            ok = False
        print(f"{m['name']:<30} {med:>14.6g} {spread:>8.4f} {m['bound']:>6}  {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
