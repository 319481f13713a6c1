#!/usr/bin/env python3
"""Sensitivity check: an injected slowdown must show, where it was put.

    python3 perfbench/test_sensitivity.py [--seed N] [--seconds S]

Run from the root of a checkout. It measures apps, then injects a
busy-wait into every wrapped Backend.alloc call, calibrated so the
injected time is about 20% of apps' untraced wall time, and checks:

  * on apps, wall_s and the injected layer's own per-layer metric
    (backend.alloc.ns_per_call) both rise by more than wall_s's bound
    in BENCHMARK.json;
  * on routing, with the same per-call delay, the injected layer stays
    below 5% of the traced run's span self time
    (trace.backend_alloc_share): the read-mostly workload barely
    allocates, so an allocator slowdown must not masquerade as a routing
    regression.

Exits 0 when all hold, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys

SLOWDOWN = 0.20
ROUTING_SHARE_MAX = 0.05


def bench(spec, workload, seed, seconds, trace, inject_ns=0.0):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if inject_ns > 0:
        cmd += ["--inject-alloc-ns", repr(inject_ns)]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode != 0 or not res["correct"]:
        sys.exit(f"benchmark failed: {' '.join(cmd)}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")

    base = bench(spec, "apps", args.seed, args.seconds, 0)
    base_t = bench(spec, "apps", args.seed, args.seconds, 1)
    delay_ns = SLOWDOWN * base["wall_s"] * 1e9 / base_t["slab.alloc.calls"]
    print(f"apps: wall_s {base['wall_s']:.4f} s over {base_t['slab.alloc.calls']:.0f} "
          f"allocations -> inject {delay_ns:.1f} ns per Backend.alloc")

    slow = bench(spec, "apps", args.seed, args.seconds, 0, delay_ns)
    slow_t = bench(spec, "apps", args.seed, args.seconds, 1, delay_ns)
    routing_t = bench(spec, "routing", args.seed, args.seconds, 1, delay_ns)

    checks = []

    def moved(name, before, after):
        rise = after / before - 1
        ok = rise > bound
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} apps {name}: {before:.6g} -> {after:.6g} "
              f"(+{100 * rise:.1f}%, bound {100 * bound:.0f}%)")

    moved("wall_s", base["wall_s"], slow["wall_s"])
    moved("backend.alloc.ns_per_call", base_t["backend.alloc.ns_per_call"],
          slow_t["backend.alloc.ns_per_call"])
    share = routing_t["trace.backend_alloc_share"]
    ok = share < ROUTING_SHARE_MAX
    checks.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} routing: injected layer is {100 * share:.2f}% "
          f"of span self time (limit {100 * ROUTING_SHARE_MAX:.0f}%)")
    sys.exit(0 if all(checks) else 1)


if __name__ == "__main__":
    main()
