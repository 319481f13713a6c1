#!/usr/bin/env python3
"""The repository's benchmark command.

    python3 perfbench/run.py --workload endurance|apps|routing \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/pbench.exe with
dune, then repeats the workload for about S seconds, one fresh process
per repetition (so one repetition's GC heap peak cannot leak into the
next), every repetition on the same seed-generated input.

--trace 0 prints every end-to-end metric of BENCHMARK.json: host
timings are medians over the repetitions, simulated outcomes are
deterministic for the seed. --trace 1 alternates untraced and traced
repetitions and prints every per-layer metric; the traced repetition
writes its spans to perfbench/out/ as NDJSON plus folded stacks.

Correctness checks (any failure prints "correct": false and exits 1):
no stack reports a safety violation or a failed workload check; the
deterministic counters are identical across repetitions and between the
traced and untraced runs; on endurance SLUB runs out of memory and the
three latent-cache stacks do not (the paper's Fig. 3 outcome).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Every result is also appended, stamped
with the machine it came from, to perfbench/out/results.ndjson.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "pbench.exe")
OUT_DIR = os.path.join("perfbench", "out")
KINDS = ["slub", "prudence", "ebr-debra", "hyaline"]
MIN_SLICES = 1000
MIN_REPS = 3
REP_TIMEOUT_S = 150
# Measurement stops once it would run past this, whatever --seconds says.
CAP_S = 140


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    for need in ("BENCHMARK.json", "dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/pbench.exe"]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build did not run: {e}", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        die("build failed", 1)


def command_output(cmd):
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return p.stdout.strip() if p.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def machine_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.exists(".git"):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernel": platform.release(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocamlopt", "-version"])
        or "unknown",
        "commit": commit or "unknown (not a git checkout)",
    }


def repetition(args, traced, index, stamp):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed)]
    if args.inject_alloc_ns > 0:
        cmd += ["--inject-alloc-ns", repr(args.inject_alloc_ns)]
    if traced:
        prefix = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{index}")
        cmd += ["--traced", "--spans-out", prefix, "--stamp", json.dumps(stamp)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"repetition timed out after {REP_TIMEOUT_S} s: {' '.join(cmd)}", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die(f"repetition failed (exit {p.returncode}): {' '.join(cmd)}", 1)
    return json.loads(p.stdout.strip().splitlines()[-1])


def check(workload, plain, traced):
    """Every failed correctness check, as readable lines."""
    problems = []
    runs = plain + traced
    for r in runs:
        problems += r["problems"]
    ref = plain[0]["stacks"]
    if sorted(ref) != sorted(KINDS):
        problems.append(f"stacks run: {sorted(ref)}, expected {sorted(KINDS)}")
    for i, r in enumerate(runs[1:], start=1):
        what = "traced run" if r["traced"] else f"repetition {i}"
        for kind, s in ref.items():
            other = r["stacks"].get(kind)
            if other is None or other["counters"] != s["counters"]:
                problems.append(
                    f"{kind}: deterministic counters of {what} differ from repetition 0: "
                    f"{other and other['counters']} vs {s['counters']}"
                )
    for r in runs:
        if min(r["slices"]) < MIN_SLICES:
            problems.append(f"a run has only {min(r['slices'])} slices (< {MIN_SLICES})")
    for kind, s in ref.items():
        failed = s["counters"]["alloc_failed"]
        expect_oom = workload == "endurance" and kind == "slub"
        if s["oom"] != expect_oom:
            problems.append(
                f"{kind}: out of memory = {s['oom']}, expected {expect_oom}"
                + (" (Fig. 3 outcome)" if workload == "endurance" else "")
            )
        if failed and not expect_oom:
            problems.append(f"{kind}: {failed} allocations failed")
    return problems


def med(values):
    return statistics.median(values)


def quantile(sorted_values, q):
    n = len(sorted_values)
    return sorted_values[max(0, min(n - 1, math.ceil(q * n) - 1))]


def best_slices(plain):
    """Per-slice minimum over the repetitions, in slice order.

    The simulation is deterministic, so slice i holds the same simulated
    work in every repetition; its fastest reading is the least disturbed
    by other tenants of the host. None if the slicing differs."""
    n = len(plain[0]["slice_ms"])
    if any(len(r["slice_ms"]) != n for r in plain):
        return None
    return [min(col) for col in zip(*(r["slice_ms"] for r in plain))]


def end_to_end(plain, best):
    ref = plain[0]
    attempts = ref["alloc_attempts"]
    ordered = sorted(best)
    wall_s = sum(best) / 1e3
    m = {
        "wall_s": wall_s,
        "events_per_s": ref["events"] / wall_s,
        "slice_ms_p50": quantile(ordered, 0.50),
        "slice_ms_p99": quantile(ordered, 0.99),
        "minor_words_per_event": med([r["minor_words"] / r["events"] for r in plain]),
        "peak_heap_mb": med([r["peak_heap_mb"] for r in plain]),
        "setup_s": min(r["setup_s"] for r in plain),
        "alloc_success_share": (attempts - ref["alloc_failed"]) / attempts,
    }
    for kind, s in ref["stacks"].items():
        m[f"sim_ops_per_s.{kind}"] = s["sim_ops_per_s"]
        m[f"sim_peak_used_mib.{kind}"] = s["sim_peak_used_mib"]
    return m


def per_layer(plain, traced):
    m = {}
    for name in traced[0]["layers"]:
        m[name] = med([r["layers"][name] for r in traced])
    m["trace.overhead_ratio"] = med([r["wall_s"] for r in traced]) / med(
        [r["wall_s"] for r in plain]
    )
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument(
        "--inject-alloc-ns",
        type=float,
        default=0.0,
        help="busy-wait this long inside every Backend.alloc (sensitivity check)",
    )
    args = ap.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        die(f"unknown workload {args.workload!r}; one of {workloads}")
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stamp = machine_stamp()
    print("machine: " + json.dumps(stamp))

    traced_mode = args.trace == 1
    min_reps = 1 if traced_mode else MIN_REPS
    plain, traced = [], []
    t0 = time.monotonic()
    while True:
        plain.append(repetition(args, False, len(plain), stamp))
        if traced_mode:
            traced.append(repetition(args, True, len(traced), stamp))
        elapsed = time.monotonic() - t0
        per_rep = elapsed / len(plain)
        if len(plain) >= min_reps and elapsed >= args.seconds:
            break
        if elapsed + per_rep > CAP_S:
            break

    for r in plain + traced:
        print(
            f"rep {'traced' if r['traced'] else 'plain '} wall_s={r['wall_s']:.4f} "
            f"setup_s={r['setup_s']:.5f} calib_ms={r['calib_ms']:.2f} events={r['events']} "
            f"slices/run={min(r['slices'])}..{max(r['slices'])}"
        )
    problems = check(args.workload, plain, traced)
    best = best_slices(plain)
    if best is None:
        problems.append("slice counts differ between repetitions")
    for p in problems:
        print("CHECK FAILED: " + p)
    if best and not traced_mode:
        print(
            f"host timings: per-slice best of {len(plain)} repetitions over "
            f"{len(best)} slices"
        )

    section = "per_layer" if traced_mode else "end_to_end"
    values = per_layer(plain, traced) if traced_mode else end_to_end(plain, best or [1.0])
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            print("CHECK FAILED: metric " + m["name"] + " was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<36} {values[m['name']]:>18.6g} {m['unit']}")

    # One attempt per stack per repetition; a failed check fails at least one.
    checked = len(plain + traced) * len(KINDS)
    result = {
        "correct": not problems,
        "attempted": checked,
        "failed": min(checked, len(problems)),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inject_alloc_ns": args.inject_alloc_ns,
        "machine": stamp,
        "reps": [
            {k: r[k] for k in ("traced", "wall_s", "setup_s", "calib_ms", "peak_heap_mb",
                               "events", "minor_words")}
            | {"stack_wall_s": {k: v["wall_s"] for k, v in r["stacks"].items()}}
            for r in plain + traced
        ],
        "problems": problems,
        "metrics": {k: v["value"] for k, v in metrics.items()},
        "wall_s_median": med([r["wall_s"] for r in plain]),
    }
    with open(os.path.join(OUT_DIR, "results.ndjson"), "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    sys.exit(0 if not problems else 1)


if __name__ == "__main__":
    main()
