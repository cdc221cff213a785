#!/usr/bin/env python3
"""Check that tracing changes nothing but host time, and measure its cost.

Run from the root of a checkout:

    python3 cmd/qbbench/equiv.py --seed 7 --seconds 10 [workload ...]

For each workload (default: all three) it runs the benchmark four times
with one client on the same seed, three times untraced and once traced,
each writing a record of every answer, simulated round and maintenance
cost, crawl counter, network message counter and write-path counter.
Every record field the untraced runs all agree on must read the same in
the traced run. Fields the untraced runs already disagree on are the
engine's own run-to-run variation (it draws per-link latency jitter in
goroutine order inside parallel waves, and hedging decisions follow those
latencies); for them the script prints how far each run lies from the
first. Such a field can also agree across untraced runs by chance, which
is why there are three of them. The end-to-end metrics give the tracing
overhead. Exits non-zero if tracing changed a field the untraced runs
agree on.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(ROOT, ".bench_build", "equiv")


def run(workload, seed, seconds, trace, tag):
    record = os.path.join(OUT, f"{workload}-{seed}-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--clients", "1", "--record", record]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload}: run failed")
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    with open(record) as f:
        return result, detail, json.load(f)


def numbers(v):
    """Flattens a record field to its numbers, in order."""
    if isinstance(v, dict):
        return [x for k in sorted(v) for x in numbers(v[k])]
    if isinstance(v, list):
        return [x for e in v for x in numbers(e)]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return [float(v)]
    return []


def distance(a, b):
    """Largest relative difference between two flattened fields."""
    xa, xb = numbers(a), numbers(b)
    if len(xa) != len(xb):
        return float("inf")
    return max((abs(x - y) / abs(x) if x else abs(y) for x, y in zip(xa, xb)), default=0.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("workloads", nargs="*", default=["serve", "crawl", "serve-publish"])
    args = ap.parse_args()
    os.makedirs(OUT, exist_ok=True)
    ok = True
    for w in args.workloads:
        untraced = [run(w, args.seed, args.seconds, 0, tag) for tag in ("untraced-a", "untraced-b", "untraced-c")]
        res_t, det_t, rec_t = run(w, args.seed, args.seconds, 1, "traced")
        correct = all(r["correct"] for r, _, _ in untraced) and res_t["correct"]
        ok = ok and correct
        print(f"== {w} seed {args.seed}: all correct {correct}")
        recs = [rec for _, _, rec in untraced]
        for key in sorted(recs[0]):
            if all(rec[key] == recs[0][key] for rec in recs[1:]):
                same = rec_t[key] == recs[0][key]
                ok = ok and same
                print(f"  {key:14s} {'identical' if same else 'CHANGED BY TRACING'}")
            else:
                spread = max(distance(recs[0][key], rec[key]) for rec in recs[1:])
                print(f"  {key:14s} varies run to run: untraced {spread:.3g}, "
                      f"traced {distance(recs[0][key], rec_t[key]):.3g} (largest relative difference from the first untraced run)")
        print("  tracing overhead (traced vs mean of untraced, one client):")
        e2e = [det["end_to_end"] for _, det, _ in untraced]
        for name in sorted(e2e[0]):
            x = sum(e[name]["value"] for e in e2e) / len(e2e)
            y = det_t["end_to_end"][name]["value"]
            rel = f"{(y - x) / x:+.2%}" if x else "n/a"
            print(f"    {name:24s} {x:12.4f} -> {y:12.4f} {e2e[0][name]['unit']:10s} {rel}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
