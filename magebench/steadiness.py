#!/usr/bin/env python3
"""Steadiness tool: runs repeated sets of benchmark runs and reports, for each
metric on each workload, the median, the quartiles, the spread (inter-quartile
distance over the median) and the largest run-to-run deviation from the
median, next to the metric's bound from BENCHMARK.json.

    python3 magebench/steadiness.py --runs 10 --sets 2 --out steady.jsonl
    python3 magebench/steadiness.py --from steady.jsonl

Each set runs seeds 1..runs of every workload in BENCHMARK.json for its
run_seconds, interleaving the workloads so that slow phases of the host fall
on all of them alike. A metric passes when its spread in every set is within
its bound and no set's median is worse than the first set's by more than the
bound. The "3xsprd" column is the bound a metric would need to keep its spread
below a third of it; it is how the bounds were chosen.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import aggregate  # noqa: E402


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def collect(spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    records = []
    out = open(args.out, "a") if args.out else None
    for s in range(1, args.sets + 1):
        for seed in range(1, args.runs + 1):
            for w in workloads:
                res = run_once(w, seed, seconds, args.trace)
                rec = {"set": s, "workload": w, "seed": seed, "trace": args.trace,
                       "result": res}
                records.append(rec)
                if out:
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                status = "FAILED" if res is None or not res["correct"] else "ok"
                print("set %d seed %d %-16s %s" % (s, seed, w, status), file=sys.stderr,
                      flush=True)
    return records


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def report(spec, records, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    ok = True
    for w in sorted({r["workload"] for r in records}):
        rows = [r for r in records if r["workload"] == w and r["trace"] == trace]
        failed = [r for r in rows if r["result"] is None or not r["result"]["correct"]]
        sets = sorted({r["set"] for r in rows})
        print("\n== %s: %d runs in %d set(s), %d failed" % (w, len(rows), len(sets), len(failed)))
        if failed:
            ok = False
        print("%-34s %12s %12s %12s %7s %7s %7s %7s %6s  %s" % (
            "metric", "q1", "median", "q3", "spread", "maxdev", "3xsprd", "shift", "bound",
            "status"))
        for m in metrics:
            name = m["name"]
            per_set = []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in rows
                        if r["set"] == s and r["result"] is not None and r["result"]["correct"]]
                if vals:
                    per_set.append(vals)
            if not per_set:
                continue
            bound = m.get("bound")
            for i, vals in enumerate(per_set):
                q1, med, q3 = aggregate.quartiles(vals)
                sp = aggregate.spread(vals) if med else 0.0
                maxdev = max(abs(v - med) for v in vals) / abs(med) if med else 0.0
                shift = worse_by(aggregate.median(per_set[0]), med, m["better"]) if i else 0.0
                status = ""
                if bound is not None:
                    good = sp <= bound and shift <= bound
                    status = "ok" if good else "OVER"
                    ok = ok and good
                print("%-34s %12.6g %12.6g %12.6g %7.3f %7.3f %7.3f %7.3f %6s  %s" % (
                    name if i == 0 else "  set %d" % (i + 1), q1, med, q3, sp, maxdev, 3 * sp,
                    shift, "" if bound is None else "%.3f" % bound, status))
    if trace:
        ok = sensitivity(spec, records) and ok
    return ok


def sensitivity(spec, records):
    """The benchmark's self-check: on scan_evict, span tracing at
    sample_every=1 must make Run() slower by more than the wall_ns_per_fault
    bound (median over the traced runs), while the correctness gate of every
    run held every simulated metric equal across the variants."""
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_ns_per_fault")
    rows = [r for r in records if r["workload"] == "scan_evict" and r["trace"] == 1
            and r["result"] is not None and r["result"]["correct"]]
    if not rows:
        return True
    spans = aggregate.median([r["result"]["metrics"]["check.spans_slowdown_frac"]["value"]
                              for r in rows])
    metrics = aggregate.median([r["result"]["metrics"]["check.metrics_slowdown_frac"]["value"]
                                for r in rows])
    good = spans > bound
    print("\nsensitivity self-check (scan_evict, %d traced runs): spans slowdown %.3f %s "
          "wall bound %.3f -> %s; metrics-only slowdown %.3f" % (
              len(rows), spans, ">" if good else "<=", bound, "ok" if good else "FAILED",
              metrics))
    return good


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="seeds per set")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", default="", help="append raw results (JSON lines) here")
    p.add_argument("--from", dest="src", default="", help="report saved results only")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.src:
        with open(args.src) as f:
            records = [json.loads(line) for line in f if line.strip()]
    else:
        records = collect(spec, args)
    return 0 if report(spec, records, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
