#!/usr/bin/env python3
"""The magesim benchmark: builds the simulator and the benchmark driver from
the checkout's sources, runs one workload, checks its outputs, and prints the
result as the last line of standard output.

    python3 magebench/run.py --workload scan_evict --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a separate traced run). The exit status is non-zero, and
no result is printed, when the build or the driver fails.
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

# The driver itself stops after --seconds plus one repetition; this is the
# hard stop if it hangs.
DRIVER_TIMEOUT_S = 170


def log(msg):
    print("magebench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "magebench")


def build():
    """Configures once, then builds incrementally. Returns the driver path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "magebench")


def run_driver(binary, args):
    # The simulator reads MAGESIM_* overrides from the environment; the
    # benchmark's configuration must not depend on the caller's.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAGESIM_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", "traced" if args.trace else "e2e"]
    if args.size != 1.0:
        cmd += ["--size", repr(args.size)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with status %d" % proc.returncode)
    return proc.stdout.splitlines()


def wall_bound(spec):
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_ns_per_fault")


def evaluate(lines, args, spec):
    """Gate + metrics for one driver run. Returns the result object."""
    warm, reps, done = aggregate.parse_lines(lines)
    problems = aggregate.gate(warm, reps)
    if reps[0]["sim"]["faults"] == 0:
        raise aggregate.GateError("the workload caused no major faults")
    if args.trace:
        metrics = aggregate.per_layer(reps, done)
        wanted = spec["per_layer"]
        counted = reps
        # Sensitivity self-check: spans at sample_every=1 should read slower
        # than the wall-time bound on the fault-dominated workload, with every
        # simulated quantity unchanged (the gate above). It is a check of the
        # benchmark, not of the program's outputs, and a timing comparison, so
        # it warns here; steadiness.py judges it over a set of traced runs.
        if args.workload == "scan_evict" and args.size == 1.0:
            slow = metrics["check.spans_slowdown_frac"]
            if not slow > wall_bound(spec):
                log("warning: sensitivity self-check: spans slowdown %.3f is within the "
                    "wall_ns_per_fault bound %.3f" % (slow, wall_bound(spec)))
    else:
        metrics = aggregate.end_to_end(reps, done)
        wanted = spec["end_to_end"]
        counted = [r for r in reps if r["variant"] == "plain"]
    for p in problems:
        log("CHECK FAILED: " + p)
    attempted, failed = aggregate.tally(counted)
    return aggregate.result(metrics, wanted, not problems, attempted, failed), done


def save_records(args, lines):
    """Keeps the driver's per-repetition records of the run, for inspection."""
    path = os.path.join(build_dir(), "runs", "%s-seed%d-trace%d.jsonl" % (
        args.workload, args.seed, args.trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def save_trace(args, done):
    """Writes the driver's own host-time spans out at the end of a traced run."""
    path = os.path.join(build_dir(), "traces", "%s-seed%d.json" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "spans": done["spans"]}, f)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", type=float, default=1.0,
                   help="shrink every workload (smoke tests only; not a benchmark result)")
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0 or not 0 < args.size <= 1:
        p.error("--seed must be >= 0, --seconds > 0, 0 < --size <= 1")
    try:
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            p.error("unknown workload %r" % args.workload)
        binary = build()
        lines = run_driver(binary, args)
        save_records(args, lines)
        res, done = evaluate(lines, args, spec)
        if args.trace:
            save_trace(args, done)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.TimeoutExpired,
            aggregate.GateError) as e:
        log("error: %s" % e)
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
