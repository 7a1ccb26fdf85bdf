"""Aggregation, correctness gate and result assembly for the magesim benchmark.

The C++ driver (driver/main.cc) prints one JSON line per repetition and a
final "done" line. This module turns those lines into the benchmark's
result object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

Untraced runs (``--trace 0``) report the end-to-end metrics; traced runs
(``--trace 1``) report the per-layer metrics. Metric names and units come
from BENCHMARK.json, so the file stays the single source of truth.
"""

import json
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Span kinds that can sit on a fault's critical path in the three workloads
# (prefetch, lazy-TLB, evictor backpressure and rebuild are never inside a
# fault). "fault" is the fault's own time between its child stages.
P99_STAGES = [
    "fault", "evict_batch", "entry", "dedup_wait", "tenant_throttle", "tenant_park",
    "mm_locks", "alloc", "free_wait", "rdma_read", "rdma_write", "rdma_retry",
    "retry_backoff", "breaker_wait", "map_install", "accounting", "unmap_victims",
    "shootdown_wait", "ipi_deliver", "reclaim", "degraded_read",
]
PROFILE_PHASES = [
    "app_compute", "fault_map", "fault_alloc", "accounting", "rdma_wait", "tlb_wait",
    "eviction", "free_wait", "idle",
]
# Named simulated locks of the three workloads' configurations.
LOCKS = [
    "lru", "fifo-part", "buddy", "shared-queue", "swap-info", "mmap-lock", "vma-shard",
    "mm-locks", "rdma-stack", "irq", "tenancy-select",
]
BREAKDOWN_STAGES = ["entry", "alloc", "rdma", "accounting", "tlb", "other"]
REPLAY_LAYERS = ["sim", "mem_alloc", "mem_pt", "accounting", "hw_nic", "hw_tlb"]
BENCH_SPANS = ["workload_gen", "machine_build", "run", "extract", "teardown", "report"] + [
    "replay." + layer for layer in REPLAY_LAYERS
]


class GateError(Exception):
    """A correctness check failed; the run's result is not trustworthy."""


def valid_name(name):
    return bool(NAME_RE.match(name))


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def ops_ok_frac(attempted, failed):
    """Share of attempted remote page operations that surfaced no failure."""
    if attempted <= 0:
        raise ValueError("no remote page operations were attempted")
    return 1.0 - failed / attempted


def tally(reps):
    """(attempted, failed) remote page operations over `reps`. A repetition
    that failed a correctness check (its "fail" field, set by the driver or
    by gate()) counts all of its operations as failed."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["attempted"] if r["fail"] else r["failed"] for r in reps)
    return attempted, failed


def parse_lines(lines):
    """Splits driver output into (warm-up reps, measured reps, done record)."""
    warm, reps, done = [], [], None
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if rec.get("kind") == "rep":
            (warm if rec["warmup"] else reps).append(rec)
        elif rec.get("kind") == "done":
            done = rec
    if done is None or not reps:
        raise GateError("driver output is incomplete")
    return warm, reps, done


def gate(warm, reps):
    """Correctness gate: every repetition's own checks passed, its simulated
    quantities equal the first repetition's, and its engine event count
    equals that of the first repetition of its variant. A repetition failing
    a cross-repetition check gets the failure in its "fail" field, so that
    tally() counts it. Returns one message per failed repetition."""
    everything = warm + reps
    ref = everything[0]["sim"]
    first_events = {}
    for rep in everything:
        first_events.setdefault(rep["variant"], rep["events"])
    problems = []
    for i, rep in enumerate(everything):
        if not rep["fail"] and rep["sim"] != ref:
            diff = sorted(k for k in set(ref) | set(rep["sim"])
                          if ref.get(k) != rep["sim"].get(k))
            rep["fail"] = "simulated results differ in " + ", ".join(diff[:6])
        if not rep["fail"] and rep["events"] != first_events[rep["variant"]]:
            rep["fail"] = "engine event count differs within the variant"
        if rep["fail"]:
            problems.append("rep %d (%s): %s" % (i, rep["variant"], rep["fail"]))
    return problems


def wall_ns_per_fault(rep):
    return rep["run_s"] * 1e9 / rep["sim"]["faults"]


def window_scale(sim):
    """Whole-run over measured-window simulated time. Counters that restart at
    the statistics warm-up are scaled by it so that they cover the same host
    interval as Run()'s wall time (assumes the warm-up runs at the steady
    rate; it is 1 for workloads without a warm-up)."""
    return sim["sim_ns"] / sim["measured_ns"]


def ledger(sim, events, wall_ns, costs):
    """Per-layer host ledger, in ns per measured fault.

    `costs` maps each replayed layer to its median ns_per_op and events_per_op.
    Each layer's term is its replayed cost times how often the run performed
    that operation per fault. The engine term prices only the events no
    replayed layer already paid for. The remainder covers the fault-path
    bodies and coroutine glue; it is reported, not forced to zero."""
    faults = sim["faults"]
    k = window_scale(sim)
    ops = {
        "mem_alloc": k * (faults + sim["evicted_pages"]) / faults,
        "mem_pt": k * (3 * faults + sim["evicted_pages"]) / faults,
        "accounting": k * (faults + sim["evicted_pages"]) / faults,
        "hw_nic": k * (sim["nic_reads"] + sim["nic_writes"]) / faults,
        "hw_tlb": k * sim["shootdowns"] / faults,
    }
    terms = {layer: n * costs[layer]["ns_per_op"] for layer, n in ops.items()}
    layer_events = sum(n * costs[layer]["events_per_op"] for layer, n in ops.items())
    engine_events = max(0.0, events / faults - layer_events)
    terms["sim"] = engine_events * costs["sim"]["ns_per_op"]
    terms["unattributed"] = wall_ns - sum(terms.values())
    return terms


def setup_samples(reps):
    """Every timed set-up of `reps`: workload construction plus machine
    construction, one sample per set-up."""
    return [g + b for r in reps for g, b in zip(r["gen_s"], r["build_s"])]


# Host seconds the two yardsticks of driver/reference.cc take at the host
# speed that host times are reported at: about what they take on a quiet
# 4-vCPU Xeon (Sapphire Rapids) virtual machine. "ref_mem_s" is the
# memory-latency-bound yardstick, matched to Run(); "ref_alloc_s" the
# allocation-bound one, matched to set-up.
REFERENCE_S = {"ref_mem_s": 0.012, "ref_alloc_s": 0.012}


def scaled_median(reps, key, samples):
    """Median of host-time samples brought to the reference host speed: each
    of `samples(rep)` is divided by the mean time of yardstick `key` in the
    same repetition (timed just before its set-ups and just after its Run())
    and multiplied by REFERENCE_S[key]. A slow phase of the host stretches the
    repetition and its yardstick alike, so it cancels in the ratio."""
    return REFERENCE_S[key] * median([x / statistics.fmean(r[key])
                                      for r in reps for x in samples(r)])


def end_to_end(reps, done):
    """The end-to-end metrics of an untraced run. Host times are scaled to the
    reference host speed by scaled_median()."""
    plain = [r for r in reps if r["variant"] == "plain"]
    sim = plain[0]["sim"]
    return {
        "wall_ns_per_fault": scaled_median(plain, "ref_mem_s",
                                           lambda r: [wall_ns_per_fault(r)]),
        "setup_s": scaled_median(plain, "ref_alloc_s", lambda r: setup_samples([r])),
        "peak_rss_mb": done["peak_rss_mb"],
        "sim_ops_mops": sim["ops_per_sec"] / 1e6,
        "sim_fault_mops": sim["fault_mops"],
        "sim_fault_p99_us": sim["fault_p99_ns"] / 1e3,
        "sim_fault_p999_us": sim["fault_p999_ns"] / 1e3,
        "sim_nic_gbps": sim["nic_read_gbps"] + sim["nic_write_gbps"],
        "ops_ok_frac": ops_ok_frac(*tally(plain)),
    }


def paired_slowdown(reps, variant):
    """Median over rounds of run_s(variant) / run_s(plain) - 1, pairing each
    variant repetition with the plain repetition of the same round so that
    slow drifts of the host cancel."""
    ratios = []
    plain_run = None
    for rep in reps:
        if rep["variant"] == "plain":
            plain_run = rep["run_s"]
        elif rep["variant"] == variant and plain_run is not None:
            ratios.append(rep["run_s"] / plain_run)
    return median(ratios) - 1.0


def span_fracs(spans):
    """Share of the traced interval in each of the driver's own spans. The
    spans are recorded back to back, so the shares sum to one."""
    total = spans[-1][2] - spans[0][1]
    out = {name: 0.0 for name in BENCH_SPANS}
    for name, t0, t1 in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0) / total
    return out


def per_layer(reps, done):
    plain = [r for r in reps if r["variant"] == "plain"]
    traced = [r for r in reps if r["variant"] == "traced"]
    sim = plain[0]["sim"]
    events = plain[0]["events"]
    faults = sim["faults"]
    m = {}

    costs = {layer: {"ns_per_op": median([r["replay"][layer]["ns_per_op"] for r in plain]),
                     "events_per_op": median([r["replay"][layer]["events_per_op"]
                                              for r in plain])}
             for layer in REPLAY_LAYERS}
    wall = median([wall_ns_per_fault(r) for r in plain])
    terms = ledger(sim, events, wall, costs)

    # sim
    m["sim.events"] = events
    m["sim.events_per_fault"] = events / faults
    m["host.sim_ns_per_event"] = costs["sim"]["ns_per_op"]
    # mem
    m["host.mem_alloc_ns_per_op"] = costs["mem_alloc"]["ns_per_op"]
    m["host.mem_pt_ns_per_op"] = costs["mem_pt"]["ns_per_op"]
    m["mem.alloc_lock_wait_us"] = sim["alloc_lock_wait_ns"] / 1e3
    m["mem.pt_dedup_waits"] = sim["dedup_waits"]
    # accounting
    m["host.accounting_ns_per_op"] = costs["accounting"]["ns_per_op"]
    m["accounting.lock_wait_us"] = sim["acct_lock_wait_ns"] / 1e3
    acq = sim["acct_lock_acquisitions"]
    m["accounting.lock_contended_frac"] = sim["acct_lock_contended"] / acq if acq else 0.0
    # hw
    m["host.hw_nic_ns_per_op"] = costs["hw_nic"]["ns_per_op"]
    m["host.hw_tlb_ns_per_shootdown"] = costs["hw_tlb"]["ns_per_op"]
    m["hw.nic_read_gbps"] = sim["nic_read_gbps"]
    m["hw.nic_write_gbps"] = sim["nic_write_gbps"]
    m["hw.nic_read_queue_p99_us"] = sim["nic_read_queue_p99_ns"] / 1e3
    m["hw.ipis_per_fault"] = sim["ipis"] / faults
    m["hw.tlb_shootdown_p99_us"] = sim["tlb_shootdown_p99_ns"] / 1e3
    # paging
    m["paging.faults"] = faults
    m["paging.fault_p50_us"] = sim["fault_p50_ns"] / 1e3
    m["paging.evicted_per_fault"] = sim["evicted_pages"] / faults
    m["paging.sync_evictions"] = sim["sync_evictions"]
    m["paging.free_page_waits"] = sim["free_page_waits"]
    for stage in BREAKDOWN_STAGES:
        m["paging.stage.%s_us" % stage] = sim.get("stage.%s_ns" % stage, 0) / faults / 1e3
    # host ledger: the terms and the remainder sum to this run's own
    # untraced wall_ns_per_fault
    for layer in REPLAY_LAYERS:
        m["host.ledger.%s_ns_per_fault" % layer] = terms[layer]
    m["host.unattributed_ns_per_fault"] = terms["unattributed"]
    # workloads / core
    gen = median([g for r in plain for g in r["gen_s"]])
    build = median([b for r in plain for b in r["build_s"]])
    m["host.workload_gen_s"] = gen
    m["host.machine_build_s"] = build
    m["host.workload_gen_frac"] = gen / (gen + build)
    m["host.run_s"] = median([r["run_s"] for r in plain])
    m["host.ns_per_op"] = median([r["run_s"] * 1e9 / sim["total_ops"] for r in plain])
    # tenancy
    m["tenancy.lat.ops_mops"] = sim.get("tenant.lat.ops_per_sec", 0.0) / 1e6
    m["tenancy.bg.ops_mops"] = sim.get("tenant.bg.ops_per_sec", 0.0) / 1e6
    m["tenancy.hard_limit_waits"] = sim["tenant_hard_limit_waits"]
    m["tenancy.max_overage_pages"] = sim["tenant_max_overage_pages"]
    # fleet
    for key in ["degraded_reads", "repairs_queued", "slots_rebuilt", "rebuild_pending",
                "slots_lost"]:
        m["fleet." + key] = sim["fleet_" + key]
    # resilience
    m["resilience.rdma_retries"] = sim["rdma_retries"]
    m["resilience.rdma_timeouts"] = sim["rdma_timeouts"]
    m["resilience.breaker_opens"] = sim["breaker_opens"]
    m["resilience.retry_frac"] = sim["rdma_retries"] / max(1, sim["nic_reads"] + sim["nic_writes"])
    # traced run: profiler phases, lock waits, p99-band critical path
    trace = traced[0]["trace"]
    phases = {p: trace["phase.%s_ns" % p] for p in PROFILE_PHASES}
    capacity = sum(phases.values())
    for p in PROFILE_PHASES:
        m["profile.%s_frac" % p] = phases[p] / capacity if capacity else 0.0
    for lock in LOCKS:
        m["locks.%s.wait_us" % lock] = trace.get("lock.%s_ns" % lock, 0) / 1e3
    band = sum(trace["p99.%s_ns" % k] for k in P99_STAGES)
    for k in P99_STAGES:
        m["spans.fault_p99.%s_frac" % k] = trace["p99.%s_ns" % k] / band if band else 0.0
    m["trace.overhead_frac"] = paired_slowdown(reps, "traced")
    m["check.spans_slowdown_frac"] = paired_slowdown(reps, "spans")
    m["check.metrics_slowdown_frac"] = paired_slowdown(reps, "metrics")
    for name, frac in span_fracs(done["spans"]).items():
        m["span.%s_frac" % name.replace("replay.", "replay_")] = frac
    return m


def result(metrics, spec, correct, attempted, failed):
    """Assembles the final result object; every metric the spec names for
    this mode must be present, and only those."""
    names = [d["name"] for d in spec]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise GateError("metrics missing: " + ", ".join(missing))
    out = {}
    for d in spec:
        value = float(metrics[d["name"]])
        if value != value or value in (float("inf"), float("-inf")):
            raise GateError("metric %s is not a finite number" % d["name"])
        out[d["name"]] = {"value": value, "unit": d["unit"]}
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": out}
