// magesim_cli: run any workload on any system variant from the command line.
//
//   magesim_cli --workload=pagerank --system=magelib --far=50 [--threads=48]
//   magesim_cli --workload=trace --trace-file=prod.trc --system=hermit --far=30
//   magesim_cli --workload=zipf-trace --system=dilos --far=40 --save-trace=out.trc
//   magesim_cli --workload=seqscan --system=magelib --trace=events.jsonl
//               --check-interval=100
//   magesim_cli --tenant='lat:4:0.4:latency=seqscan/2,pages=4096,passes=64'
//               --tenant='bg:1:0.8:batch=gups/2' --system=magelib --far=50
//
// Workloads come from the registry (src/workloads/registry.h); run
// --list-workloads for names, descriptions and per-workload options, and pass
// overrides with --workload-opts=key=val,key=val. "trace" requires
// --trace-file.
// Systems:   ideal, hermit, dilos, magelnx, magelib, fastswap.
//
// Multi-tenancy (src/tenancy):
//   --tenant=spec         attach a memory control group running its own
//                         workload; repeat the flag once per tenant. Spec
//                         grammar: name:weight:limit[:soft]:qos=workload
//                         [/threads][,key=val...] — see src/tenancy/
//                         tenant_spec.h. MAGESIM_TENANCY overrides.
// Debugging:
//   --trace=path          write every simulation event as JSONL
//   --trace-chrome=path   write a chrome://tracing / Perfetto JSON timeline
//   --check-interval=us   run the invariant checker every N simulated µs
//   --check               run one invariant check after the simulation drains
// Fault injection (src/resilience):
//   --fault-plan=spec     compact spec, JSON, or @file: e.g.
//                         "brownout@2ms-6ms:bw=0.2;crash@10ms-12ms"
//   --terminal=poison|fail  policy when a demand read exhausts retries
//   --seed=N              simulation seed (default 1)
// Observability:
//   --metrics-out=path       write the JSON run-report
//   --metrics-csv=path       write the sampler time series as CSV
//   --metrics-prom=path      write a Prometheus text exposition
//   --sample-interval-us=N   sampling period (default 1000)
//   --progress               print a per-sample progress line to stderr
// Span tracing (src/spans):
//   --spans                  enable causal span tracing + tail attribution
//   --spans-out=path         stream every span tree as JSONL (implies --spans;
//                            feed to tools/span_view.py)
//   --spans-top-k=N          slowest exemplars kept per op kind (default 8)
//   --spans-sample=N         trace every Nth root op per kind (default 16;
//                            1 = full fidelity, deterministic either way)
// Unknown --flags are rejected (no silent typo-ignoring).
// Exit status is nonzero if any invariant violation was detected.
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/trace/trace.h"

#include "src/core/farmem.h"
#include "src/tenancy/tenant_spec.h"
#include "src/workloads/registry.h"
#include "src/workloads/trace.h"

namespace {

// Every flag the CLI understands. Anything else is rejected with an error
// (a typo'd --span-out silently running an un-traced simulation wastes far
// more time than the check costs).
constexpr const char* kKnownFlags[] = {
    "list-workloads", "workload",       "system",        "far",
    "threads",        "workload-opts",  "trace-file",    "save-trace",
    "tenant",         "seed",           "fault-plan",    "terminal",
    "check-interval", "check",          "analysis",      "metrics-out",
    "metrics-csv",    "metrics-prom",   "sample-interval-us",
    "progress",       "trace",          "trace-chrome",  "spans",
    "spans-out",      "spans-top-k",    "spans-sample",  "fleet-nodes",
    "fleet-replicas", "fleet-rebuild-gbps",
};

bool IsKnownFlag(const std::string& name) {
  for (const char* f : kKnownFlags) {
    if (name == f) return true;
  }
  return false;
}

// Returns false (after printing the offender) on any unknown --flag.
bool ParseArgs(int argc, char** argv, std::map<std::string, std::string>* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    size_t eq = a.find('=');
    std::string name = eq == std::string::npos ? a.substr(2) : a.substr(2, eq - 2);
    if (!IsKnownFlag(name)) {
      std::fprintf(stderr, "unknown option --%s\n", name.c_str());
      return false;
    }
    if (eq == std::string::npos) {
      // insert_or_assign rather than operator[]= : the latter trips a GCC 12
      // -Wrestrict false positive (PR105329) when the char* assign inlines.
      args->insert_or_assign(name, std::string("1"));
    } else {
      args->insert_or_assign(name, a.substr(eq + 1));
    }
  }
  return true;
}

// ParseArgs collapses repeated flags; --tenant legitimately repeats, so it
// gets its own pass over argv.
std::vector<std::string> CollectTenantSpecs(int argc, char** argv) {
  std::vector<std::string> specs;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--tenant=", 0) == 0) specs.push_back(a.substr(std::strlen("--tenant=")));
  }
  return specs;
}

std::string Get(const std::map<std::string, std::string>& args, const std::string& key,
                const std::string& def) {
  auto it = args.find(key);
  return it == args.end() ? def : it->second;
}

// "key=val,key=val" -> map; returns false on an entry with no '='.
bool ParseKvList(const std::string& s, std::map<std::string, std::string>* out) {
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string kv = s.substr(pos, comma - pos);
    size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    out->insert_or_assign(kv.substr(0, eq), kv.substr(eq + 1));
    pos = comma + 1;
  }
  return true;
}

int ListWorkloadsMain() {
  for (const magesim::WorkloadInfo& w : magesim::ListWorkloads()) {
    std::printf("%-12s %s\n", w.name.c_str(), w.description.c_str());
    std::printf("%-12s options: %s\n", "", w.options.c_str());
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: magesim_cli --workload=<name> --system=<name> [--far=<pct>]\n"
               "                   [--threads=N] [--workload-opts=k=v,...]\n"
               "                   [--tenant=spec]... [--list-workloads]\n"
               "                   [--trace-file=path] [--save-trace=path]\n"
               "                   [--trace=events.jsonl] [--trace-chrome=timeline.json]\n"
               "                   [--check-interval=us] [--check] [--analysis]\n"
               "                   [--metrics-out=report.json] [--metrics-csv=series.csv]\n"
               "                   [--metrics-prom=metrics.txt] [--sample-interval-us=N]\n"
               "                   [--progress] [--fault-plan=spec|@file]\n"
               "                   [--terminal=poison|fail] [--seed=N]\n"
               "                   [--spans] [--spans-out=spans.jsonl] [--spans-top-k=N]\n"
               "                   [--spans-sample=N] [--fleet-nodes=N]\n"
               "                   [--fleet-replicas=K] [--fleet-rebuild-gbps=G]\n"
               "workloads: see --list-workloads (trace requires --trace-file)\n"
               "systems:   ideal hermit dilos magelnx magelib fastswap\n"
               "tenants:   --tenant=name:weight:limit[:soft]:qos=workload[/threads][,k=v...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace magesim;
  std::map<std::string, std::string> args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.count("list-workloads") != 0) return ListWorkloadsMain();

  std::string wname = Get(args, "workload", "");
  std::string sname = Get(args, "system", "magelib");
  int far = 0, threads = 0;
  uint64_t seed = 0;
  int64_t check_us = 0;
  try {
    far = static_cast<int>(ParseWholeNumber("--far", Get(args, "far", "30"), 0, 100));
    threads =
        static_cast<int>(ParseWholeNumber("--threads", Get(args, "threads", "24"), 1, INT_MAX));
    seed = static_cast<uint64_t>(ParseWholeNumber("--seed", Get(args, "seed", "1"), 0, INT64_MAX));
    check_us = ParseWholeNumber("--check-interval", Get(args, "check-interval", "0"), 0,
                                INT64_MAX / kMicrosecond);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::vector<std::string> tenant_specs = CollectTenantSpecs(argc, argv);
  if (wname.empty() && tenant_specs.empty()) return Usage();

  std::unique_ptr<Workload> wl;
  if (!wname.empty()) {
    WorkloadParams params;
    params.threads = threads;
    if (!ParseKvList(Get(args, "workload-opts", ""), &params.opts)) {
      std::fprintf(stderr, "malformed --workload-opts (expected key=val,key=val)\n");
      return 2;
    }
    std::string tf = Get(args, "trace-file", "");
    if (!tf.empty()) params.opts.insert_or_assign("file", tf);
    std::string werr;
    wl = MakeWorkload(wname, params, &werr);
    if (wl == nullptr) {
      std::fprintf(stderr, "%s\n", werr.c_str());
      return 2;
    }
    std::string save = Get(args, "save-trace", "");
    if (!save.empty()) {
      auto* replay = dynamic_cast<TraceReplayWorkload*>(wl.get());
      if (replay == nullptr) {
        std::fprintf(stderr, "--save-trace only applies to trace-backed workloads\n");
        return 2;
      }
      if (!replay->trace().SaveTo(save)) {
        std::fprintf(stderr, "cannot save trace to '%s'\n", save.c_str());
        return 1;
      }
    }
  } else {
    // Tenancy replaces the constructor workload with a machine-built
    // MultiTenantWorkload; the placeholder below never runs.
    wl = MakeWorkload("seqscan", WorkloadParams{.threads = 1, .opts = {{"pages", "64"}, {"passes", "1"}}},
                      nullptr);
  }

  FarMemoryMachine::Options opt;
  try {
    opt.kernel = ConfigByName(sname);
  } catch (const std::invalid_argument&) {
    return Usage();
  }
  for (const std::string& s : tenant_specs) {
    TenantSpec spec;
    std::string terr;
    if (!ParseTenantSpec(s, &spec, &terr)) {
      std::fprintf(stderr, "bad --tenant spec '%s': %s\n", s.c_str(), terr.c_str());
      return 2;
    }
    opt.tenancy.tenants.push_back(std::move(spec));
  }
  opt.tenancy.enabled = !opt.tenancy.tenants.empty();
  opt.local_mem_ratio = 1.0 - static_cast<double>(far) / 100.0;
  opt.time_limit = 5 * kSecond;  // safety stop for open-ended workloads
  opt.seed = seed;
  opt.fault_plan = Get(args, "fault-plan", "");
  std::string terminal = Get(args, "terminal", "poison");
  if (terminal == "fail") {
    opt.resilience.terminal = TerminalPolicy::kFailRun;
  } else if (terminal != "poison") {
    return Usage();
  }
  try {
    if (args.count("fleet-nodes") != 0) {
      opt.fleet.num_nodes = static_cast<int>(
          ParseWholeNumber("--fleet-nodes", args.at("fleet-nodes"), 1, kMaxFleetNodes));
    }
    if (args.count("fleet-replicas") != 0) {
      opt.fleet.replication = static_cast<int>(
          ParseWholeNumber("--fleet-replicas", args.at("fleet-replicas"), 1, INT_MAX));
    }
    if (args.count("fleet-rebuild-gbps") != 0) {
      opt.fleet.rebuild_gbps =
          ParsePositiveNumber("--fleet-rebuild-gbps", args.at("fleet-rebuild-gbps"));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (check_us > 0) opt.check_interval = check_us * kMicrosecond;
  if (args.count("check") != 0) opt.check_final = true;
  if (args.count("analysis") != 0) opt.analysis.enabled = true;

  opt.metrics.report_path = Get(args, "metrics-out", "");
  opt.metrics.csv_path = Get(args, "metrics-csv", "");
  opt.metrics.prom_path = Get(args, "metrics-prom", "");
  int64_t sample_us = 0;
  try {
    sample_us = ParseWholeNumber("--sample-interval-us", Get(args, "sample-interval-us", "0"),
                                 0, INT64_MAX / kMicrosecond);
    if (args.count("spans-top-k") != 0) {
      opt.spans.top_k =
          static_cast<int>(ParseWholeNumber("--spans-top-k", args.at("spans-top-k"), 0, INT_MAX));
    }
    if (args.count("spans-sample") != 0) {
      opt.spans.sample_every =
          static_cast<int>(ParseWholeNumber("--spans-sample", args.at("spans-sample"), 1, INT_MAX));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (sample_us > 0) opt.metrics.sample_interval = sample_us * kMicrosecond;
  opt.metrics.progress = args.count("progress") != 0;
  opt.metrics.enabled = !opt.metrics.report_path.empty() || !opt.metrics.csv_path.empty() ||
                        !opt.metrics.prom_path.empty() || sample_us > 0 ||
                        opt.metrics.progress;

  opt.spans.out_path = Get(args, "spans-out", "");
  opt.spans.enabled = args.count("spans") != 0 || !opt.spans.out_path.empty() ||
                      args.count("spans-top-k") != 0 || args.count("spans-sample") != 0;

  // Install the tracer (if requested) before building the machine so the
  // checker's recent-event ring registers with it.
  Tracer tracer;
  std::unique_ptr<JsonlTraceSink> jsonl;
  std::unique_ptr<ChromeTraceSink> chrome;
  std::string trace_path = Get(args, "trace", "");
  std::string chrome_path = Get(args, "trace-chrome", "");
  if (!trace_path.empty()) {
    jsonl = std::make_unique<JsonlTraceSink>(trace_path);
    if (!jsonl->ok()) {
      std::fprintf(stderr, "cannot open trace output '%s'\n", trace_path.c_str());
      return 1;
    }
    tracer.AddSink(jsonl.get());
  }
  if (!chrome_path.empty()) {
    chrome = std::make_unique<ChromeTraceSink>(chrome_path);
    if (!chrome->ok()) {
      std::fprintf(stderr, "cannot open trace output '%s'\n", chrome_path.c_str());
      return 1;
    }
    tracer.AddSink(chrome.get());
  }
  if (jsonl != nullptr || chrome != nullptr || opt.check_interval > 0 || opt.check_final) {
    tracer.Install();
  }

  std::unique_ptr<FarMemoryMachine> machine_ptr;
  try {
    machine_ptr = std::make_unique<FarMemoryMachine>(opt, *wl);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  FarMemoryMachine& machine = *machine_ptr;
  if (machine.spans() != nullptr && chrome != nullptr) {
    // Span slices + causal flow arrows ride the same Chrome timeline.
    machine.spans()->AttachChrome(chrome.get());
  }
  RunResult r = machine.Run();

  // With tenancy the machine swaps in a MultiTenantWorkload; report that one.
  Workload& ran = machine.workload();
  std::printf("workload=%s system=%s far=%d%% threads=%d\n", ran.name().c_str(), sname.c_str(),
              far, ran.num_threads());
  std::printf("sim time        %.4f s\n", r.sim_seconds);
  std::printf("throughput      %.3f M %s/s\n", r.ops_per_sec / 1e6, ran.ops_unit().c_str());
  std::printf("major faults    %llu (%.2f M/s)\n",
              static_cast<unsigned long long>(r.faults), r.fault_mops);
  std::printf("fault latency   %s\n", r.fault_latency.Summary().c_str());
  std::printf("sync evictions  %llu\n", static_cast<unsigned long long>(r.sync_evictions));
  std::printf("evicted pages   %llu\n", static_cast<unsigned long long>(r.evicted_pages));
  std::printf("network         read %.1f Gbps / write %.1f Gbps\n", r.nic_read_gbps,
              r.nic_write_gbps);
  std::printf("tlb shootdowns  %s (ipis %llu)\n", r.tlb_shootdown_latency.Summary().c_str(),
              static_cast<unsigned long long>(r.ipis_sent));
  for (const TenantRunResult& t : r.tenants) {
    std::printf("tenant %-8s qos=%-7s %.3f M ops/s  faults %llu  usage %llu/%llu pages"
                "  evicted %llu  hard-waits %llu  throttles %llu\n",
                t.name.c_str(), QosClassName(t.qos), t.ops_per_sec / 1e6,
                static_cast<unsigned long long>(t.faults),
                static_cast<unsigned long long>(t.usage_pages),
                static_cast<unsigned long long>(t.hard_limit_pages),
                static_cast<unsigned long long>(t.evict_selected),
                static_cast<unsigned long long>(t.hard_limit_waits),
                static_cast<unsigned long long>(t.backpressure_waits));
  }
  if (machine.injector() != nullptr) {
    std::printf("resilience      retries %llu timeouts %llu breaker-opens %llu "
                "poisoned %llu wb-lost %llu\n",
                static_cast<unsigned long long>(r.rdma_retries),
                static_cast<unsigned long long>(r.rdma_timeouts),
                static_cast<unsigned long long>(r.breaker_opens),
                static_cast<unsigned long long>(r.pages_poisoned),
                static_cast<unsigned long long>(r.writebacks_lost));
  }
  if (r.fleet_nodes > 1) {
    std::printf("fleet           nodes %llu x%d  degraded-reads %llu  lost %llu  "
                "rebuilt %llu  pending %llu  silent-losses %llu\n",
                static_cast<unsigned long long>(r.fleet_nodes), machine.fleet()->replication(),
                static_cast<unsigned long long>(r.fleet_degraded_reads),
                static_cast<unsigned long long>(r.fleet_slots_lost),
                static_cast<unsigned long long>(r.fleet_slots_rebuilt),
                static_cast<unsigned long long>(r.fleet_rebuild_pending),
                static_cast<unsigned long long>(r.fleet_silent_losses));
  }
  if (machine.injector() != nullptr) {
    std::printf("injected        windows %llu drops %llu errors %llu crashes %llu\n",
                static_cast<unsigned long long>(r.fault_windows),
                static_cast<unsigned long long>(r.injected_drops),
                static_cast<unsigned long long>(r.injected_errors),
                static_cast<unsigned long long>(r.memnode_crashes));
  }
  if (machine.metrics() != nullptr && !opt.metrics.report_path.empty()) {
    std::printf("run report      %s\n", opt.metrics.report_path.c_str());
  }
  if (machine.spans() != nullptr) {
    SpanTracer& st = *machine.spans();
    std::printf("spans           %s\n", st.FingerprintSummary().c_str());
    SpanTailSummary tail = st.Tail(SpanKind::kFault);
    if (tail.count > 0) {
      // Where do the slowest faults spend their time? Name the dominant
      // critical-path phase of the p99 latency band.
      const SpanTailBand& band = tail.bands[2];
      SpanKind top = SpanKind::kFault;
      for (int k = 0; k < kNumSpanKinds; ++k) {
        if (band.phase_ns[static_cast<size_t>(k)] >
            band.phase_ns[static_cast<size_t>(top)]) {
          top = static_cast<SpanKind>(k);
        }
      }
      std::printf("fault p99 band  %llu ops >= %.1f us: top phase %s (%.0f%%)\n",
                  static_cast<unsigned long long>(band.ops),
                  static_cast<double>(band.threshold_ns) / 1000.0, SpanKindName(top),
                  band.Share(top) * 100.0);
    }
    if (!opt.spans.out_path.empty()) {
      std::printf("span export     %s%s\n", opt.spans.out_path.c_str(),
                  st.export_ok() ? "" : " (write failed)");
    }
  }
  if (machine.checker() != nullptr) {
    std::printf("%s\n", machine.checker()->Report().c_str());
    if (r.invariant_violations > 0) return 1;
  }
  if (machine.analyzer() != nullptr) {
    std::printf("analysis        locks %llu order-edges %llu violations %llu\n",
                static_cast<unsigned long long>(r.analysis_locks),
                static_cast<unsigned long long>(r.analysis_order_edges),
                static_cast<unsigned long long>(r.analysis_violations));
    if (r.analysis_violations > 0) {
      std::printf("%s\n", machine.analyzer()->Report().c_str());
      return 1;
    }
  }
  if (r.aborted) {
    std::fprintf(stderr, "run aborted: %s\n", r.abort_reason.c_str());
    return 1;
  }
  return 0;
}
