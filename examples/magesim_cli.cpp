// magesim_cli: run any workload on any system variant from the command line.
//
//   magesim_cli --workload=pagerank --system=magelib --far=50 --threads=48
//
// `magesim_cli --help` lists every flag: the CLI's own (kCliFlags below) and
// the machine knobs of src/core/knobs.h. Bad input exits 2 with an error
// naming the flag; an invariant or lock-discipline violation, or an aborted
// run, exits 1.
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/check/invariant_checker.h"
#include "src/trace/trace.h"

#include "src/core/farmem.h"
#include "src/core/knobs.h"
#include "src/sim/parse.h"
#include "src/tenancy/tenant_spec.h"
#include "src/workloads/registry.h"
#include "src/workloads/trace.h"

namespace {

// The CLI's own flags; every other --name=value is a machine knob.
struct CliFlag {
  const char* name;
  const char* value;  // value placeholder, "" for a bare flag
  const char* doc;
};
constexpr CliFlag kCliFlags[] = {
    {"workload", "=<name>", "workload from the registry (see --list-workloads)"},
    {"threads", "=<1..>", "application threads (default 24)"},
    {"workload-opts", "=<k=v,...>", "workload options, e.g. file=prod.trc for --workload=trace"},
    {"tenant", "=<spec>",
     "attach a memory control group running its own workload; repeat once per tenant:\n"
     "      name:weight:limit[:soft]:qos=workload[/threads][,k=v...] (src/tenancy/tenant_spec.h)"},
    {"trace", "=<path>", "write every simulation event as JSONL"},
    {"trace-chrome", "=<path>", "write a chrome://tracing / Perfetto JSON timeline"},
    {"save-trace", "=<path>", "save a trace-backed workload's access trace (replay: file=<path>)"},
    {"list-workloads", "", "list the workloads and their options"},
    {"help", "", "print this help"},
};

bool IsCliFlag(const std::string& name) {
  for (const CliFlag& f : kCliFlags) {
    if (name == f.name) return true;
  }
  return false;
}

// "=<0..100>", "[=0|1]", ...: what a knob's value may be.
std::string ValueHint(const magesim::Knob& k) {
  switch (k.kind) {
    case magesim::KnobKind::kWhole:
      return "=<" + std::to_string(k.lo) + ".." + (k.hi < INT_MAX ? std::to_string(k.hi) : "") +
             ">";
    case magesim::KnobKind::kPositive:
      return "=<number > 0>";
    case magesim::KnobKind::kBool:
      return "[=0|1]";
    case magesim::KnobKind::kText:
      break;
  }
  return std::string("=<") + (k.choices != nullptr ? k.choices : "text") + ">";
}

void PrintHelp() {
  std::printf(
      "usage: magesim_cli --workload=<name> [--flag=value]...\n"
      "       magesim_cli --tenant=<spec> [--tenant=<spec>]... [--flag=value]...\n"
      "defaults: --system=magelib --far=30 --threads=24, a 5 s simulated time limit\n\n");
  for (const CliFlag& f : kCliFlags) std::printf("  --%s%s\n      %s\n", f.name, f.value, f.doc);
  std::printf("\nmachine knobs (src/core/knobs.h); a MAGESIM_* variable sets its knob in any\n"
              "harness and overrides the flag:\n");
  for (const magesim::Knob& k : magesim::Knobs()) {
    std::string names = k.flag != nullptr ? std::string("--") + k.flag : "";
    if (k.env != nullptr) names += (names.empty() ? "" : ", ") + std::string(k.env);
    std::printf("  %s%s\n      %s\n", names.c_str(), ValueHint(k).c_str(), k.doc);
  }
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

}  // namespace

int main(int argc, char** argv) {
  using namespace magesim;
  // A bare --flag means "1". The knob defaults are the CLI's, not Options'.
  std::map<std::string, std::string> args, knobs = {{"system", "magelib"}, {"far", "30"}};
  std::vector<std::string> tenant_specs;  // --tenant repeats
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    size_t eq = a.find('=');
    std::string name = a.substr(2, eq == std::string::npos ? eq : eq - 2);
    std::string value = eq == std::string::npos ? "1" : a.substr(eq + 1);
    if (name == "tenant") {
      tenant_specs.push_back(value);
    } else {
      // insert_or_assign rather than operator[]= : the latter trips a GCC 12
      // -Wrestrict false positive (PR105329) when the char* assign inlines.
      (IsCliFlag(name) ? args : knobs).insert_or_assign(name, value);
    }
  }
  if (args.count("help") != 0) {
    PrintHelp();
    return 0;
  }
  if (args.count("list-workloads") != 0) return ListWorkloadsMain();

  FarMemoryMachine::Options opt;
  opt.time_limit = 5 * kSecond;  // safety stop for open-ended workloads
  int threads = 0;
  try {
    // Table order, so flags combine the way their environment spellings do.
    for (const Knob& k : Knobs()) {
      auto it = k.flag != nullptr ? knobs.find(k.flag) : knobs.end();
      if (it == knobs.end()) continue;
      ApplyKnob(k, std::string("--") + k.flag, it->second, &opt);
      knobs.erase(it);
    }
    if (!knobs.empty()) throw std::invalid_argument("unknown option --" + knobs.begin()->first);
    threads =
        static_cast<int>(ParseWholeNumber("--threads", Get(args, "threads", "24"), 1, INT_MAX));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s (see --help)\n", e.what());
    return 2;
  }
  std::string wname = Get(args, "workload", "");
  if (wname.empty() && tenant_specs.empty()) {
    std::fprintf(stderr, "magesim_cli: give --workload=<name> or --tenant=<spec> (see --help)\n");
    return 2;
  }

  std::unique_ptr<Workload> wl;
  if (!wname.empty()) {
    WorkloadParams params;
    params.threads = threads;
    if (!ParseKvList(Get(args, "workload-opts", ""), &params.opts)) {
      std::fprintf(stderr, "malformed --workload-opts (expected key=val,key=val)\n");
      return 2;
    }
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
  const int far = static_cast<int>(std::lround((1.0 - opt.local_mem_ratio) * 100.0));
  std::printf("workload=%s system=%s far=%d%% threads=%d\n", ran.name().c_str(),
              opt.kernel.name.c_str(), far, ran.num_threads());
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
