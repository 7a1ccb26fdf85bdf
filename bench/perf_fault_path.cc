// perf_fault_path: end-to-end fault-path cost (wall ns per simulated fault).
//
// One canonical fault+evict scenario on the MAGE-library config: a sequential
// scan at 50% far memory where steady state makes every access a major fault
// and every fault forces an eviction. The simulated outcome (faults, evicted
// pages, events, simulated ns) is deterministic. The headline is
// `ns_per_fault` (best rep); the per-event numbers price an event, not the
// simulation, and read worse whenever events are removed.
//
// With MAGESIM_SPANS=1 the machine runs with span tracing installed and the
// report is named fault_path_spans — tracking the enabled-overhead of the
// span tracer against the fault_path baseline.
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "bench/perf_common.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

struct Outcome {
  uint64_t faults = 0;
  uint64_t evicted = 0;
  uint64_t events = 0;
  uint64_t sim_ns = 0;
};

Outcome RunOnce() {
  SeqScanWorkload wl({.region_pages = Scaled(1200) * 16,
                      .threads = 16,
                      .passes = 1000,
                      .compute_per_page_ns = 100});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.time_limit = 60 * kMillisecond;
  opt.stats_warmup = 20 * kMillisecond;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  Outcome o;
  o.faults = r.faults;
  o.evicted = r.evicted_pages;
  o.events = m.engine().events_processed();
  o.sim_ns = static_cast<uint64_t>(r.sim_seconds * 1e9 + 0.5);
  return o;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  BenchReps reps = BenchRepsFromEnv(/*default_warmup=*/1, /*default_measure=*/5);

  Outcome out;
  for (int i = 0; i < reps.warmup; ++i) out = RunOnce();
  std::vector<uint64_t> rep_ns;
  for (int i = 0; i < reps.measure; ++i) {
    uint64_t t0 = WallNowNs();
    Outcome got = RunOnce();
    rep_ns.push_back(WallNowNs() - t0);
    if (out.events != 0 && got.events != out.events) {
      std::fprintf(stderr, "perf_fault_path: nondeterministic rep\n");
      return 1;
    }
    out = got;
  }

  const char* spans_env = std::getenv("MAGESIM_SPANS");
  bool spans_on = spans_env != nullptr && spans_env[0] != '0';
  PerfReport r(spans_on ? "fault_path_spans" : "fault_path", reps);
  r.Sim("faults_per_rep", out.faults);
  r.Sim("evicted_pages_per_rep", out.evicted);
  r.Sim("events_per_rep", out.events);
  r.Sim("sim_ns_per_rep", out.sim_ns);
  r.WallNsPer(rep_ns, out.faults, "fault");
  r.WallTimes(rep_ns, out.events, "events");
  if (const uint64_t best = BestRepNs(rep_ns); best > 0) {
    r.WallF("faults_per_sec",
            static_cast<double>(out.faults) * 1e9 / static_cast<double>(best));
  }
  r.Write();
  return 0;
}
