// perf_fig05_sweep: simulator throughput on the Figure 5 path-scaling sweep.
//
// The headline scoreboard for "makes a hot path measurably faster": the
// fault-in-only and fault-in+eviction legs of fig05 (MAGE-library config) at
// 1..48 threads, one rep = the whole sweep. The per-config simulated results
// (faults, M ops/s) are deterministic and pinned in the "sim" group; the
// headline is `ns_per_fault`, wall ns per simulated fault over the sweep
// (best rep). events/sec and ns/event price an event, not the simulation.
#include <cstdint>
#include <string>
#include <vector>

#include "bench/perf_common.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

struct SweepOutcome {
  uint64_t events = 0;  // total engine events across all runs
  uint64_t faults = 0;
  std::vector<std::pair<std::string, uint64_t>> per_config;  // deterministic pins
};

SweepOutcome RunSweep() {
  SweepOutcome out;
  const KernelConfig cfg = MageLibConfig();
  const std::vector<int> threads = {1, 8, 24, 48};
  for (int n : threads) {
    {  // Fault-in only (fig05 left half).
      FaultOnlySeqRead wl({.pages_per_thread = Scaled(1500), .threads = n});
      FarMemoryMachine::Options opt;
      opt.kernel = cfg;
      opt.local_mem_ratio = 1.0;
      FarMemoryMachine m(opt, wl);
      RunResult r = m.Run();
      out.events += m.engine().events_processed();
      out.faults += r.faults;
      out.per_config.emplace_back("fault_t" + std::to_string(n), r.faults);
    }
    {  // Fault-in + eviction (fig05 right half).
      SeqScanWorkload wl({.region_pages = Scaled(800) * static_cast<uint64_t>(n),
                          .threads = n,
                          .passes = 1000,
                          .compute_per_page_ns = 100});
      FarMemoryMachine::Options opt;
      opt.kernel = cfg;
      opt.local_mem_ratio = 0.5;
      opt.time_limit = 25 * kMillisecond;
      opt.stats_warmup = 8 * kMillisecond;
      FarMemoryMachine m(opt, wl);
      RunResult r = m.Run();
      out.events += m.engine().events_processed();
      out.faults += r.faults;
      out.per_config.emplace_back("evict_t" + std::to_string(n), r.faults);
    }
  }
  return out;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  BenchReps reps = BenchRepsFromEnv(/*default_warmup=*/1, /*default_measure=*/3);

  SweepOutcome out;
  for (int i = 0; i < reps.warmup; ++i) out = RunSweep();
  std::vector<uint64_t> rep_ns;
  for (int i = 0; i < reps.measure; ++i) {
    uint64_t t0 = WallNowNs();
    SweepOutcome got = RunSweep();
    rep_ns.push_back(WallNowNs() - t0);
    if (out.events != 0 && got.events != out.events) {
      std::fprintf(stderr, "perf_fig05_sweep: nondeterministic rep\n");
      return 1;
    }
    out = got;
  }

  PerfReport r("fig05_sweep", reps);
  r.Sim("events_per_rep", out.events);
  r.Sim("faults_per_rep", out.faults);
  for (const auto& [key, v] : out.per_config) {
    r.Sim("faults." + key, v);
  }
  r.WallNsPer(rep_ns, out.faults, "fault");
  r.WallTimes(rep_ns, out.events, "events");
  r.Write();
  return 0;
}
