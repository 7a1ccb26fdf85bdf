// Shared sweep machinery for the application figures (1, 3, 9, 17, 18b):
// runs a workload factory across systems and offloading ratios, reporting
// throughput normalized to the 100%-local baseline.
#ifndef MAGESIM_BENCH_APP_SWEEP_H_
#define MAGESIM_BENCH_APP_SWEEP_H_

#include <functional>
#include <map>
#include <memory>

#include "bench/bench_common.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/workload.h"

namespace magesim {

struct SweepPoint {
  int far_percent;
  double jobs_per_hour;
  double normalized;  // vs. this system's 100%-local run
  uint64_t faults;
  uint64_t sync_evictions;
  std::vector<uint64_t> faults_per_core;
  double local_seconds;  // T0 of the 100%-local run
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

// PageRank sweep points over one graph: generated here, once, and shared
// read-only by every workload the factory makes (each with its own ranks).
inline WorkloadFactory PageRankFactory(const PageRankWorkload::Options& opt) {
  std::shared_ptr<const CsrGraph> graph = PageRankWorkload::BuildGraph(opt);
  return [opt, graph] { return std::make_unique<PageRankWorkload>(opt, graph); };
}

// Runs `cfg` at each offload percent; point 0 defines the baseline.
inline std::vector<SweepPoint> SweepSystem(const KernelConfig& cfg, const WorkloadFactory& make,
                                           const std::vector<int>& far_percents,
                                           uint64_t seed = 1) {
  std::vector<SweepPoint> out;
  double base_jph = 0;
  double t0 = 0;
  {
    auto wl = make();
    FarMemoryMachine::Options opt;
    opt.kernel = cfg;
    opt.local_mem_ratio = 1.0;
    opt.seed = seed;
    FarMemoryMachine m(opt, *wl);
    RunResult r = m.Run();
    base_jph = r.jobs_per_hour;
    t0 = r.sim_seconds;
  }
  for (int far : far_percents) {
    if (far == 0) {
      out.push_back({0, base_jph, 1.0, 0, 0, {}, t0});
      continue;
    }
    auto wl = make();
    FarMemoryMachine::Options opt;
    opt.kernel = cfg;
    opt.local_mem_ratio = 1.0 - static_cast<double>(far) / 100.0;
    opt.seed = seed;
    FarMemoryMachine m(opt, *wl);
    RunResult r = m.Run();
    out.push_back({far, r.jobs_per_hour, base_jph > 0 ? r.jobs_per_hour / base_jph : 0, r.faults,
                   r.sync_evictions, r.faults_per_core, t0});
  }
  return out;
}

}  // namespace magesim

#endif  // MAGESIM_BENCH_APP_SWEEP_H_
