// Figure 17: technique breakdown. Starting from a DiLOS-like baseline, apply
// MAGE's techniques cumulatively: PIPELINED (always-async cross-batch
// pipelined eviction), LRU# (partitioned accounting), MULTILAYER (staged
// allocator) — the last configuration is MAGE-Lib.
#include "bench/app_sweep.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/xsbench.h"

namespace magesim {
namespace {

std::vector<KernelConfig> AblationLadder() {
  KernelConfig base = DilosConfig();
  base.name = "baseline";

  KernelConfig pipelined = base;
  pipelined.name = "+pipelined";
  pipelined.pipelined_eviction = true;
  pipelined.allow_sync_eviction = false;  // P1: always-asynchronous decoupling
  pipelined.evict_batch_pages = 256;
  pipelined.evictor_wake_cost_ns = 0;

  KernelConfig lru = pipelined;
  lru.name = "+lru-part";
  lru.accounting = AccountingPolicy::kPartitionedFifo;  // P3 on accounting
  lru.accounting_partitions = 8;

  KernelConfig multi = lru;
  multi.name = "+multilayer";  // == MAGE-Lib modulo fault-path trims
  multi.allocator = AllocStrategy::kMultilayer;

  return {base, pipelined, lru, multi};
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Figure 17: cumulative technique ablation (normalized throughput)");

  std::vector<int> fars = {0, 10, 20, 30, 40, 50, 60, 70};
  auto ladder = AblationLadder();

  auto run_app = [&](const std::string& title, const WorkloadFactory& make) {
    std::map<std::string, std::vector<SweepPoint>> res;
    for (const auto& cfg : ladder) res[cfg.name] = SweepSystem(cfg, make, fars);
    Table t({"far%", "baseline", "+pipelined", "+lru-part", "+multilayer"});
    for (size_t i = 0; i < fars.size(); ++i) {
      t.AddRow({std::to_string(fars[i]), Table::Pct(res["baseline"][i].normalized * 100),
                Table::Pct(res["+pipelined"][i].normalized * 100),
                Table::Pct(res["+lru-part"][i].normalized * 100),
                Table::Pct(res["+multilayer"][i].normalized * 100)});
    }
    std::printf("\n%s\n", title.c_str());
    t.Print();
    // Offloadable memory under a 20%-drop SLO (the paper's summary metric).
    for (const auto& cfg : ladder) {
      int offloadable = 0;
      for (size_t i = 0; i < fars.size(); ++i) {
        if (res[cfg.name][i].normalized >= 0.80) offloadable = fars[i];
      }
      std::printf("  %-12s offloadable at 20%%-drop SLO: %d%%\n", cfg.name.c_str(),
                  offloadable);
    }
  };

  run_app("(a) GapBS PageRank, 48 threads",
          PageRankFactory({.scale = 17, .iterations = 3, .threads = 48}));
  run_app("(b) XSBench, 48 threads", [] {
    return std::make_unique<XsBenchWorkload>(
        XsBenchWorkload::Options{.gridpoints = Scaled(1 << 19),
                                 .lookups_per_thread = Scaled(4000),
                                 .threads = 48});
  });
  return 0;
}
