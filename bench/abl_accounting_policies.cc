// Ablation (design-space study beyond the paper's figures): page-accounting
// policy comparison on GapBS at 48 threads. Shows the §4.2.2 trade-off
// directly: centralized policies (global LRU, MGLRU, S3-FIFO) have better
// replacement signals but one lock; MAGE's partitioned FIFO trades accuracy
// for contention-free scaling.
#include "bench/app_sweep.h"
#include "src/workloads/pagerank.h"

int main() {
  using namespace magesim;
  PrintBanner("Ablation: page-accounting policies on MAGE-Lib (GapBS, 48 threads)");

  WorkloadFactory make = PageRankFactory({.scale = 17, .iterations = 3, .threads = 48});

  auto with_policy = [](AccountingPolicy p, const char* name) {
    KernelConfig cfg = MageLibConfig();
    cfg.accounting = p;
    cfg.name = name;
    return cfg;
  };
  std::vector<KernelConfig> configs = {
      with_policy(AccountingPolicy::kPartitionedFifo, "partitioned"),
      with_policy(AccountingPolicy::kGlobalLru, "global-lru"),
      with_policy(AccountingPolicy::kMgLru, "mglru"),
      with_policy(AccountingPolicy::kS3Fifo, "s3fifo"),
  };

  std::vector<int> fars = {0, 10, 30, 50, 70};
  Table t({"far%", "partitioned", "global-lru", "mglru", "s3fifo"});
  std::map<std::string, std::vector<SweepPoint>> res;
  for (const auto& cfg : configs) res[cfg.name] = SweepSystem(cfg, make, fars);
  for (size_t i = 0; i < fars.size(); ++i) {
    t.AddRow({std::to_string(fars[i]), Table::Pct(res["partitioned"][i].normalized * 100),
              Table::Pct(res["global-lru"][i].normalized * 100),
              Table::Pct(res["mglru"][i].normalized * 100),
              Table::Pct(res["s3fifo"][i].normalized * 100)});
  }
  PrintFigureTable(t);

  std::printf("\nmajor faults at 30%% far memory (replacement accuracy):\n");
  for (const auto& cfg : configs) {
    std::printf("  %-12s %llu faults\n", cfg.name.c_str(),
                static_cast<unsigned long long>(res[cfg.name][2].faults));
  }
  return 0;
}
