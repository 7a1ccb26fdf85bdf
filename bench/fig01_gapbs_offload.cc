// Figure 1: GapBS PageRank (48 threads) throughput vs. percentage of far
// memory for every system plus the ideal baseline. The paper's headline
// figure: MAGE tracks the ideal curve where DiLOS/Hermit collapse by 10%
// offloading.
#include "bench/app_sweep.h"
#include "src/workloads/pagerank.h"

int main() {
  using namespace magesim;
  PrintBanner("Figure 1: GapBS PageRank throughput vs %% far memory, 48 threads");

  int scale = 17 + static_cast<int>(BenchScale() > 1.5) - static_cast<int>(BenchScale() < 0.75);
  WorkloadFactory make = PageRankFactory({.scale = scale, .iterations = 4, .threads = 48});

  std::vector<int> fars = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90};
  std::vector<KernelConfig> systems = {IdealConfig(), MageLibConfig(), MageLnxConfig(),
                                       DilosConfig(), HermitConfig()};

  std::map<std::string, std::vector<SweepPoint>> results;
  for (const auto& cfg : systems) {
    results[cfg.name] = SweepSystem(cfg, make, fars);
  }

  Table t({"far%", "ideal", "magelib", "magelnx", "dilos", "hermit"});
  for (size_t i = 0; i < fars.size(); ++i) {
    t.AddRow({std::to_string(fars[i]), Table::Pct(results["ideal"][i].normalized * 100),
              Table::Pct(results["magelib"][i].normalized * 100),
              Table::Pct(results["magelnx"][i].normalized * 100),
              Table::Pct(results["dilos"][i].normalized * 100),
              Table::Pct(results["hermit"][i].normalized * 100)});
  }
  std::printf("normalized throughput (100%% = all-local baseline of each system)\n");
  PrintFigureTable(t);

  // Key paper claims at 10% offloading: MAGE loses ~15-19%, DiLOS/Hermit
  // lose ~51-74%.
  std::printf("\ndrop at 10%% far memory: magelib %.0f%%, magelnx %.0f%%, dilos %.0f%%, "
              "hermit %.0f%% (paper: 15/19/51/74)\n",
              (1 - results["magelib"][1].normalized) * 100,
              (1 - results["magelnx"][1].normalized) * 100,
              (1 - results["dilos"][1].normalized) * 100,
              (1 - results["hermit"][1].normalized) * 100);
  return 0;
}
