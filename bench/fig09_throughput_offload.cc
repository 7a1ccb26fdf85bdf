// Figure 9: application throughput (GapBS PageRank, XSBench) with varying
// local memory at 48 threads for all four systems. The paper's main
// throughput-offloading result.
#include "bench/app_sweep.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/xsbench.h"

int main() {
  using namespace magesim;
  PrintBanner("Figure 9: throughput vs local memory, 48 threads");

  std::vector<int> fars = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90};
  std::vector<KernelConfig> systems = AllSystemConfigs();

  auto run_app = [&](const std::string& title, const WorkloadFactory& make) {
    std::map<std::string, std::vector<SweepPoint>> res;
    for (const auto& cfg : systems) res[cfg.name] = SweepSystem(cfg, make, fars);
    Table t({"far%", "magelib", "magelnx", "dilos", "hermit"});
    for (size_t i = 0; i < fars.size(); ++i) {
      t.AddRow({std::to_string(fars[i]), Table::Pct(res["magelib"][i].normalized * 100),
                Table::Pct(res["magelnx"][i].normalized * 100),
                Table::Pct(res["dilos"][i].normalized * 100),
                Table::Pct(res["hermit"][i].normalized * 100)});
    }
    std::printf("\n%s (normalized throughput, 100%% = all-local)\n", title.c_str());
    PrintFigureTable(t);

    // "Offloadable memory at a 30% throughput-drop SLO" summary (§6.2).
    for (const auto& cfg : systems) {
      int offloadable = 0;
      for (size_t i = 0; i < fars.size(); ++i) {
        if (res[cfg.name][i].normalized >= 0.70) offloadable = fars[i];
      }
      std::printf("  %-8s offloadable at 30%%-drop SLO: %d%%\n", cfg.name.c_str(), offloadable);
    }
  };

  run_app("(a) GapBS PageRank", PageRankFactory({.scale = 17, .iterations = 3, .threads = 48}));
  run_app("(b) XSBench", [] {
    return std::make_unique<XsBenchWorkload>(
        XsBenchWorkload::Options{.gridpoints = Scaled(1 << 19),
                                 .lookups_per_thread = Scaled(4000),
                                 .threads = 48});
  });
  return 0;
}
