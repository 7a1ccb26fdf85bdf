// Figure 3: GapBS PageRank and XSBench throughput (48 threads) — the "ideal"
// far-memory system vs. Hermit, plus the paper's analytic ideal model (§3.1)
// evaluated on the simulated ideal system's fault counts.
#include "bench/app_sweep.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/xsbench.h"

int main() {
  using namespace magesim;
  PrintBanner("Figure 3: 'ideal' far-memory vs Hermit, 48 threads");

  std::vector<int> fars = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90};

  auto run_pair = [&](const std::string& title, const WorkloadFactory& make) {
    auto ideal = SweepSystem(IdealConfig(), make, fars);
    auto hermit = SweepSystem(HermitConfig(), make, fars);
    Table t({"far%", "ideal", "analytic-ideal", "hermit"});
    for (size_t i = 0; i < fars.size(); ++i) {
      double analytic =
          i == 0 ? 1.0
                 : IdealThroughputFraction(ideal[i].faults_per_core,
                                           ideal[i].local_seconds, UsToNs(3.9));
      t.AddRow({std::to_string(fars[i]), Table::Pct(ideal[i].normalized * 100),
                Table::Pct(analytic * 100), Table::Pct(hermit[i].normalized * 100)});
    }
    std::printf("\n%s (normalized throughput)\n", title.c_str());
    PrintFigureTable(t);
  };

  run_pair("(a) GapBS PageRank", PageRankFactory({.scale = 17, .iterations = 3, .threads = 48}));
  run_pair("(b) XSBench", [] {
    return std::make_unique<XsBenchWorkload>(
        XsBenchWorkload::Options{.gridpoints = Scaled(1 << 19),
                                 .lookups_per_thread = Scaled(4000),
                                 .threads = 48});
  });
  return 0;
}
