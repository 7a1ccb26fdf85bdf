// Figure 4: sequential-scan microbenchmark (48 threads) — Hermit and DiLOS
// vs. their respective "ideal" baselines. Even the friendliest (regular,
// prefetchable) pattern collapses on the baselines because the fault-in path
// starves for free pages.
#include "bench/app_sweep.h"
#include "src/workloads/seqscan.h"

int main() {
  using namespace magesim;
  PrintBanner("Figure 4: sequential scan vs ideal, 48 threads (M pages/s)");

  uint64_t pages = Scaled(48 * 1024);
  auto make = [pages] {
    return std::make_unique<SeqScanWorkload>(
        SeqScanWorkload::Options{.region_pages = pages, .threads = 48, .passes = 2});
  };
  std::vector<int> fars = {0, 10, 20, 30, 40, 50, 60, 70, 80};

  auto ideal = SweepSystem(IdealConfig(), make, fars);
  auto hermit = SweepSystem(HermitConfig(), make, fars);
  auto dilos = SweepSystem(DilosConfig(), make, fars);

  // Convert jobs/hour back to page throughput for the table.
  double pages_per_job = static_cast<double>(pages) * 2;
  auto mops = [&](const SweepPoint& p) {
    return p.jobs_per_hour / 3600.0 * pages_per_job / 1e6;
  };

  Table t({"far%", "ideal(Mops)", "hermit(Mops)", "hermit-norm", "dilos(Mops)", "dilos-norm"});
  for (size_t i = 0; i < fars.size(); ++i) {
    t.AddRow({std::to_string(fars[i]), Table::Num(mops(ideal[i])), Table::Num(mops(hermit[i])),
              Table::Pct(hermit[i].normalized * 100), Table::Num(mops(dilos[i])),
              Table::Pct(dilos[i].normalized * 100)});
  }
  PrintFigureTable(t);
  return 0;
}
