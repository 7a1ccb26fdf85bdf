// Figure 10: the regular (prefetchable) sequential-scan pattern with and
// without prefetching. Prefetching only helps MAGE, whose eviction path can
// absorb the extra fault-in pressure; it barely helps DiLOS and hurts Hermit
// (sync eviction).
#include "bench/app_sweep.h"
#include "src/workloads/seqscan.h"

int main() {
  using namespace magesim;
  PrintBanner("Figure 10: sequential scan with/without prefetching, 48 threads");

  uint64_t pages = Scaled(48 * 1024);
  auto make = [pages] {
    return std::make_unique<SeqScanWorkload>(
        SeqScanWorkload::Options{.region_pages = pages, .threads = 48, .passes = 2});
  };

  auto with_prefetch = [](KernelConfig cfg) {
    cfg.prefetch = true;
    cfg.name += "+pf";
    return cfg;
  };

  std::vector<int> fars = {0, 10, 20, 30, 40, 50};
  std::vector<KernelConfig> systems = {
      IdealConfig(),          MageLibConfig(), with_prefetch(MageLibConfig()),
      DilosConfig(),          with_prefetch(DilosConfig()),
      HermitConfig(),         with_prefetch(HermitConfig())};

  std::map<std::string, std::vector<SweepPoint>> res;
  for (const auto& cfg : systems) res[cfg.name] = SweepSystem(cfg, make, fars);

  Table t({"far%", "ideal", "magelib", "magelib+pf", "dilos", "dilos+pf", "hermit",
           "hermit+pf"});
  for (size_t i = 0; i < fars.size(); ++i) {
    t.AddRow({std::to_string(fars[i]), Table::Pct(res["ideal"][i].normalized * 100),
              Table::Pct(res["magelib"][i].normalized * 100),
              Table::Pct(res["magelib+pf"][i].normalized * 100),
              Table::Pct(res["dilos"][i].normalized * 100),
              Table::Pct(res["dilos+pf"][i].normalized * 100),
              Table::Pct(res["hermit"][i].normalized * 100),
              Table::Pct(res["hermit+pf"][i].normalized * 100)});
  }
  PrintFigureTable(t);
  std::printf("\nmajor faults at 10%% far memory: magelib %llu -> magelib+pf %llu "
              "(paper: 1.2M -> 324K)\n",
              static_cast<unsigned long long>(res["magelib"][1].faults),
              static_cast<unsigned long long>(res["magelib+pf"][1].faults));
  return 0;
}
