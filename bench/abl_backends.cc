// Extension study (paper §8): MAGE's eviction/fault-path design is backend-
// agnostic. Run GapBS on three swap backends — RDMA far memory, NVMe SSD,
// and ZSwap — for MAGE-Lib vs Hermit. The MAGE advantage persists wherever
// software overheads (not the device) are the bottleneck.
#include "bench/app_sweep.h"
#include "src/workloads/pagerank.h"

namespace magesim {
namespace {

double NormalizedAt(const KernelConfig& cfg, const MachineParams& hw, int far,
                    const WorkloadFactory& make) {
  double base_jph = 0;
  for (int pass = 0; pass < 2; ++pass) {
    auto wl = make();
    FarMemoryMachine::Options opt;
    opt.kernel = cfg;
    opt.hw = hw;
    opt.local_mem_ratio = pass == 0 ? 1.0 : 1.0 - far / 100.0;
    FarMemoryMachine m(opt, *wl);
    RunResult r = m.Run();
    if (pass == 0) {
      base_jph = r.jobs_per_hour;
    } else {
      return base_jph > 0 ? r.jobs_per_hour / base_jph : 0;
    }
  }
  return 0;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Extension: swap backends (GapBS, 48 threads, 30% far memory)");

  WorkloadFactory make = PageRankFactory({.scale = 17, .iterations = 3, .threads = 48});

  struct Backend {
    const char* name;
    MachineParams hw;
  };
  std::vector<Backend> backends = {
      {"rdma-192g", VirtualizedParams()},
      {"nvme-ssd", NvmeBackendParams()},
      {"zswap", ZswapBackendParams()},
  };

  Table t({"backend", "magelib", "hermit", "mage-advantage"});
  for (const auto& b : backends) {
    double mage = NormalizedAt(MageLibConfig(), b.hw, 30, make);
    MachineParams hermit_hw = b.hw;
    hermit_hw.virtualized = false;  // Hermit runs bare-metal
    double hermit = NormalizedAt(HermitConfig(), hermit_hw, 30, make);
    t.AddRow({b.name, Table::Pct(mage * 100), Table::Pct(hermit * 100),
              Table::Num(hermit > 0 ? mage / hermit : 0, 2) + "x"});
  }
  PrintFigureTable(t);
  std::printf("(normalized throughput at 30%% offloading vs each system's all-local run)\n");
  return 0;
}
