// Figure 5: fault-in-only vs fault-in-with-eviction throughput as thread
// count grows. Paper: Hermit and DiLOS saturate at 24-28 threads far below
// the 5.83 M ops/s NIC-limited ideal; eviction makes it worse.
#include "bench/bench_common.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

double FaultOnlyMops(const KernelConfig& cfg, int threads, uint64_t pages_per_thread) {
  FaultOnlySeqRead wl({.pages_per_thread = pages_per_thread, .threads = threads});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 1.0;  // pages pre-evicted by the workload itself
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  return r.fault_mops;
}

double FaultEvictMops(const KernelConfig& cfg, int threads, uint64_t pages) {
  // Sequential page-granularity reads with 50% memory offload: in steady
  // state every access is a major fault and every fault forces an eviction.
  SeqScanWorkload wl({.region_pages = pages,
                      .threads = threads,
                      .passes = 1000,
                      .compute_per_page_ns = 100});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 0.5;
  opt.time_limit = 45 * kMillisecond;
  opt.stats_warmup = 15 * kMillisecond;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  return r.fault_mops;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Figure 5: fault-in vs fault-in+eviction throughput scaling (M ops/s)");
  std::printf("ideal limit (192 Gbps / 4 KB): 5.83 M ops/s\n\n");

  uint64_t per_thread = Scaled(2500);
  std::vector<int> threads = {1, 4, 8, 16, 24, 32, 40, 48};
  std::vector<KernelConfig> systems = {HermitConfig(), DilosConfig(), MageLibConfig(),
                                       MageLnxConfig()};

  Table t({"threads", "hermit-fault", "hermit-evict", "dilos-fault", "dilos-evict",
           "magelib-fault", "magelib-evict", "magelnx-fault", "magelnx-evict"});
  for (int n : threads) {
    std::vector<std::string> row{std::to_string(n)};
    for (auto& cfg : systems) {
      double fo = FaultOnlyMops(cfg, n, per_thread);
      double fe = FaultEvictMops(cfg, n, Scaled(1200) * static_cast<uint64_t>(n));
      row.push_back(Table::Num(fo));
      row.push_back(Table::Num(fe));
    }
    t.AddRow(row);
  }
  PrintFigureTable(t);
  return 0;
}
