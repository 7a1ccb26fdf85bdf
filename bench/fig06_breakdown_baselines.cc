// Figure 6: average fault-handler latency breakdown for DiLOS and Hermit at
// 24 and 48 threads with active eviction. At low thread count RDMA dominates;
// at 48 threads TLB (sync-eviction shootdowns), page accounting, and
// allocation blow up.
#include <map>

#include "bench/bench_common.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

// Per-category mean latency read back from the machine's metrics registry
// (the published fault_breakdown.* counters), not RunResult's accumulators.
struct CaseResult {
  std::map<std::string, double> us_per_fault;
  double mean_fault_us = 0;
};

CaseResult RunCase(const KernelConfig& cfg, int threads,
                   const std::vector<std::string>& cats) {
  SeqScanWorkload wl({.region_pages = Scaled(1200) * static_cast<uint64_t>(threads),
                      .threads = threads,
                      .passes = 1000,
                      .compute_per_page_ns = 100});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 0.5;
  opt.time_limit = 45 * kMillisecond;
  opt.stats_warmup = 15 * kMillisecond;
  opt.metrics.enabled = true;
  FarMemoryMachine m(opt, wl);
  m.Run();

  const MetricsRegistry& reg = *m.metrics();
  CaseResult out;
  uint64_t faults = reg.counter_value("kernel.faults");
  for (const std::string& c : cats) {
    uint64_t total_ns = reg.counter_value("fault_breakdown." + c + ".total_ns");
    out.us_per_fault[c] =
        faults == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(faults) / 1000.0;
  }
  if (const Histogram* h = reg.find_histogram("fault_latency_ns")) {
    out.mean_fault_us = h->mean() / 1000.0;
  }
  return out;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Figure 6: fault-handler latency breakdown, eviction active (us/fault)");

  const std::vector<std::string> cats = {"rdma", "tlb", "accounting", "alloc", "entry", "other"};
  Table t({"system", "threads", "rdma", "tlb", "accounting", "alloc", "entry", "other",
           "total(mean)"});
  for (const auto& cfg : {DilosConfig(), HermitConfig()}) {
    for (int threads : {24, 48}) {
      CaseResult r = RunCase(cfg, threads, cats);
      std::vector<std::string> row{cfg.name, std::to_string(threads)};
      for (const std::string& c : cats) {
        row.push_back(Table::Num(r.us_per_fault[c]));
      }
      row.push_back(Table::Num(r.mean_fault_us));
      t.AddRow(row);
    }
  }
  PrintFigureTable(t);
  std::printf("('tlb' in the fault handler = synchronous-eviction shootdowns; zero means\n"
              " eviction stayed asynchronous)\n");
  return 0;
}
