// Figure 14: available fault throughput — sequential read, prefetch off, 30%
// local memory, 48 threads. Reports p99 fault latency, synchronous-eviction
// count, and achieved network utilization. MAGE-Lib should approach the
// 192 Gbps wire limit with zero sync evictions.
#include "bench/bench_common.h"
#include "src/workloads/seqscan.h"

int main() {
  using namespace magesim;
  PrintBanner("Figure 14: available throughput at 30% local memory, 48 threads");

  Table t({"system", "read-Gbps", "%of-192", "p99-fault(us)", "sync-evictions", "faults"});
  for (const auto& cfg : AllSystemConfigs()) {
    SeqScanWorkload wl({.region_pages = Scaled(1500) * 48,
                        .threads = 48,
                        .passes = 1000,
                        .compute_per_page_ns = 100});
    FarMemoryMachine::Options opt;
    opt.kernel = cfg;
    opt.local_mem_ratio = 0.3;
    opt.time_limit = 60 * kMillisecond;
    opt.stats_warmup = 20 * kMillisecond;
    FarMemoryMachine m(opt, wl);
    RunResult r = m.Run();
    t.AddRow({cfg.name, Table::Num(r.nic_read_gbps, 1),
              Table::Pct(r.nic_read_gbps / 192.0 * 100),
              Table::Num(static_cast<double>(r.fault_latency.Percentile(99)) / 1000.0, 1),
              std::to_string(r.sync_evictions), std::to_string(r.faults)});
  }
  PrintFigureTable(t);
  std::printf("(paper: magelib 181 Gbps / p99 12 us, magelnx 139 Gbps / p99 31 us,\n"
              " dilos p99 82 us, hermit p99 255 us; magelib has zero sync evictions)\n");
  return 0;
}
