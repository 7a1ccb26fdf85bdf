// Figure 7: average TLB shootdown latency and per-IPI delivery latency in the
// sequential-read microbenchmark as thread count grows. The inflection past
// 28 threads is the cross-socket boundary; the growth is IPI queueing.
#include "bench/bench_common.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

RunResult RunCase(const KernelConfig& cfg, int threads) {
  SeqScanWorkload wl({.region_pages = Scaled(1000) * static_cast<uint64_t>(threads),
                      .threads = threads,
                      .passes = 1000,
                      .compute_per_page_ns = 100});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 0.5;
  opt.time_limit = 30 * kMillisecond;
  opt.stats_warmup = 10 * kMillisecond;
  FarMemoryMachine m(opt, wl);
  return m.Run();
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Figure 7: TLB shootdown and IPI delivery latency vs threads (us)");

  Table t({"threads", "hermit-shootdown", "hermit-ipi", "dilos-shootdown", "dilos-ipi",
           "magelib-shootdown", "magelib-ipi"});
  for (int threads : {2, 8, 16, 24, 28, 32, 40, 48}) {
    RunResult h = RunCase(HermitConfig(), threads);
    RunResult d = RunCase(DilosConfig(), threads);
    RunResult m = RunCase(MageLibConfig(), threads);
    t.AddRow({std::to_string(threads), Table::Num(h.tlb_shootdown_latency.mean() / 1000.0),
              Table::Num(h.ipi_delivery_latency.mean() / 1000.0),
              Table::Num(d.tlb_shootdown_latency.mean() / 1000.0),
              Table::Num(d.ipi_delivery_latency.mean() / 1000.0),
              Table::Num(m.tlb_shootdown_latency.mean() / 1000.0),
              Table::Num(m.ipi_delivery_latency.mean() / 1000.0)});
  }
  PrintFigureTable(t);
  return 0;
}
