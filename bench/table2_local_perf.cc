// Table 2: throughput-bound applications at 100% local memory (no
// offloading). Isolates the virtualization/runtime overheads: Hermit runs
// bare-metal and wins slightly; the VM-based systems regress a few percent.
#include <functional>

#include "bench/app_sweep.h"
#include "src/workloads/gups.h"
#include "src/workloads/metis.h"
#include "src/workloads/seqscan.h"
#include "src/workloads/xsbench.h"

namespace magesim {
namespace {

double RunLocal(const KernelConfig& cfg, Workload& wl) {
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 1.0;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  // Ops/s rather than jobs/hour: ratios are identical for fixed-work jobs
  // and remain meaningful for fixed-duration ones (GUPS).
  return r.ops_per_sec;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Table 2: 100%-local performance (ops/s, % vs best)");

  struct AppRow {
    std::string name;
    std::function<std::unique_ptr<Workload>()> make;
  };
  std::vector<AppRow> apps = {
      {"gapbs", PageRankFactory({.scale = 17, .iterations = 3, .threads = 48})},
      {"xsbench",
       [] {
         return std::make_unique<XsBenchWorkload>(
             XsBenchWorkload::Options{.gridpoints = Scaled(1 << 19),
                                      .lookups_per_thread = Scaled(4000),
                                      .threads = 48});
       }},
      {"seqscan",
       [] {
         return std::make_unique<SeqScanWorkload>(SeqScanWorkload::Options{
             .region_pages = Scaled(48 * 1024), .threads = 48, .passes = 2});
       }},
      {"gups",
       [] {
         return std::make_unique<GupsWorkload>(GupsWorkload::Options{
             .total_pages = Scaled(32 * 1024),
             .threads = 48,
             .phase_change_at = 200 * kMillisecond,
             .run_for = 400 * kMillisecond});
       }},
      {"metis",
       [] {
         return std::make_unique<MetisWorkload>(MetisWorkload::Options{
             .input_pages = Scaled(16 * 1024),
             .intermediate_pages = Scaled(12 * 1024),
             .threads = 48});
       }},
  };

  std::vector<KernelConfig> systems = {MageLibConfig(), MageLnxConfig(), DilosConfig(),
                                       HermitConfig()};
  Table t({"app", "magelib", "magelnx", "dilos", "hermit(best)"});
  for (const auto& app : apps) {
    std::map<std::string, double> jph;
    double best = 0;
    for (const auto& cfg : systems) {
      auto wl = app.make();
      jph[cfg.name] = RunLocal(cfg, *wl);
      best = std::max(best, jph[cfg.name]);
    }
    auto cell = [&](const std::string& n) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.0f (%+.1f%%)", jph[n], (jph[n] / best - 1) * 100);
      return std::string(buf);
    };
    t.AddRow({app.name, cell("magelib"), cell("magelnx"), cell("dilos"), cell("hermit")});
  }
  t.Print();
  std::printf("(paper: Hermit fastest on bare metal; VM systems regress 2-8.6%%)\n");
  return 0;
}
