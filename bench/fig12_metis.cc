// Figure 12: Metis-style MapReduce with an explicit phase change. Reports
// per-phase throughput (jobs/hour of that phase) vs. offloading; the reduce
// phase exposes how fast each system drains the previous working set.
#include "bench/bench_common.h"
#include "src/workloads/metis.h"

namespace magesim {
namespace {

struct PhaseResult {
  double map_jph;
  double reduce_jph;
};

PhaseResult RunMetis(const KernelConfig& cfg, double local_ratio) {
  MetisWorkload wl({.input_pages = Scaled(24 * 1024),
                    .intermediate_pages = Scaled(16 * 1024),
                    .threads = 48});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = local_ratio;
  FarMemoryMachine m(opt, wl);
  m.Run();
  double map_s = NsToSec(wl.map_done_at());
  double red_s = NsToSec(wl.reduce_done_at() - wl.map_done_at());
  return {map_s > 0 ? 3600.0 / map_s : 0, red_s > 0 ? 3600.0 / red_s : 0};
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Figure 12: Metis map/reduce phase throughput vs offloading (normalized)");

  std::vector<int> fars = {0, 10, 20, 40, 60, 80};
  std::map<std::string, std::vector<PhaseResult>> res;
  for (const auto& cfg : AllSystemConfigs()) {
    for (int far : fars) {
      res[cfg.name].push_back(RunMetis(cfg, 1.0 - far / 100.0));
    }
  }

  auto print_phase = [&](const char* title, bool reduce) {
    Table t({"far%", "magelib", "magelnx", "dilos", "hermit"});
    for (size_t i = 0; i < fars.size(); ++i) {
      std::vector<std::string> row{std::to_string(fars[i])};
      for (const char* name : {"magelib", "magelnx", "dilos", "hermit"}) {
        const auto& v = res[name];
        double base = reduce ? v[0].reduce_jph : v[0].map_jph;
        double cur = reduce ? v[i].reduce_jph : v[i].map_jph;
        row.push_back(Table::Pct(base > 0 ? cur / base * 100 : 0));
      }
      t.AddRow(row);
    }
    std::printf("\n%s\n", title);
    PrintFigureTable(t);
  };
  print_phase("(a) map phase", false);
  print_phase("(b) reduce phase (after the working-set change)", true);
  return 0;
}
