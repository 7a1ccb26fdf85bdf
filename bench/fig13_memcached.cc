// Figure 13: Memcached under a USR-like load (99.8% GET, Zipf-0.99 keys,
// 24 server threads). (a) p99 latency vs. local-memory ratio at fixed load;
// (b) p99 latency vs. offered load at 50% local memory.
#include "bench/bench_common.h"
#include "src/workloads/memcached.h"

namespace magesim {
namespace {

struct McResult {
  double p99_us;
  double achieved_kops;
};

McResult RunMc(const KernelConfig& cfg, double local_ratio, double load_ops) {
  MemcachedWorkload wl({.num_keys = Scaled(1 << 19),
                        .load_ops_per_sec = load_ops,
                        .duration = 1 * kSecond});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = local_ratio;
  opt.time_limit = 1200 * kMillisecond;
  opt.stats_warmup = 200 * kMillisecond;
  FarMemoryMachine m(opt, wl);
  m.Run();
  return {static_cast<double>(wl.request_latency().Percentile(99)) / 1000.0,
          wl.AchievedOpsPerSec() / 1000.0};
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Figure 13: Memcached tail latency (24 server threads)");

  double fixed_load = 300000 * BenchScale();

  std::printf("\n(a) p99 latency (us) vs far memory at fixed load (%.0f Kops/s)\n",
              fixed_load / 1000);
  Table a({"far%", "magelib", "magelnx", "dilos", "hermit"});
  for (int far : {0, 10, 20, 30, 40, 50, 60, 70, 80}) {
    std::vector<std::string> row{std::to_string(far)};
    for (const auto& cfg : {MageLibConfig(), MageLnxConfig(), DilosConfig(), HermitConfig()}) {
      row.push_back(Table::Num(RunMc(cfg, 1.0 - far / 100.0, fixed_load).p99_us, 1));
    }
    a.AddRow(row);
  }
  PrintFigureTable(a);

  std::printf("\n(b) p99 latency (us) vs offered load at 50%% local memory\n");
  Table b({"load(Kops)", "magelib", "magelnx", "dilos", "hermit"});
  for (double load : {100e3, 200e3, 300e3, 400e3, 500e3, 600e3}) {
    double l = load * BenchScale();
    std::vector<std::string> row{Table::Num(l / 1000, 0)};
    for (const auto& cfg : {MageLibConfig(), MageLnxConfig(), DilosConfig(), HermitConfig()}) {
      McResult r = RunMc(cfg, 0.5, l);
      row.push_back(Table::Num(r.p99_us, 1));
    }
    b.AddRow(row);
  }
  PrintFigureTable(b);
  return 0;
}
