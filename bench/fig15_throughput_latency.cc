// Figure 15: throughput-latency curves vs. raw RDMA reads. Offered fault
// load is swept via thread count; the raw-RDMA curve posts open-loop reads at
// increasing rates with four background writer threads for parity with the
// systems' eviction traffic.
#include "bench/bench_common.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

struct Point {
  double mops;
  double p99_us;
};

Point RunSystem(const KernelConfig& cfg, int threads) {
  SeqScanWorkload wl({.region_pages = Scaled(1200) * static_cast<uint64_t>(threads),
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
  return {r.fault_mops, static_cast<double>(r.fault_latency.Percentile(99)) / 1000.0};
}

// Raw RDMA: open-loop Poisson reads at `rate_mops` with 4 saturating
// writers for parity with the systems' eviction traffic (§6.4).
Task<> RecordCompletion(std::shared_ptr<RdmaCompletion> c, Histogram& lat, SimTime posted) {
  co_await c->Wait();
  lat.Record(Engine::current().now() - posted);
}

Point RunRawRdma(double rate_mops) {
  Engine eng;
  RdmaNic nic(BareMetalParams());
  Histogram lat;
  constexpr SimTime kDeadline = 30 * kMillisecond;
  auto reader = [](RdmaNic& nic, Histogram& lat, double rate_mops) -> Task<> {
    Rng rng(7);
    double mean_interarrival_ns = 1000.0 / rate_mops;  // M ops/s == ops/us
    Engine& eng = Engine::current();
    while (eng.now() < kDeadline) {
      co_await Delay{static_cast<SimTime>(rng.NextExponential(mean_interarrival_ns)) + 1};
      // Open loop: post and move on; completions are recorded asynchronously.
      eng.Spawn(RecordCompletion(nic.PostRead(kPageSize), lat, eng.now()));
    }
  };
  auto writer = [](RdmaNic& nic) -> Task<> {
    while (Engine::current().now() < kDeadline) {
      co_await nic.Write(kPageSize);
    }
  };
  eng.Spawn(reader(nic, lat, rate_mops));
  for (int i = 0; i < 4; ++i) eng.Spawn(writer(nic));
  eng.Run();
  return {static_cast<double>(lat.count()) / (NsToSec(kDeadline) * 1e6),
          static_cast<double>(lat.Percentile(99)) / 1000.0};
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Figure 15: throughput vs p99 latency (fault path vs raw RDMA)");

  Table t({"series", "Mops", "p99(us)"});
  for (double rate : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 5.8}) {
    Point p = RunRawRdma(rate);
    t.AddRow({"raw-rdma", Table::Num(p.mops), Table::Num(p.p99_us, 1)});
  }
  for (const auto& cfg : AllSystemConfigs()) {
    for (int threads : {4, 8, 16, 24, 32, 40, 48}) {
      Point p = RunSystem(cfg, threads);
      t.AddRow({cfg.name, Table::Num(p.mops), Table::Num(p.p99_us, 1)});
    }
  }
  PrintFigureTable(t);
  std::printf("(magelib should hold a flat tail into saturation: its fault path\n"
              " back-pressures the NIC instead of overrunning it)\n");
  return 0;
}
