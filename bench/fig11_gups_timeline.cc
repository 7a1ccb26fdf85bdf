// Figure 11: GUPS throughput timeline with a working-set phase change.
// Baselines nearly stall for seconds after the change; MAGE dips briefly and
// recovers because its eviction path drains the old working set fast.
//
// Also emits BENCH_gups_timeline.json (bench/perf_common.h): every printed
// rate plus the engine's event count in the "sim" group, the wall time of a
// whole four-system sweep in the "wall" group. MAGESIM_BENCH_REPS sets the
// sweep count (default: one, no warmup).
#include "bench/perf_common.h"
#include "src/workloads/gups.h"

namespace magesim {
namespace {

constexpr SimTime kBucket = 20 * kMillisecond;

// Throughput per 20 ms bucket from the machine's periodic sampler (windowed
// ops rate over each sampling interval), not the workload's private timeline.
// `events` accumulates the machine's engine event count.
std::vector<double> RunTimeline(const KernelConfig& cfg, SimTime phase_at, SimTime run_for,
                                uint64_t pages, uint64_t* events) {
  GupsWorkload wl({.total_pages = pages,
                   .threads = 48,
                   .zipf_theta = 0.6,  // spread the hot set across region B
                   .phase_change_at = phase_at,
                   .run_for = run_for});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 0.85;  // paper: 85% local memory
  opt.time_limit = run_for + 100 * kMillisecond;
  opt.metrics.enabled = true;
  opt.metrics.sample_interval = kBucket;
  FarMemoryMachine m(opt, wl);
  m.Run();
  *events += m.engine().events_processed();
  // Sample k (at t = k*kBucket) carries the windowed rate over bucket k-1.
  const auto& samples = m.sampler()->samples();
  size_t buckets = static_cast<size_t>(run_for / kBucket);
  std::vector<double> rates;
  for (size_t i = 0; i < buckets; ++i) {
    rates.push_back(i + 1 < samples.size() ? samples[i + 1].ops_rate_per_s / 1e6 : 0.0);
  }
  return rates;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  PrintBanner("Figure 11: GUPS timeline, phase change at t=0.6s (M updates/s, 20ms buckets)");

  SimTime phase_at = 600 * kMillisecond;
  SimTime run_for = 1200 * kMillisecond;
  uint64_t pages = Scaled(192 * 1024);

  BenchReps reps = BenchRepsFromEnv(/*default_warmup=*/0, /*default_measure=*/1);
  std::map<std::string, std::vector<double>> res;
  uint64_t events = 0;
  std::vector<uint64_t> rep_ns;
  for (int i = 0; i < reps.warmup + reps.measure; ++i) {
    std::map<std::string, std::vector<double>> got;
    uint64_t got_events = 0;
    uint64_t t0 = WallNowNs();
    for (const auto& cfg : AllSystemConfigs()) {
      got[cfg.name] = RunTimeline(cfg, phase_at, run_for, pages, &got_events);
    }
    if (i >= reps.warmup) rep_ns.push_back(WallNowNs() - t0);
    if (i > 0 && (got != res || got_events != events)) {
      std::fprintf(stderr, "fig11_gups_timeline: nondeterministic rep\n");
      return 1;
    }
    res = std::move(got);
    events = got_events;
  }

  Table t({"t(s)", "magelib", "magelnx", "dilos", "hermit"});
  size_t n = res["magelib"].size();
  for (size_t i = 0; i < n; ++i) {
    t.AddRow({Table::Num(0.02 * static_cast<double>(i), 2), Table::Num(res["magelib"][i]),
              Table::Num(res["magelnx"][i]), Table::Num(res["dilos"][i]),
              Table::Num(res["hermit"][i])});
  }
  t.Print();

  PerfReport r("gups_timeline", reps);
  for (const auto& [name, rates] : res) {
    for (size_t i = 0; i < rates.size(); ++i) {
      char key[48];
      std::snprintf(key, sizeof(key), "%s_mups_%04zums", name.c_str(), i * 20);
      r.SimF(key, rates[i]);
    }
  }

  // Phase-change damage: deepest dip and total lost work after the change.
  std::printf("\n%-8s %12s %16s\n", "system", "deepest-dip", "lost-updates(M)");
  for (auto& [name, rates] : res) {
    size_t pc = static_cast<size_t>(phase_at / (20 * kMillisecond));
    double pre = 0;
    for (size_t i = pc / 2; i < pc; ++i) pre += rates[i];
    pre /= static_cast<double>(pc - pc / 2);
    double min_rate = pre;
    double deficit = 0;
    for (size_t i = pc; i < rates.size(); ++i) {
      min_rate = std::min(min_rate, rates[i]);
      if (rates[i] < pre) deficit += (pre - rates[i]) * 0.02;
    }
    double dip = pre > 0 ? (1 - min_rate / pre) * 100 : 0;
    std::printf("  %-8s %10.0f%% %16.2f\n", name.c_str(), dip, deficit);
    r.SimF(name + "_deepest_dip_pct", dip);
    r.SimF(name + "_lost_mupdates", deficit);
  }
  std::printf("(the paper's 32 GB working set stalls baselines for ~2 s; at simulation\n"
              " scale the transition is shorter but the relative damage ordering holds)\n");
  r.Sim("events_per_rep", events);
  r.WallTimes(rep_ns, events, "events");
  r.Write();
  return 0;
}
