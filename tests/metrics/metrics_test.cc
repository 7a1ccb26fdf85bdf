// Unit tests for the metrics registry, sim-time profiler (phase attribution
// and per-lock wait totals), and the periodic sampler against hand-computed
// rates.
#include "src/metrics/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/metrics/profiler.h"
#include "src/metrics/sampler.h"
#include "src/metrics/stage.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace magesim {
namespace {

TEST(MetricsRegistryTest, RegistrationIsIdempotentAndHandlesShareCells) {
  MetricsRegistry reg;
  auto a = reg.Counter("kernel.faults");
  auto b = reg.Counter("kernel.faults");
  a.Add();
  b.Add(9);
  EXPECT_EQ(a.value(), 10u);
  EXPECT_EQ(reg.counter_value("kernel.faults"), 10u);
  EXPECT_EQ(reg.size(), 1u);

  auto g = reg.Gauge("run.ops_per_sec");
  g.Set(1.5);
  reg.Gauge("run.ops_per_sec").Add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge_value("run.ops_per_sec"), 2.0);

  auto h = reg.Hist("fault_latency_ns");
  h.Record(100);
  reg.Hist("fault_latency_ns").Record(300);
  ASSERT_NE(reg.find_histogram("fault_latency_ns"), nullptr);
  EXPECT_EQ(reg.find_histogram("fault_latency_ns")->count(), 2u);
  EXPECT_DOUBLE_EQ(reg.find_histogram("fault_latency_ns")->mean(), 200.0);
}

TEST(MetricsRegistryTest, HandlesStaySafeAcrossManyRegistrations) {
  MetricsRegistry reg;
  auto first = reg.Counter("c0");
  // Force lots of storage growth after the handle was taken.
  for (int i = 1; i < 200; ++i) {
    reg.Counter("c" + std::to_string(i)).Add(static_cast<uint64_t>(i));
  }
  first.Add(7);
  EXPECT_EQ(reg.counter_value("c0"), 7u);
  EXPECT_EQ(reg.counter_value("c199"), 199u);
}

TEST(MetricsRegistryTest, LookupsOfAbsentNamesAreBenign) {
  MetricsRegistry reg;
  EXPECT_FALSE(reg.Has("nope"));
  EXPECT_EQ(reg.counter_value("nope"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("nope"), 0.0);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
}

TEST(MetricsRegistryTest, SortedEntriesWalkByName) {
  MetricsRegistry reg;
  reg.Counter("zeta").Add(1);
  reg.Gauge("alpha").Set(2.0);
  reg.Hist("mid").Record(3);
  auto entries = reg.SortedEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(*entries[0].name, "alpha");
  EXPECT_EQ(*entries[1].name, "mid");
  EXPECT_EQ(*entries[2].name, "zeta");
  EXPECT_EQ(entries[0].kind, MetricsRegistry::Kind::kGauge);
  EXPECT_DOUBLE_EQ(reg.gauge_at(entries[0].index), 2.0);
  EXPECT_EQ(reg.counter_at(entries[2].index), 1u);
}

// --- Profiler --------------------------------------------------------------

// Stage scopes (src/metrics/stage.h) feed the profiler with their stage's
// phase, on the op's core.
TEST(SimProfilerTest, PhaseScopesAttributeElapsedSimTime) {
  Engine e;
  SimProfiler prof(2);
  prof.Install();
  auto body = [](SimProfiler& p) -> Task<> {
    StageOp core0{.core = 0};
    StageOp core1{.core = 1};
    {
      StageScope s(Stage::kRead, core0);  // rdma_wait
      co_await Delay{3900};
    }
    {
      StageScope s(Stage::kMapInstall, core0);  // fault_map
      co_await Delay{600};
    }
    {
      StageScope s(Stage::kReclaim, core1);  // eviction
      co_await Delay{1000};
    }
    p.AddPhase(1, SimPhase::kAppCompute, 250);
  };
  e.Spawn(body(prof));
  e.Run();
  prof.Uninstall();

  EXPECT_EQ(prof.core_phase(0, SimPhase::kRdmaWait), 3900);
  EXPECT_EQ(prof.core_phase(0, SimPhase::kFaultMap), 600);
  EXPECT_EQ(prof.core_phase(1, SimPhase::kEviction), 1000);
  EXPECT_EQ(prof.core_phase(1, SimPhase::kAppCompute), 250);
  EXPECT_EQ(prof.core_attributed(0), 4500);
  EXPECT_EQ(prof.core_attributed(1), 1250);
  EXPECT_EQ(prof.phase_total(SimPhase::kRdmaWait), 3900);
  EXPECT_EQ(prof.total_attributed(), 5750);
}

TEST(SimProfilerTest, AddPhaseIgnoresBogusInput) {
  SimProfiler prof(1);
  prof.AddPhase(-1, SimPhase::kEviction, 100);
  prof.AddPhase(5, SimPhase::kEviction, 100);
  prof.AddPhase(0, SimPhase::kEviction, 0);
  prof.AddPhase(0, SimPhase::kEviction, -7);
  EXPECT_EQ(prof.total_attributed(), 0);
}

TEST(SimProfilerTest, ScopesAreFreeWhenNoProfilerInstalled) {
  ASSERT_EQ(SimProfiler::Get(), nullptr);
  Engine e;
  auto body = []() -> Task<> {
    StageOp op{.core = 0};
    StageScope s(Stage::kRead, op);
    co_await Delay{100};
  };
  e.Spawn(body());
  e.Run();  // must not crash; nothing recorded anywhere
}

Task<> ContendNamed(SimMutex& m, SimTime hold_ns) {
  co_await m.Lock();
  co_await Delay{hold_ns};
  m.Unlock();
}

TEST(SimProfilerTest, PerLockWaitSumsEqualTotal) {
  Engine e;
  SimProfiler prof(1);
  prof.Install();
  SimMutex mm_lock("mm_lock");
  SimMutex acct("accounting");
  SimMutex anon;  // reported under "<anonymous>"
  // 3 waiters on mm_lock (waits 100+200), 2 on accounting (wait 50),
  // 2 on the anonymous lock (wait 30).
  for (int i = 0; i < 3; ++i) e.Spawn(ContendNamed(mm_lock, 100));
  for (int i = 0; i < 2; ++i) e.Spawn(ContendNamed(acct, 50));
  for (int i = 0; i < 2; ++i) e.Spawn(ContendNamed(anon, 30));
  e.Run();
  prof.Uninstall();

  ASSERT_EQ(prof.lock_waits().size(), 3u);
  EXPECT_EQ(prof.lock_waits().at("mm_lock"), 100 + 200);
  EXPECT_EQ(prof.lock_waits().at("accounting"), 50);
  EXPECT_EQ(prof.lock_waits().at("<anonymous>"), 30);
  EXPECT_EQ(prof.lock_wait_events(), 4u);  // uncontended handoffs don't count
  SimTime sum = 0;
  for (const auto& [name, ns] : prof.lock_waits()) sum += ns;
  EXPECT_EQ(sum, prof.lock_wait_total());
  // Matches the mutexes' own stats.
  EXPECT_EQ(prof.lock_wait_total(),
            static_cast<SimTime>(mm_lock.stats().total_wait_ns + acct.stats().total_wait_ns +
                                 anon.stats().total_wait_ns));
}

TEST(SimProfilerTest, UninstallStopsLockObservation) {
  Engine e;
  SimProfiler prof(1);
  prof.Install();
  prof.Uninstall();
  SimMutex m("m");
  for (int i = 0; i < 2; ++i) e.Spawn(ContendNamed(m, 100));
  e.Run();
  EXPECT_EQ(prof.lock_wait_total(), 0);
  EXPECT_TRUE(prof.lock_waits().empty());
}

// --- Sampler ---------------------------------------------------------------

struct ScriptedSources {
  uint64_t free_pages = 0;
  uint64_t faults = 0;
  uint64_t evicted = 0;
  uint64_t ops = 0;
  double dirty = 0.0;
  uint64_t ipi_depth = 0;
  uint64_t read_busy = 0;
  uint64_t write_busy = 0;

  SamplerSources Sources() {
    return SamplerSources{
        .free_pages = [this] { return free_pages; },
        .faults = [this] { return faults; },
        .evicted_pages = [this] { return evicted; },
        .total_ops = [this] { return ops; },
        .dirty_ratio = [this] { return dirty; },
        .ipi_queue_depth = [this] { return ipi_depth; },
        .nic_read_busy_ns = [this] { return read_busy; },
        .nic_write_busy_ns = [this] { return write_busy; },
    };
  }
};

TEST(MetricsSamplerTest, WindowedRatesMatchHandComputedValues) {
  Engine e;
  ScriptedSources src;
  MetricsSampler sampler(src.Sources(), kMillisecond);
  auto driver = [](Engine& e, ScriptedSources& src, MetricsSampler& s) -> Task<> {
    src.free_pages = 1000;
    s.SampleNow();  // t=0 baseline
    // Window 1: +500 faults, +200 evictions, +1,000,000 ops; NIC read busy
    // for half the window, write for a quarter.
    src.faults += 500;
    src.evicted += 200;
    src.ops += 1000000;
    src.read_busy += 500 * kMicrosecond;
    src.write_busy += 250 * kMicrosecond;
    src.free_pages = 900;
    src.dirty = 0.25;
    src.ipi_depth = 3;
    co_await Delay{kMillisecond};
    s.SampleNow();
    // Window 2: nothing happens.
    co_await Delay{kMillisecond};
    s.SampleNow();
    e.RequestShutdown();
  };
  e.Spawn(driver(e, src, sampler));
  e.Run();

  ASSERT_EQ(sampler.samples().size(), 3u);
  const auto& s0 = sampler.samples()[0];
  EXPECT_EQ(s0.t, 0);
  EXPECT_EQ(s0.free_pages, 1000u);
  EXPECT_DOUBLE_EQ(s0.fault_rate_per_s, 0.0);  // no previous window

  const auto& s1 = sampler.samples()[1];
  EXPECT_EQ(s1.t, kMillisecond);
  EXPECT_EQ(s1.free_pages, 900u);
  EXPECT_EQ(s1.faults, 500u);
  EXPECT_EQ(s1.ipi_queue_depth, 3u);
  EXPECT_DOUBLE_EQ(s1.dirty_ratio, 0.25);
  // 500 faults / 1 ms = 500,000 faults/s; 200 evictions -> 200,000/s;
  // 1M ops -> 1e9 ops/s; busy 0.5 ms and 0.25 ms of a 1 ms window.
  EXPECT_DOUBLE_EQ(s1.fault_rate_per_s, 500000.0);
  EXPECT_DOUBLE_EQ(s1.evict_rate_per_s, 200000.0);
  EXPECT_DOUBLE_EQ(s1.ops_rate_per_s, 1e9);
  EXPECT_DOUBLE_EQ(s1.nic_read_util, 0.5);
  EXPECT_DOUBLE_EQ(s1.nic_write_util, 0.25);

  const auto& s2 = sampler.samples()[2];
  EXPECT_DOUBLE_EQ(s2.fault_rate_per_s, 0.0);
  EXPECT_DOUBLE_EQ(s2.nic_read_util, 0.0);
}

TEST(MetricsSamplerTest, SampleNowIsIdempotentPerTimestamp) {
  Engine e;
  ScriptedSources src;
  MetricsSampler sampler(src.Sources(), kMillisecond);
  auto driver = [](MetricsSampler& s) -> Task<> {
    s.SampleNow();
    s.SampleNow();  // duplicate at t=0 dropped
    co_await Delay{kMillisecond};
    s.SampleNow();
    s.SampleNow();
  };
  e.Spawn(driver(sampler));
  e.Run();
  EXPECT_EQ(sampler.samples().size(), 2u);
}

TEST(MetricsSamplerTest, ToleratesCumulativeCounterResets) {
  Engine e;
  ScriptedSources src;
  MetricsSampler sampler(src.Sources(), kMillisecond);
  auto driver = [](Engine& e, ScriptedSources& src, MetricsSampler& s) -> Task<> {
    src.faults = 1000;
    s.SampleNow();
    // Warmup-style reset: cumulative counter drops, then 100 new faults.
    src.faults = 100;
    co_await Delay{kMillisecond};
    s.SampleNow();
    e.RequestShutdown();
  };
  e.Spawn(driver(e, src, sampler));
  e.Run();
  ASSERT_EQ(sampler.samples().size(), 2u);
  // Post-reset the delta restarts from the new cumulative value instead of
  // underflowing to ~2^64.
  EXPECT_DOUBLE_EQ(sampler.samples()[1].fault_rate_per_s, 100000.0);
}

TEST(MetricsSamplerTest, MainSamplesUntilShutdown) {
  Engine e;
  ScriptedSources src;
  MetricsSampler sampler(src.Sources(), kMillisecond);
  e.Spawn(sampler.Main());
  auto stopper = [](Engine& e) -> Task<> {
    co_await Delay{3 * kMillisecond + kMicrosecond};
    e.RequestShutdown();
  };
  e.Spawn(stopper(e));
  e.Run();
  // Samples at t = 0, 1, 2, 3 ms.
  ASSERT_GE(sampler.samples().size(), 4u);
  EXPECT_EQ(sampler.samples()[0].t, 0);
  EXPECT_EQ(sampler.samples()[1].t, kMillisecond);
  EXPECT_EQ(sampler.samples()[3].t, 3 * kMillisecond);
}

TEST(MetricsSamplerTest, CsvHasHeaderAndOneRowPerSample) {
  Engine e;
  ScriptedSources src;
  MetricsSampler sampler(src.Sources(), kMillisecond);
  auto driver = [](ScriptedSources& src, MetricsSampler& s) -> Task<> {
    s.SampleNow();
    src.faults = 42;
    co_await Delay{kMillisecond};
    s.SampleNow();
  };
  e.Spawn(driver(src, sampler));
  e.Run();
  std::string csv = sampler.ToCsv();
  // Header is the Columns() list joined by commas.
  std::string header;
  for (const auto& c : MetricsSampler::Columns()) {
    if (!header.empty()) header += ',';
    header += c;
  }
  ASSERT_EQ(csv.compare(0, header.size(), header), 0);
  size_t lines = 0;
  for (char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, 1u + sampler.samples().size());
  EXPECT_NE(csv.find("42"), std::string::npos);
}

}  // namespace
}  // namespace magesim
