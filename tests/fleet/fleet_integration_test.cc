// End-to-end fleet runs: a real workload over a 4-server, 2-replica far side
// survives a node-targeted crash with degraded reads, background rebuild
// converges, nothing is lost silently, and the invariant checker (including
// the fleet replica-safety rule) stays green. Plans naming servers outside
// the fleet are rejected at machine construction.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <string>

#include "src/core/farmem.h"
#include "src/metrics/metrics.h"
#include "src/trace/trace.h"
#include "src/workloads/gups.h"

namespace magesim {
namespace {

GupsWorkload::Options SmallGups() {
  GupsWorkload::Options o;
  o.total_pages = 4096;
  o.threads = 4;
  o.phase_change_at = 5 * kMillisecond;
  o.run_for = 10 * kMillisecond;
  o.prewarm_region_a = false;
  return o;
}

FarMemoryMachine::Options FleetOptions(uint64_t seed, int nodes, int replicas) {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = seed;
  opt.check_final = true;
  opt.fleet.num_nodes = nodes;
  opt.fleet.replication = replicas;
  opt.fleet.rebuild_gbps = 50.0;
  return opt;
}

TEST(FleetIntegrationTest, HealthyFleetRunsCleanWithNoDegradedReads) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(3, 4, 2);
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.fleet_nodes, 4u);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GT(r.faults, 0u);
  EXPECT_EQ(r.fleet_degraded_reads, 0u);
  EXPECT_EQ(r.fleet_slots_lost, 0u);
  EXPECT_EQ(r.fleet_silent_losses, 0u);
  EXPECT_EQ(r.fleet_rebuild_pending, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_FALSE(r.aborted);
}

TEST(FleetIntegrationTest, KillOneOfFourDegradedReadsThenRebuildConverges) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(5, 4, 2);
  opt.fault_plan = "crash@2ms-3ms:node=1";
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.memnode_crashes, 1u);
  EXPECT_EQ(r.fault_windows, 1u);
  // Slots whose placement primary was server 1 were served degraded from the
  // surviving replica during the outage...
  EXPECT_GT(r.fleet_degraded_reads, 0u);
  // ...with k=2, a single crash loses nothing...
  EXPECT_EQ(r.fleet_slots_lost, 0u);
  EXPECT_EQ(r.pages_poisoned, 0u);
  // ...and after recovery the rebuild driver restored the replica set.
  EXPECT_GT(r.fleet_slots_rebuilt, 0u);
  EXPECT_EQ(r.fleet_rebuild_pending, 0u);
  EXPECT_EQ(r.fleet_silent_losses, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_FALSE(r.aborted);
  EXPECT_GT(r.total_ops, 0u);
}

// One fleet run configuration: the kernel, prefetch and lazy TLB on top, the
// fleet shape and a node crash mid-run.
struct FleetRunCase {
  const char* name;
  KernelConfig (*kernel)();
  bool prefetch_and_lazy_tlb;
  int nodes;
  int replicas;
  const char* plan;
};

void PrintTo(const FleetRunCase& c, std::ostream* os) { *os << c.name; }

class FleetRunTest : public ::testing::TestWithParam<FleetRunCase> {};

// A fleet run with a node crash is byte-identical per seed (same trace hash)
// and keeps every invariant green under a short-interval checker.
TEST_P(FleetRunTest, FleetRunIsDeterministicPerSeed) {
  const FleetRunCase& c = GetParam();
  auto run = [&c] {
    GupsWorkload wl(SmallGups());
    FarMemoryMachine::Options opt = FleetOptions(9, c.nodes, c.replicas);
    opt.kernel = c.kernel();
    opt.kernel.prefetch = c.prefetch_and_lazy_tlb;
    opt.kernel.lazy_tlb = c.prefetch_and_lazy_tlb;
    opt.fault_plan = c.plan;
    opt.metrics.enabled = true;
    opt.check_interval = 200 * kMicrosecond;
    Tracer tracer;
    TraceHashSink hash;
    tracer.AddSink(&hash);
    tracer.Install();
    FarMemoryMachine m(opt, wl);
    RunResult r = m.Run();
    tracer.Uninstall();
    EXPECT_EQ(r.memnode_crashes, 1u);
    EXPECT_GT(r.invariant_checks, 10u);
    EXPECT_EQ(r.invariant_violations, 0u) << r.first_violation;
    EXPECT_EQ(r.fleet_silent_losses, 0u);
    EXPECT_FALSE(r.aborted);
    return std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>(
        r.total_ops, r.fleet_degraded_reads, r.fleet_slots_rebuilt, r.faults, hash.hash());
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(
    Compositions, FleetRunTest,
    ::testing::Values(
        FleetRunCase{"magelib_4x2", MageLibConfig, false, 4, 2, "crash@2ms-3ms:node=2"},
        FleetRunCase{"magelib_3x2_prefetch_lazytlb", MageLibConfig, true, 3, 2,
                     "crash@3ms-5ms:node=1"},
        FleetRunCase{"hermit_3x2_prefetch_lazytlb", HermitConfig, true, 3, 2,
                     "crash@3ms-5ms:node=1"}));

// The breaker-degraded time in the run report sums every server's breakers:
// a 2-server fleet whose second server fails every op for 3 ms trips them.
TEST(FleetIntegrationTest, DegradedTimeCoversPerServerBreakers) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(7, 2, 2);
  opt.fault_plan = "error@1ms-4ms:p=1,node=1";
  opt.metrics.enabled = true;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_GT(r.breaker_opens, 0u);
  MetricsRegistry& reg = *m.metrics();
  EXPECT_GT(reg.Counter("resilience.read_degraded_ns").value() +
                reg.Counter("resilience.write_degraded_ns").value(),
            0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

// The run report's nic.* counters and rdma latency histograms sum every
// server's NIC, as nic.read_gbps does, not server 0's alone.
TEST(FleetIntegrationTest, NicCountersCoverEveryServer) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(5, 4, 2);
  opt.fault_plan = "error@1ms-4ms:p=0.05";
  opt.metrics.enabled = true;
  FarMemoryMachine m(opt, wl);
  m.Run();
  MetricsRegistry& reg = *m.metrics();
  uint64_t bytes_read = 0, bytes_written = 0, posted = 0, errored = 0, read_ops = 0;
  for (int i = 0; i < 4; ++i) {
    bytes_read += reg.Counter("fleet.node" + std::to_string(i) + ".bytes_read").value();
    bytes_written +=
        reg.Counter("fleet.node" + std::to_string(i) + ".bytes_written").value();
    const RdmaNic& nic = m.fleet()->nic(i);
    posted += nic.reads_posted() + nic.writes_posted();
    errored += nic.reads_errored() + nic.writes_errored();
    read_ops += nic.read_latency().count();
  }
  EXPECT_GT(reg.Counter("fleet.node1.bytes_read").value(), 0u);
  EXPECT_GT(errored, 0u);
  EXPECT_EQ(reg.Counter("nic.bytes_read").value(), bytes_read);
  EXPECT_EQ(reg.Counter("nic.bytes_written").value(), bytes_written);
  EXPECT_EQ(reg.Counter("nic.reads_posted").value() + reg.Counter("nic.writes_posted").value(),
            posted);
  EXPECT_EQ(reg.Counter("nic.reads_errored").value() +
                reg.Counter("nic.writes_errored").value(),
            errored);
  EXPECT_EQ(reg.Hist("rdma_read_latency_ns").histogram().count(), read_ops);
}

// The sampler's NIC utilization columns are the mean busy share of every
// server's link: weighted by window length they add up to the fleet's total
// busy time over N links and the sampled span.
TEST(FleetIntegrationTest, SamplerNicUtilizationIsTheFleetMean) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(7, 4, 2);
  opt.metrics.enabled = true;
  opt.metrics.sample_interval = 500 * kMicrosecond;
  FarMemoryMachine m(opt, wl);
  m.Run();
  const auto& samples = m.sampler()->samples();
  ASSERT_GT(samples.size(), 2u);
  double read_weighted = 0.0, write_weighted = 0.0;
  for (size_t i = 1; i < samples.size(); ++i) {
    double dt = static_cast<double>(samples[i].t - samples[i - 1].t);
    EXPECT_LE(samples[i].nic_read_util, 1.0);
    EXPECT_LE(samples[i].nic_write_util, 1.0);
    read_weighted += samples[i].nic_read_util * dt;
    write_weighted += samples[i].nic_write_util * dt;
  }
  const double span = static_cast<double>(samples.back().t - samples.front().t);
  uint64_t read_busy = 0, write_busy = 0;
  for (int i = 0; i < 4; ++i) {
    read_busy += m.fleet()->nic(i).read_busy_ns();
    write_busy += m.fleet()->nic(i).write_busy_ns();
  }
  EXPECT_GT(m.fleet()->nic(1).read_busy_ns(), 0u);
  const double want_read = static_cast<double>(read_busy) / (4.0 * span);
  const double want_write = static_cast<double>(write_busy) / (4.0 * span);
  EXPECT_NEAR(read_weighted / span, want_read, 1e-9 * want_read);
  EXPECT_NEAR(write_weighted / span, want_write, 1e-9 * want_write);
}

// Every fleet surface rejects a server count above the 16-server limit, and
// the text surfaces reject anything but a whole number > 0.
TEST(FleetIntegrationTest, OptionsRejectServerCountOutsideLimit) {
  for (int nodes : {0, -1, kMaxFleetNodes + 1}) {
    GupsWorkload wl(SmallGups());
    FarMemoryMachine::Options opt = FleetOptions(1, nodes, 2);
    EXPECT_THROW({ FarMemoryMachine m(opt, wl); }, std::invalid_argument) << nodes;
  }
}

TEST(FleetIntegrationTest, EnvironmentRejectsBadFleetSettings) {
  const std::pair<const char*, const char*> bad[] = {
      {"MAGESIM_FLEET_NODES", "abc"},       {"MAGESIM_FLEET_NODES", "0"},
      {"MAGESIM_FLEET_NODES", "17"},        {"MAGESIM_FLEET_NODES", "2x"},
      {"MAGESIM_FLEET_REPLICAS", "two"},    {"MAGESIM_FLEET_REPLICAS", "-1"},
      {"MAGESIM_FLEET_REBUILD_GBPS", ""},   {"MAGESIM_FLEET_REBUILD_GBPS", "0"},
      {"MAGESIM_FLEET_REBUILD_GBPS", "fast"},
  };
  for (const auto& [var, value] : bad) {
    setenv(var, value, 1);
    GupsWorkload wl(SmallGups());
    try {
      FarMemoryMachine m(FleetOptions(1, 1, 1), wl);
      ADD_FAILURE() << var << "=" << value << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    }
    unsetenv(var);
  }
  // The documented replication clamp still holds: 9 replicas on 1 server.
  setenv("MAGESIM_FLEET_REPLICAS", "9", 1);
  GupsWorkload wl(SmallGups());
  FarMemoryMachine m(FleetOptions(1, 1, 1), wl);
  unsetenv("MAGESIM_FLEET_REPLICAS");
  EXPECT_EQ(m.fleet()->replication(), 1);
}

TEST(FleetIntegrationTest, PlanTargetingNodeOutsideFleetIsRejected) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(3, 4, 2);
  opt.fault_plan = "crash@2ms-3ms:node=7";
  EXPECT_THROW({ FarMemoryMachine m(opt, wl); }, std::invalid_argument);
}

TEST(FleetIntegrationTest, SingleNodeMachineRejectsNodeTargetedPlans) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = 1;
  opt.fault_plan = "crash@2ms-3ms:node=1";
  EXPECT_THROW({ FarMemoryMachine m(opt, wl); }, std::invalid_argument);
}

// The crash/recover transitions themselves are traced by the fleet, so a
// fleet chaos run carries them (and the crash-episode metric counts them).
TEST(FleetIntegrationTest, CrashEpisodeMetricCountsPerNodeTransitions) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = FleetOptions(11, 4, 2);
  opt.fault_plan = "crash@2ms-3ms:node=1;crash@5ms-6ms:node=3";
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.memnode_crashes, 2u);
  ASSERT_NE(m.fleet(), nullptr);
  EXPECT_EQ(m.fleet()->crash_episodes(1), 1u);
  EXPECT_EQ(m.fleet()->crash_episodes(3), 1u);
  EXPECT_EQ(m.fleet()->crash_episodes(0), 0u);
  EXPECT_EQ(r.fleet_silent_losses, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

}  // namespace
}  // namespace magesim
