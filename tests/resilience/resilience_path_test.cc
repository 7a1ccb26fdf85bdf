// End-to-end resilience: a machine running a real workload through a scripted
// fault plan must (a) stay deterministic per seed, (b) survive drops, errors,
// brownouts, and a memory-node crash with zero invariant violations, and
// (c) honor the terminal policy when the plan is unsurvivable.
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/farmem.h"
#include "src/trace/trace.h"
#include "src/workloads/gups.h"
#include "src/workloads/seqscan.h"

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

FarMemoryMachine::Options ChaosOptions(uint64_t seed) {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = seed;
  opt.check_final = true;
  return opt;
}

TEST(ResiliencePathTest, SameSeedSamePlanIsByteIdentical) {
  auto run = [](uint64_t seed) {
    GupsWorkload wl(SmallGups());
    FarMemoryMachine::Options opt = ChaosOptions(seed);
    opt.fault_plan =
        "drop@1ms-4ms:p=0.05;spike@2ms-6ms:p=0.02,lat=30us;brownout@5ms-8ms:bw=0.25";
    opt.metrics.enabled = true;
    opt.metrics.sample_interval = 500 * kMicrosecond;
    FarMemoryMachine m(opt, wl);
    m.Run();
    return m.run_report_json();
  };
  static const std::regex kWallClock("\"wall_clock\":\\{[^}]*\\},?");
  std::string a = std::regex_replace(run(11), kWallClock, "");
  std::string b = std::regex_replace(run(11), kWallClock, "");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // A different seed draws different injection coin flips.
  std::string c = std::regex_replace(run(12), kWallClock, "");
  EXPECT_NE(a, c);
}

TEST(ResiliencePathTest, SurvivesDropsWithRetriesAndNoViolations) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = ChaosOptions(21);
  opt.fault_plan = "drop@1ms-6ms:p=0.05";
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_GT(r.injected_drops, 0u);
  EXPECT_GT(r.rdma_timeouts, 0u);    // every drop must be noticed...
  EXPECT_GT(r.rdma_retries, 0u);     // ...and re-issued
  EXPECT_EQ(r.pages_poisoned, 0u);   // light drops never exhaust the budget
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.total_ops, 0u);
}

// Records the memory-server crash/recover edges of a run, in order.
class MemnodeEdgeSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& e) override {
    if (e.type == TraceEventType::kMemnodeCrash || e.type == TraceEventType::kMemnodeRecover) {
      edges.push_back(e);
    }
  }
  std::vector<TraceEvent> edges;
};

TEST(ResiliencePathTest, SurvivesMemoryNodeCrashAndRecovery) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = ChaosOptions(5);
  opt.fault_plan = "crash@2ms-3ms";
  MemnodeEdgeSink sink;
  Tracer tracer;
  tracer.AddSink(&sink);
  tracer.Install();
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  tracer.Uninstall();
  EXPECT_EQ(r.memnode_crashes, 1u);
  // Server 0 went down once, at the window's start, and came back up at its
  // end.
  EXPECT_EQ(m.fleet()->crash_episodes(0), 1u);
  ASSERT_EQ(sink.edges.size(), 2u);
  EXPECT_EQ(sink.edges[0].type, TraceEventType::kMemnodeCrash);
  EXPECT_EQ(sink.edges[0].actor, 0);
  EXPECT_EQ(sink.edges[0].t, 2 * kMillisecond);
  EXPECT_EQ(sink.edges[1].type, TraceEventType::kMemnodeRecover);
  EXPECT_EQ(sink.edges[1].actor, 0);
  EXPECT_EQ(sink.edges[1].t, 3 * kMillisecond);
  EXPECT_GT(r.rdma_retries, 0u);
  EXPECT_GT(r.breaker_opens, 0u);  // a 1 ms outage must trip the breakers
  // One server has no replica to rebuild from: its crash is an outage that
  // acts through dropped completions, not a loss of its copies.
  EXPECT_EQ(r.fleet_nodes, 1u);
  EXPECT_EQ(r.fleet_slots_lost, 0u);
  EXPECT_EQ(r.fleet_repairs_queued, 0u);
  EXPECT_EQ(m.rebuild(), nullptr);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.total_ops, 0u);
}

TEST(ResiliencePathTest, LostWritebackIsSurfacedOnOneServer) {
  // Every write is dropped for 19 ms, then the link is healthy. A writeback
  // lost for good leaves its slot with no copy: the fleet of one surfaces it
  // as lost, and a later demand read of it is poisoned, not served as good.
  GupsWorkload::Options o = SmallGups();
  o.run_for = 30 * kMillisecond;
  GupsWorkload wl(o);
  FarMemoryMachine::Options opt = ChaosOptions(13);
  opt.fault_plan = "drop@1ms-20ms:p=1,ch=write";
  opt.check_interval = 500 * kMicrosecond;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_GT(r.writebacks_lost, 0u);
  EXPECT_GT(r.fleet_slots_lost, 0u);
  EXPECT_LE(r.fleet_slots_lost, r.writebacks_lost);
  EXPECT_GT(r.pages_poisoned, 0u);
  EXPECT_EQ(r.fleet_silent_losses, 0u);
  EXPECT_EQ(r.invariant_violations, 0u) << r.first_violation;
  EXPECT_FALSE(r.aborted);
}

TEST(ResiliencePathTest, FailRunPolicyAbortsUnderUnsurvivableCrash) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = ChaosOptions(5);
  // Crash that outlasts the whole run: retries must exhaust.
  opt.fault_plan = "crash@1ms-1s";
  opt.resilience.terminal = TerminalPolicy::kFailRun;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.abort_reason.empty());
}

TEST(ResiliencePathTest, PoisonPolicyKeepsRunningUnderUnsurvivableCrash) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = ChaosOptions(5);
  opt.fault_plan = "crash@1ms-1s";  // default terminal policy: poison
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_FALSE(r.aborted);
  EXPECT_GT(r.pages_poisoned, 0u);
  EXPECT_GT(r.breaker_opens, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(ResiliencePathTest, PrefetcherThrottlesWhileReadChannelDegraded) {
  // Sequential scan drives the stride prefetcher. A heavy error window keeps
  // the read breaker flapping open while faults still trickle through, so
  // faults that arrive during degraded stretches must suppress their stream
  // prefetch (counted) rather than issue speculative reads into a sick link.
  SeqScanWorkload wl({.region_pages = 4096, .threads = 4, .passes = 4});
  FarMemoryMachine::Options opt = ChaosOptions(9);
  opt.kernel.prefetch = true;  // off by default in every stock config
  opt.fault_plan = "error@2ms-20ms:p=0.95";
  opt.time_limit = 60 * kMillisecond;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_GT(r.breaker_opens, 0u);
  EXPECT_GT(r.prefetch_throttles, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(ResiliencePathTest, ResilientPathIdlesCleanlyWithoutFaultPlan) {
  // No plan: every remote op goes through the resilience layer, but with no
  // fault model nothing can fail, so every resilience counter stays zero and
  // the run completes normally.
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = ChaosOptions(31);
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.rdma_retries, 0u);
  EXPECT_EQ(r.rdma_timeouts, 0u);
  EXPECT_EQ(r.breaker_opens, 0u);
  EXPECT_EQ(r.pages_poisoned, 0u);
  EXPECT_EQ(r.fault_windows, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_GT(r.total_ops, 0u);
}

TEST(ResiliencePathTest, BadPlanThrowsFromConstructor) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = ChaosOptions(1);
  opt.fault_plan = "meltdown@1ms-2ms";
  EXPECT_THROW({ FarMemoryMachine m(opt, wl); }, std::invalid_argument);
}

TEST(ResiliencePathTest, RunReportRecordsPlanAndResilienceCounters) {
  GupsWorkload wl(SmallGups());
  FarMemoryMachine::Options opt = ChaosOptions(11);
  opt.fault_plan = "drop@1ms-4ms:p=0.05";
  opt.metrics.enabled = true;
  FarMemoryMachine m(opt, wl);
  m.Run();
  const std::string& json = m.run_report_json();
  EXPECT_NE(json.find("\"fault_plan\":\"drop@1ms-4ms:p=0.05\""), std::string::npos);
  EXPECT_NE(json.find("\"resilience\":true"), std::string::npos);
  EXPECT_NE(json.find("resilience.rdma_retries"), std::string::npos);
  EXPECT_NE(json.find("inject.drops"), std::string::npos);
}

}  // namespace
}  // namespace magesim
