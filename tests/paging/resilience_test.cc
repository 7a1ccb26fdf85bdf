// Failure injection: fault-plan brownouts and degraded backends. The systems must
// stay correct (work conservation, no deadlock) and MAGE must degrade
// gracefully (backpressure instead of sync-eviction storms).
#include <gtest/gtest.h>

#include "src/core/farmem.h"
#include "src/resilience/fault_injector.h"
#include "src/resilience/fault_plan.h"
#include "src/workloads/dataframe.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

TEST(BrownoutTest, NicBrownoutSlowsOpsInsideWindowOnly) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::Parse("brownout@10us-20us:bw=0.25,lat=5us", &plan, &err)) << err;
  FaultInjector inj(plan, /*seed=*/1);
  nic.SetFaultModel(&inj);
  std::vector<SimTime> latencies;
  auto body = [](RdmaNic& nic, std::vector<SimTime>& out) -> Task<> {
    for (int i = 0; i < 3; ++i) {
      SimTime t0 = Engine::current().now();
      co_await nic.Read(kPageSize);
      out.push_back(Engine::current().now() - t0);
      // Jump to the middle of / past the brownout window.
      co_await Delay{11 * kMicrosecond};
    }
  };
  e.Spawn(body(nic, latencies));
  e.Run();
  ASSERT_EQ(latencies.size(), 3u);
  EXPECT_NEAR(static_cast<double>(latencies[0]), 3900, 100);   // before
  EXPECT_GT(latencies[1], 9 * kMicrosecond);                   // inside: +5us, 4x wire
  EXPECT_NEAR(static_cast<double>(latencies[2]), 3900, 100);   // after
}

TEST(BrownoutTest, WorkloadSurvivesBrownoutWithWorkConservation) {
  for (const auto& cfg : {MageLibConfig(), HermitConfig()}) {
    SeqScanWorkload wl({.region_pages = 12288, .threads = 8, .passes = 2,
                        .compute_per_page_ns = 500});
    FarMemoryMachine::Options opt;
    opt.kernel = cfg;
    opt.local_mem_ratio = 0.5;
    // A severe brownout right in the middle of the run.
    opt.fault_plan = "brownout@2ms-6ms:bw=0.1,lat=30us";
    FarMemoryMachine m(opt, wl);
    RunResult r = m.Run();
    EXPECT_EQ(r.total_ops, 2u * 12288u) << cfg.name;  // everything still served
    EXPECT_GT(r.fault_latency.max(), 30 * kMicrosecond) << cfg.name;
  }
}

TEST(BrownoutTest, MageDegradesWithoutSyncEvictionStorm) {
  SeqScanWorkload wl({.region_pages = 24576, .threads = 16, .passes = 2,
                      .compute_per_page_ns = 300});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.4;
  opt.fault_plan = "brownout@1ms-8ms:bw=0.15,lat=20us";
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  // P1 holds even under backend failure: the fault path never evicts.
  EXPECT_EQ(r.sync_evictions, 0u);
  EXPECT_EQ(r.total_ops, 2u * 24576u);
}

TEST(DataframeTest, QueriesComputeRealResultsIndependentOfPlacement) {
  DataframeWorkload::Options o{
      .num_rows = 1 << 20, .threads = 8, .queries_per_thread = 2};
  DataframeWorkload local(o), far(o);
  {
    FarMemoryMachine::Options opt;
    opt.kernel = MageLibConfig();
    opt.local_mem_ratio = 1.0;
    FarMemoryMachine m(opt, local);
    m.Run();
  }
  {
    FarMemoryMachine::Options opt;
    opt.kernel = HermitConfig();
    opt.local_mem_ratio = 0.4;
    FarMemoryMachine m(opt, far);
    m.Run();
  }
  EXPECT_EQ(local.result_hash(), far.result_hash());
  EXPECT_EQ(local.rows_matched(), far.rows_matched());
  EXPECT_GT(local.rows_matched(), 0u);
}

TEST(DataframeTest, ColumnScansArePrefetchable) {
  auto faults = [](bool prefetch) {
    DataframeWorkload wl({.num_rows = 1 << 21, .threads = 8, .queries_per_thread = 1});
    KernelConfig cfg = MageLibConfig();
    cfg.prefetch = prefetch;
    FarMemoryMachine::Options opt;
    opt.kernel = cfg;
    opt.local_mem_ratio = 0.6;
    FarMemoryMachine m(opt, wl);
    return m.Run().faults;
  };
  uint64_t without = faults(false);
  uint64_t with = faults(true);
  EXPECT_LT(with * 2, without);  // sequential column streams prefetch well
}

}  // namespace
}  // namespace magesim
