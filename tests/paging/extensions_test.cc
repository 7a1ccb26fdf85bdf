// Tests for the extension features: lazy TLB reconciliation, adaptive
// prefetch windows, alternative accounting policies under the full kernel,
// and alternative swap backends.
#include <gtest/gtest.h>

#include "src/core/farmem.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

RunResult RunScan(KernelConfig cfg, double ratio, int threads = 16, uint64_t pages = 16384,
                  SimTime compute = 500, MachineParams* hw = nullptr) {
  SeqScanWorkload wl({.region_pages = pages, .threads = threads, .passes = 2,
                      .compute_per_page_ns = compute});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = ratio;
  if (hw != nullptr) opt.hw = *hw;
  FarMemoryMachine m(opt, wl);
  return m.Run();
}

TEST(LazyTlbTest, EliminatesEvictionIpis) {
  KernelConfig lazy = MageLibConfig();
  lazy.lazy_tlb = true;
  lazy.high_watermark = 0.16;
  RunResult r = RunScan(lazy, 0.5);
  EXPECT_GT(r.evicted_pages, 1000u);
  EXPECT_EQ(r.ipis_sent, 0u);  // no shootdown traffic at all
  EXPECT_EQ(r.total_ops, 2u * 16384u);
}

TEST(LazyTlbTest, ReclaimStillKeepsUpWithFaults) {
  KernelConfig lazy = MageLibConfig();
  lazy.lazy_tlb = true;
  lazy.high_watermark = 0.16;
  lazy.low_watermark = 0.08;
  RunResult lazy_r = RunScan(lazy, 0.5, 16, 16384, 1000);
  RunResult ipi_r = RunScan(MageLibConfig(), 0.5, 16, 16384, 1000);
  // Within 2x of the IPI design on a moderate workload (ticks add latency
  // but remove shootdown work).
  EXPECT_LT(lazy_r.sim_seconds, ipi_r.sim_seconds * 2.0);
  EXPECT_EQ(lazy_r.faults + 0, lazy_r.faults);  // completed normally
}

TEST(LazyTlbTest, TickChargesFlushCostToAppCores) {
  KernelConfig lazy = MageLibConfig();
  lazy.lazy_tlb = true;
  SeqScanWorkload wl({.region_pages = 16384, .threads = 8, .passes = 2});
  FarMemoryMachine::Options opt;
  opt.kernel = lazy;
  opt.local_mem_ratio = 0.5;
  FarMemoryMachine m(opt, wl);
  m.Run();
  // Reconciliation flushes showed up as stolen time on application cores.
  EXPECT_GT(m.kernel().topology().core(0).stolen_total_ns(), 0);
}

TEST(AdaptivePrefetchTest, WindowGrowthReducesFaultsMoreThanFixedDepth) {
  KernelConfig shallow = MageLibConfig();
  shallow.prefetch = true;
  shallow.prefetch_window = 2;  // effectively fixed-shallow
  KernelConfig deep = MageLibConfig();
  deep.prefetch = true;
  deep.prefetch_window = 32;
  RunResult rs = RunScan(shallow, 0.7, 8, 16384, 2000);
  RunResult rd = RunScan(deep, 0.7, 8, 16384, 2000);
  EXPECT_LT(rd.faults, rs.faults);
  EXPECT_GT(rd.prefetched_pages, rs.prefetched_pages);
}

TEST(AccountingPolicyKernelTest, AllPoliciesCompleteUnderPressure) {
  for (AccountingPolicy p :
       {AccountingPolicy::kGlobalLru, AccountingPolicy::kPartitionedFifo,
        AccountingPolicy::kS3Fifo, AccountingPolicy::kMgLru}) {
    KernelConfig cfg = MageLibConfig();
    cfg.accounting = p;
    RunResult r = RunScan(cfg, 0.4);
    EXPECT_EQ(r.total_ops, 2u * 16384u) << static_cast<int>(p);
    EXPECT_GT(r.evicted_pages, 1000u) << static_cast<int>(p);
  }
}

TEST(BackendTest, SsdBackendHasHigherFaultLatencyThanRdma) {
  MachineParams ssd = NvmeBackendParams();
  MachineParams rdma = VirtualizedParams();
  RunResult r_ssd = RunScan(MageLibConfig(), 0.6, 8, 8192, 1000, &ssd);
  RunResult r_rdma = RunScan(MageLibConfig(), 0.6, 8, 8192, 1000, &rdma);
  EXPECT_GT(r_ssd.fault_latency.mean(), 4.0 * r_rdma.fault_latency.mean());
  EXPECT_GT(r_ssd.sim_seconds, r_rdma.sim_seconds);
}

TEST(BackendTest, ZswapBackendIsFasterThanRdma) {
  MachineParams z = ZswapBackendParams();
  MachineParams rdma = VirtualizedParams();
  RunResult r_z = RunScan(MageLibConfig(), 0.6, 8, 8192, 1000, &z);
  RunResult r_rdma = RunScan(MageLibConfig(), 0.6, 8, 8192, 1000, &rdma);
  EXPECT_LT(r_z.fault_latency.mean(), r_rdma.fault_latency.mean());
}

}  // namespace
}  // namespace magesim
