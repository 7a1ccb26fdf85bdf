// Eviction-path behavior: pipelined vs sequential evictors, prefetcher,
// watermark dynamics, and the properties the paper's design principles imply.
#include <gtest/gtest.h>

#include "src/core/farmem.h"
#include "src/trace/trace.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

RunResult RunScan(KernelConfig cfg, double ratio, int threads = 16, uint64_t pages = 16384,
                  int passes = 2, SimTime compute = 500) {
  SeqScanWorkload wl(
      {.region_pages = pages, .threads = threads, .passes = passes,
       .compute_per_page_ns = compute});
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = ratio;
  FarMemoryMachine m(opt, wl);
  return m.Run();
}

TEST(EvictorTest, PipelinedBeatsSequentialUnderPressure) {
  // A write scan dirties every page: eviction must write back, and the
  // pipelined design hides those RDMA-write waits behind the other stages.
  // One evictor thread makes per-evictor eviction throughput the binding
  // constraint (with four, both designs over-provision at this scale).
  auto run = [](bool pipelined) {
    KernelConfig cfg = MageLibConfig();
    cfg.pipelined_eviction = pipelined;
    cfg.num_evictors = 1;
    SeqScanWorkload wl({.region_pages = 48 * 1024,
                        .threads = 32,
                        .passes = 1000,
                        .compute_per_page_ns = 100,
                        .write = true});
    FarMemoryMachine::Options opt;
    opt.kernel = cfg;
    opt.local_mem_ratio = 0.4;
    opt.time_limit = 30 * kMillisecond;
    opt.stats_warmup = 10 * kMillisecond;
    FarMemoryMachine m(opt, wl);
    return m.Run();
  };
  RunResult rp = run(true);
  RunResult rs = run(false);
  EXPECT_GT(rp.fault_mops, rs.fault_mops * 1.1);
}

TEST(EvictorTest, PipelinedEvictorKeepsFaultPathFreeOfTlbWork) {
  RunResult r = RunScan(MageLibConfig(), 0.5);
  // No sync eviction => no shootdown time attributed inside fault handling.
  EXPECT_EQ(r.sync_evictions, 0u);
  EXPECT_EQ(r.fault_breakdown.MeanPer(FaultCategory::kTlb, r.faults), 0.0);
  // Shootdowns happened, just on the eviction path.
  EXPECT_GT(r.tlb_shootdown_latency.count(), 0u);
}

TEST(EvictorTest, SequentialBaselineFallsBackToSyncEviction) {
  KernelConfig cfg = HermitConfig();
  RunResult r = RunScan(cfg, 0.3, 32, 32768, 3, 100);
  EXPECT_GT(r.sync_evictions, 0u);
  EXPECT_GT(r.fault_breakdown.MeanPer(FaultCategory::kTlb, r.faults), 0.0);
}

TEST(EvictorTest, EvictionKeepsUpNoFreePageStarvation) {
  // MAGE: fault path waits must be rare relative to faults under moderate
  // pressure (the EP sustains the FP).
  RunResult r = RunScan(MageLibConfig(), 0.5, 16, 16384, 2, 1000);
  EXPECT_GT(r.faults, 1000u);
  EXPECT_LT(static_cast<double>(r.free_page_waits), 0.2 * static_cast<double>(r.faults));
}

TEST(EvictorTest, CleanPagesSkipWriteback) {
  // A read-only scan produces clean victims: the write channel stays cold.
  RunResult r = RunScan(MageLibConfig(), 0.5);
  EXPECT_GT(r.evicted_pages, 1000u);
  EXPECT_LT(r.nic_write_gbps, r.nic_read_gbps / 10);
}

TEST(EvictorTest, DirtyPagesAreWrittenBack) {
  SeqScanWorkload wl({.region_pages = 8192, .threads = 8, .passes = 2});
  KernelConfig cfg = MageLibConfig();
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = 0.5;
  FarMemoryMachine m(opt, wl);
  // Dirty everything resident before running so evictions must write.
  for (uint64_t v = 0; v < m.kernel().wss_pages(); ++v) {
    m.kernel().TryFastAccess(v, /*write=*/true);
  }
  RunResult r = m.Run();
  EXPECT_GT(r.nic_write_gbps, 0.0);
}

TEST(PrefetchTest, SequentialPatternCutsMajorFaults) {
  KernelConfig off = MageLibConfig();
  KernelConfig on = MageLibConfig();
  on.prefetch = true;
  RunResult r_off = RunScan(off, 0.7, 8, 16384, 2, 2000);
  RunResult r_on = RunScan(on, 0.7, 8, 16384, 2, 2000);
  EXPECT_LT(r_on.faults * 2, r_off.faults);
  EXPECT_GT(r_on.prefetched_pages, 1000u);
  // Prefetching must help, not hurt, MAGE (its EP absorbs the pressure).
  EXPECT_LE(r_on.sim_seconds, r_off.sim_seconds * 1.05);
}

TEST(PrefetchTest, RandomPatternDoesNotPrefetch) {
  // GUPS-style random faults have no stable stride: the prefetcher stays off.
  KernelConfig on = MageLibConfig();
  on.prefetch = true;
  FarMemoryMachine::Options opt;
  opt.kernel = on;
  opt.local_mem_ratio = 0.5;

  class RandomReads : public Workload {
   public:
    std::string name() const override { return "random"; }
    uint64_t wss_pages() const override { return 8192; }
    int num_threads() const override { return 4; }
    Task<> ThreadBody(AppThread& t, int tid) override {
      // Cursor: reads done, and the next page once drawn.
      int done = 0;
      bool drawn = false;
      uint64_t vpn = 0;
      co_await t.RunHits([&](AppThread::HitRun& r) {
        for (; done < 2000; ++done) {
          if (!drawn) {
            vpn = t.rng().NextU64(8192);
            drawn = true;
          }
          if (!r.Touch(vpn, false)) return;
          drawn = false;
          r.Compute(500);
        }
      });
    }
  };
  RandomReads wl;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_LT(r.prefetched_pages, r.faults / 10);
}

TEST(EvictorTest, FeedbackControllerScalesEvictors) {
  // Hermit's feedback config must still keep up on a moderate workload
  // without collapsing (it ramps evictors with pressure).
  RunResult r = RunScan(HermitConfig(), 0.6, 8, 8192, 2, 3000);
  EXPECT_GT(r.evicted_pages, 500u);
  EXPECT_GT(r.total_ops, 0u);
}

// The trace hash of a small MageLib read scan under `cfg`'s evictors.
uint64_t ScanTraceHash(const KernelConfig& cfg) {
  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();
  RunScan(cfg, 0.5, 8, 8192, 2, 1000);
  tracer.Uninstall();
  return hash.hash();
}

// One evictor loop serves both batch schedules, so its knobs act under both:
// the wake cost delays every resume, and the feedback controller parks
// evictors.
TEST(EvictorTest, EvictorKnobsActUnderBothSchedules) {
  for (bool pipelined : {false, true}) {
    KernelConfig base = MageLibConfig();
    base.pipelined_eviction = pipelined;
    KernelConfig wake = base;
    wake.evictor_wake_cost_ns = 2200;
    KernelConfig feedback = base;
    feedback.feedback_evictors = true;
    const uint64_t h = ScanTraceHash(base);
    EXPECT_NE(ScanTraceHash(wake), h) << "wake cost ignored, pipelined=" << pipelined;
    EXPECT_NE(ScanTraceHash(feedback), h) << "feedback ignored, pipelined=" << pipelined;
  }
}

TEST(EvictorTest, WatermarksBoundFreePages) {
  SeqScanWorkload wl({.region_pages = 16384, .threads = 8, .passes = 3,
                      .compute_per_page_ns = 1000});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  FarMemoryMachine m(opt, wl);
  m.Run();
  // Post-run free pages are in a sane band: the evictors neither drained
  // everything nor ran away evicting the whole residency.
  uint64_t free = m.kernel().free_pages();
  EXPECT_GT(free, 0u);
  EXPECT_LT(free, m.kernel().local_pages() / 2);
}

}  // namespace
}  // namespace magesim
