#include "src/paging/kernel.h"

#include <gtest/gtest.h>

#include "src/paging/kernels.h"
#include "src/sim/engine.h"

namespace magesim {
namespace {

struct Rig {
  explicit Rig(KernelConfig cfg, uint64_t local = 2048, uint64_t wss = 4096)
      : params(cfg.virtualized ? VirtualizedParams() : BareMetalParams()),
        topo(params),
        tlb(topo),
        fleet(params, FleetManager::Options{}),
        resilience(fleet, ResilienceOptions{}),
        kernel(cfg, topo, tlb, resilience, local, wss) {
    std::vector<CoreId> cores;
    for (int i = 0; i < 8; ++i) cores.push_back(i);
    tlb.SetTargetCores(cores);
  }
  Engine engine;
  MachineParams params;
  Topology topo;
  TlbShootdownManager tlb;
  FleetManager fleet;
  ResilienceManager resilience;
  Kernel kernel;
};

// Residency is Bresenham-spread across the working set; helpers below find
// concrete resident/non-resident pages.
std::vector<uint64_t> ResidentVpns(Kernel& k, size_t n) {
  std::vector<uint64_t> out;
  for (uint64_t v = 0; v < k.wss_pages() && out.size() < n; ++v) {
    if (k.page_table().At(v).present) out.push_back(v);
  }
  return out;
}

uint64_t FirstNonResident(Kernel& k) {
  for (uint64_t v = 0; v < k.wss_pages(); ++v) {
    if (!k.page_table().At(v).present) return v;
  }
  return 0;
}

TEST(KernelTest, PrepopulateMapsAndTracks) {
  Rig rig(MageLibConfig());
  rig.kernel.Prepopulate(1000);
  EXPECT_EQ(rig.kernel.page_table().mapped_pages(), 1000u);
  EXPECT_EQ(rig.kernel.accounting().tracked_pages(), 1000u);
  EXPECT_EQ(rig.kernel.free_pages(), 2048u - 1000u);
}

TEST(KernelTest, FastAccessSetsBits) {
  Rig rig(MageLibConfig());
  rig.kernel.Prepopulate(100);
  uint64_t v = ResidentVpns(rig.kernel, 1)[0];
  EXPECT_TRUE(rig.kernel.TryFastAccess(v, /*write=*/false));
  EXPECT_TRUE(rig.kernel.page_table().At(v).accessed);
  EXPECT_FALSE(rig.kernel.page_table().At(v).dirty);
  EXPECT_TRUE(rig.kernel.TryFastAccess(v, /*write=*/true));
  EXPECT_TRUE(rig.kernel.page_table().At(v).dirty);
  EXPECT_FALSE(rig.kernel.TryFastAccess(FirstNonResident(rig.kernel), false));
}

TEST(KernelTest, SingleFaultLatencyNearUncontendedBudget) {
  // MageLib's uncontended fault = entry + alloc + 3.9us RDMA + map +
  // accounting: ~4.5 us, far below any contended case.
  Rig rig(MageLibConfig());
  rig.kernel.Prepopulate(100);
  rig.kernel.Start(8);
  SimTime elapsed = -1;
  rig.engine.Spawn([](Rig& rig, SimTime& elapsed) -> Task<> {
    SimTime t0 = Engine::current().now();
    co_await rig.kernel.Fault(0, 500, false);
    elapsed = Engine::current().now() - t0;
  }(rig, elapsed));
  rig.engine.RequestShutdown();
  rig.engine.Run();
  EXPECT_GT(elapsed, 3900);
  EXPECT_LT(elapsed, 7000);
  EXPECT_TRUE(rig.kernel.page_table().At(500).present);
  EXPECT_EQ(rig.kernel.stats().faults, 1u);
}

TEST(KernelTest, FaultDedupIssuesOneRead) {
  Rig rig(MageLibConfig());
  rig.kernel.Prepopulate(100);
  WaitGroup wg;
  for (int i = 0; i < 4; ++i) {
    wg.Add();
    rig.engine.Spawn([](Rig& rig, WaitGroup& wg, CoreId c) -> Task<> {
      co_await rig.kernel.Fault(c, 700, false);
      wg.Done();
    }(rig, wg, i));
  }
  rig.engine.Run();
  EXPECT_EQ(rig.kernel.stats().faults, 1u);
  EXPECT_EQ(rig.kernel.stats().dedup_waits, 3u);
  EXPECT_EQ(rig.fleet.nic(0).reads_posted(), 1u);
}

TEST(KernelTest, EvictBatchFreesPagesAndWritesDirty) {
  Rig rig(MageLibConfig());
  rig.kernel.Prepopulate(1000);
  // Dirty the first 50 resident pages.
  for (uint64_t v = 0; v < 50; ++v) rig.kernel.TryFastAccess(v, /*write=*/true);
  uint64_t free_before = rig.kernel.free_pages();
  rig.engine.Spawn([](Rig& rig) -> Task<> {
    size_t got = co_await rig.kernel.EvictBatchSequential(0, 7, 256);
    EXPECT_EQ(got, 256u);
  }(rig));
  rig.engine.Run();
  EXPECT_EQ(rig.kernel.free_pages(), free_before + 256);
  EXPECT_EQ(rig.kernel.stats().evicted_pages, 256u);
  // Only dirtied pages hit the write channel; the rest reclaim clean.
  EXPECT_LE(rig.fleet.nic(0).writes_posted(), 50u);
  EXPECT_GT(rig.kernel.stats().clean_reclaims, 0u);
  EXPECT_GT(rig.tlb.shootdowns(), 0u);
}

TEST(KernelTest, SecondChanceProtectsHotPages) {
  Rig rig(MageLibConfig());
  rig.kernel.Prepopulate(512);
  // Half the resident pages become hot; the rest stay cold.
  std::vector<uint64_t> resident = ResidentVpns(rig.kernel, 512);
  for (size_t i = 0; i < 256; ++i) rig.kernel.TryFastAccess(resident[i], false);
  rig.engine.Spawn([](Rig& rig) -> Task<> {
    co_await rig.kernel.EvictBatchSequential(0, 7, 128);
  }(rig));
  rig.engine.Run();
  // Hot pages survive.
  uint64_t hot_evicted = 0;
  for (size_t i = 0; i < 256; ++i) {
    if (!rig.kernel.page_table().At(resident[i]).present) ++hot_evicted;
  }
  EXPECT_EQ(hot_evicted, 0u);
}

TEST(KernelTest, MageFaultPathNeverSyncEvicts) {
  KernelConfig cfg = MageLibConfig();
  Rig rig(cfg, /*local=*/512, /*wss=*/4096);
  rig.kernel.Prepopulate(512 - 64);
  rig.kernel.Start(8);
  WaitGroup wg;
  for (int t = 0; t < 8; ++t) {
    wg.Add();
    rig.engine.Spawn([](Rig& rig, WaitGroup& wg, int t) -> Task<> {
      for (uint64_t i = 0; i < 200; ++i) {
        uint64_t vpn = 512 + static_cast<uint64_t>(t) * 400 + i;
        co_await rig.kernel.Fault(t, vpn, false);
      }
      wg.Done();
    }(rig, wg, t));
  }
  rig.engine.Spawn([](Rig& rig, WaitGroup& wg) -> Task<> {
    co_await wg.Wait();
    Engine::current().RequestShutdown();
    rig.kernel.accounting();  // keep rig alive through shutdown
  }(rig, wg));
  rig.engine.Run();
  EXPECT_EQ(rig.kernel.stats().sync_evictions, 0u);
  // Some target pages may have been prepopulated (spread residency); the
  // bulk must still be real major faults.
  EXPECT_GT(rig.kernel.stats().faults, 1300u);
  EXPECT_GT(rig.kernel.stats().evicted_pages, 800u);
}

TEST(KernelTest, HermitFaultPathSyncEvictsUnderPressure) {
  KernelConfig cfg = HermitConfig();
  cfg.num_evictors = 1;  // starve the async path
  Rig rig(cfg, /*local=*/512, /*wss=*/8192);
  rig.kernel.Prepopulate(512 - 20);
  rig.kernel.Start(8);
  WaitGroup wg;
  for (int t = 0; t < 8; ++t) {
    wg.Add();
    rig.engine.Spawn([](Rig& rig, WaitGroup& wg, int t) -> Task<> {
      for (uint64_t i = 0; i < 150; ++i) {
        uint64_t vpn = 600 + static_cast<uint64_t>(t) * 600 + i;
        co_await rig.kernel.Fault(t, vpn, false);
      }
      wg.Done();
    }(rig, wg, t));
  }
  rig.engine.Spawn([](WaitGroup& wg) -> Task<> {
    co_await wg.Wait();
    Engine::current().RequestShutdown();
  }(wg));
  rig.engine.Run();
  EXPECT_GT(rig.kernel.stats().sync_evictions, 0u);
}

TEST(KernelTest, InstantReclaimMakesPageFaultAgain) {
  Rig rig(MageLibConfig());
  rig.kernel.Prepopulate(100);
  uint64_t v = ResidentVpns(rig.kernel, 1)[0];
  EXPECT_TRUE(rig.kernel.TryFastAccess(v, false));
  rig.kernel.InstantReclaim(v);
  EXPECT_FALSE(rig.kernel.TryFastAccess(v, false));
  EXPECT_EQ(rig.kernel.accounting().tracked_pages(), 99u);
}

// A prefetched page evicted before its first touch was a wasted prefetch: when
// it is faulted back in, its next hit is a plain hit, not a prefetch hit.
TEST(KernelTest, PrefetchEvictedUntouchedIsNoPrefetchHit) {
  KernelConfig cfg = MageLibConfig();
  cfg.prefetch = true;
  Rig rig(cfg);
  rig.kernel.Prepopulate(0);
  rig.kernel.Start(8);
  uint64_t wasted = ~0ULL;
  uint64_t hits_before = 0;
  rig.engine.Spawn([](Rig& rig, uint64_t& wasted, uint64_t& hits_before) -> Task<> {
    Kernel& k = rig.kernel;
    // A sequential fault stream engages read-ahead past the faulting page.
    for (uint64_t v = 0; v < 64 && wasted == ~0ULL; ++v) {
      while (!k.TryFastAccess(v, false)) co_await k.Fault(0, v, false);
      co_await Delay{50 * kMicrosecond};  // let the read-ahead land
      for (uint64_t w = v + 1; w < k.wss_pages() && wasted == ~0ULL; ++w) {
        const Pte& pte = k.page_table().At(w);
        if (pte.present && pte.prefetched && !pte.fault_in_flight) wasted = w;
      }
    }
    if (wasted != ~0ULL) {
      hits_before = k.stats().prefetch_hits;
      k.InstantReclaim(wasted);
      co_await k.Fault(0, wasted, false);
      EXPECT_TRUE(k.TryFastAccess(wasted, false));
    }
    Engine::current().RequestShutdown();
  }(rig, wasted, hits_before));
  rig.engine.Run();
  ASSERT_NE(wasted, ~0ULL) << "read-ahead never engaged";
  EXPECT_FALSE(rig.kernel.page_table().At(wasted).prefetched);
  EXPECT_EQ(rig.kernel.stats().prefetch_hits, hits_before);
}

TEST(KernelTest, IdealVariantFaultIsPureRdma) {
  Rig rig(IdealConfig());
  rig.kernel.Prepopulate(100);
  SimTime elapsed = -1;
  rig.engine.Spawn([](Rig& rig, SimTime& elapsed) -> Task<> {
    SimTime t0 = Engine::current().now();
    co_await rig.kernel.Fault(0, 2000, false);
    elapsed = Engine::current().now() - t0;
  }(rig, elapsed));
  rig.engine.Run();
  EXPECT_NEAR(static_cast<double>(elapsed), 3900.0, 60.0);
}

TEST(KernelTest, IdealVariantNeverRunsOutOfPages) {
  Rig rig(IdealConfig(), /*local=*/256, /*wss=*/4096);
  rig.kernel.Prepopulate(200);
  WaitGroup wg;
  wg.Add();
  rig.engine.Spawn([](Rig& rig, WaitGroup& wg) -> Task<> {
    for (uint64_t v = 300; v < 1800; ++v) {
      co_await rig.kernel.Fault(0, v, false);
    }
    wg.Done();
  }(rig, wg));
  rig.engine.Run();
  EXPECT_GE(rig.kernel.stats().faults, 1400u);  // minus spread-resident hits
  EXPECT_LE(rig.kernel.stats().faults, 1500u);
  EXPECT_EQ(rig.kernel.stats().sync_evictions, 0u);
  EXPECT_EQ(rig.kernel.stats().free_page_waits, 0u);
}

TEST(KernelsTest, PresetsAreInternallyConsistent) {
  for (const auto& cfg : AllSystemConfigs()) {
    if (cfg.variant == Variant::kMageLib || cfg.variant == Variant::kMageLnx) {
      EXPECT_FALSE(cfg.allow_sync_eviction) << cfg.name;
      EXPECT_TRUE(cfg.pipelined_eviction) << cfg.name;
      EXPECT_EQ(cfg.accounting, AccountingPolicy::kPartitionedFifo) << cfg.name;
      EXPECT_EQ(cfg.evict_batch_pages, 256) << cfg.name;
    } else {
      EXPECT_TRUE(cfg.allow_sync_eviction) << cfg.name;
      EXPECT_FALSE(cfg.pipelined_eviction) << cfg.name;
      EXPECT_EQ(cfg.accounting, AccountingPolicy::kGlobalLru) << cfg.name;
    }
  }
  EXPECT_EQ(ConfigByName("hermit").variant, Variant::kHermit);
  EXPECT_THROW(ConfigByName("bogus"), std::invalid_argument);
  // Fastswap: pre-Hermit Linux design point.
  KernelConfig fs = FastswapConfig();
  EXPECT_EQ(fs.num_evictors, 1);
  EXPECT_TRUE(fs.allow_sync_eviction);
  EXPECT_FALSE(fs.feedback_evictors);
  EXPECT_EQ(ConfigByName("fastswap").name, "fastswap");
}

}  // namespace
}  // namespace magesim
