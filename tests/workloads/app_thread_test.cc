// AppThread's access fast path: TryAccessPage either performs exactly one
// awaited access's hit or refuses with no side effect, so a workload's plain
// hit run can hand any miss to the awaited path without changing the run.
#include "src/workloads/workload.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/paging/kernels.h"
#include "src/sim/engine.h"

namespace magesim {
namespace {

struct Rig {
  Rig()
      : params(BareMetalParams()),
        topo(params),
        tlb(topo),
        nic(params),
        memnode(kWss * kPageSize),
        fleet(nic, memnode, params, FleetManager::Options{}),
        resilience(fleet, ResilienceOptions{}),
        kernel(MageLibConfig(), topo, tlb, resilience, /*local_pages=*/1024, kWss),
        thread(kernel, /*core=*/0, /*seed=*/1) {
    kernel.Prepopulate(512);
  }
  static constexpr uint64_t kWss = 2048;
  Engine engine;
  MachineParams params;
  Topology topo;
  TlbShootdownManager tlb;
  RdmaNic nic;
  MemoryNode memnode;
  FleetManager fleet;
  ResilienceManager resilience;
  Kernel kernel;
  AppThread thread;

  std::vector<uint64_t> Resident(size_t n) {
    std::vector<uint64_t> out;
    for (uint64_t v = 0; v < kWss && out.size() < n; ++v) {
      if (kernel.page_table().At(v).present) out.push_back(v);
    }
    return out;
  }
  uint64_t NonResident() {
    for (uint64_t v = 0; v < kWss; ++v) {
      if (!kernel.page_table().At(v).present) return v;
    }
    return 0;
  }
};

// Everything a hit may change: the page's PTE bits, the kernel's hit
// counters, and the thread's pending (not yet flushed) time.
struct HitState {
  bool accessed, dirty, remote_valid, prefetched;
  uint64_t fast_hits, prefetch_hits;
  SimTime pending;

  static HitState Of(Rig& rig, uint64_t vpn) {
    const Pte& pte = rig.kernel.page_table().At(vpn);
    return {pte.accessed,
            pte.dirty,
            pte.remote_valid,
            pte.prefetched,
            rig.kernel.stats().fast_hits,
            rig.kernel.stats().prefetch_hits,
            rig.thread.logical_now() - rig.engine.now()};
  }
  bool operator==(const HitState&) const = default;
};

TEST(AppThreadTest, TryAccessPageRefusesANonPresentPageUntouched) {
  Rig rig;
  uint64_t v = rig.NonResident();
  HitState before = HitState::Of(rig, v);
  EXPECT_FALSE(rig.thread.TryAccessPage(v, /*write=*/true));
  EXPECT_EQ(HitState::Of(rig, v), before);
}

TEST(AppThreadTest, TryAccessPageRefusesOnceTheQuantumIsExceeded) {
  Rig rig;
  uint64_t v = rig.Resident(1)[0];
  rig.kernel.page_table().At(v).prefetched = true;
  rig.thread.Compute(kAppQuantum);
  HitState before = HitState::Of(rig, v);
  EXPECT_FALSE(before.accessed);  // prepopulated pages start unreferenced
  EXPECT_FALSE(rig.thread.TryAccessPage(v, /*write=*/true));
  EXPECT_EQ(HitState::Of(rig, v), before);
}

TEST(AppThreadTest, TryAccessPageRefusesAfterNewlyStolenTime) {
  Rig rig;
  uint64_t v = rig.Resident(1)[0];
  rig.kernel.page_table().At(v).prefetched = true;
  rig.topo.core(0).AddStolenTime(500);  // a flush IPI's handler ran on core 0
  HitState before = HitState::Of(rig, v);
  EXPECT_FALSE(rig.thread.TryAccessPage(v, /*write=*/true));
  EXPECT_EQ(HitState::Of(rig, v), before);
}

// One access to a resident page marked prefetched, on a fresh rig: a plain
// TryAccessPage call, or one awaited access. Returns the page's state before
// and after.
std::pair<HitState, HitState> OneHit(bool write, bool awaited) {
  Rig rig;
  uint64_t v = rig.Resident(1)[0];
  rig.kernel.page_table().At(v).prefetched = true;
  HitState before = HitState::Of(rig, v);
  if (awaited) {
    rig.engine.Spawn([](AppThread& t, uint64_t vpn, bool write) -> Task<> {
      co_await t.AccessPage(vpn, write);
    }(rig.thread, v, write));
    rig.engine.Run();
  } else {
    EXPECT_TRUE(rig.thread.TryAccessPage(v, write));
  }
  EXPECT_EQ(rig.engine.now(), 0);
  return {before, HitState::Of(rig, v)};
}

// On a hit, TryAccessPage has the effects of one awaited access: the same
// PTE bits, one fast hit, one prefetch hit on a prefetched page, and no time.
TEST(AppThreadTest, TryAccessPageHitEqualsOneAwaitedAccess) {
  for (bool write : {false, true}) {
    auto [before, after] = OneHit(write, /*awaited=*/false);
    EXPECT_EQ(OneHit(write, /*awaited=*/true), std::make_pair(before, after));
    EXPECT_TRUE(after.accessed);
    EXPECT_EQ(after.dirty, write);
    EXPECT_EQ(after.remote_valid, !write);
    EXPECT_FALSE(after.prefetched);
    EXPECT_EQ(after.fast_hits, before.fast_hits + 1);
    EXPECT_EQ(after.prefetch_hits, before.prefetch_hits + 1);
    EXPECT_EQ(after.pending, before.pending);
  }
}

}  // namespace
}  // namespace magesim
