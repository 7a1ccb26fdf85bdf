// Property: under a randomized crash/recover schedule — including crashes
// landing mid-rebuild — no slot is ever left with zero live replicas
// unreported. Loss is allowed (crash both holders of a k=2 slot), silence is
// not: the replica-safety sweep must stay clean at every step and the repair
// queue must fully drain once the chaos stops. The timing tests pin what a
// repair costs: its read, its write and the pace gap, with a lost op failing
// only once it is overdue by the retry grace; a stale entry costs nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/hw/machine_params.h"
#include "src/hw/rdma.h"
#include "src/resilience/fault_injector.h"
#include "src/resilience/fault_plan.h"
#include "src/resilience/rebuild.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace magesim {
namespace {

constexpr uint64_t kSlots = 512;

struct ChaosRig {
  MachineParams params = BareMetalParams();
  FleetManager fleet;
  RebuildDriver rebuild;

  ChaosRig(int nodes, int replicas, uint64_t seed, uint64_t slots = kSlots)
      : fleet(params, FleetManager::Options{.num_nodes = nodes,
                                            .replication = replicas,
                                            .seed = seed}),
        rebuild(fleet, /*rebuild_gbps=*/100.0, RetryPolicy{}) {
    fleet.Prepopulate(slots);
  }
};

Task<> ChaosTask(ChaosRig* rig, uint64_t seed, int episodes,
                 uint64_t* max_silent) {
  Rng rng(seed);
  int nodes = rig->fleet.num_nodes();
  for (int e = 0; e < episodes; ++e) {
    co_await Delay{50 * kMicrosecond +
                   static_cast<SimTime>(rng.NextU64(400 * kMicrosecond))};
    int victim = static_cast<int>(rng.NextU64(static_cast<uint64_t>(nodes)));
    rig->fleet.OnNodeCrash(victim);
    // The invariant must hold at the worst instant: right after the crash,
    // with rebuild possibly mid-burst.
    *max_silent = std::max(*max_silent, rig->fleet.CheckConsistency());
    co_await Delay{100 * kMicrosecond +
                   static_cast<SimTime>(rng.NextU64(600 * kMicrosecond))};
    rig->fleet.OnNodeRecover(victim);
    *max_silent = std::max(*max_silent, rig->fleet.CheckConsistency());
  }
}

TEST(RebuildPropertyTest, CrashDuringRebuildNeverLosesSlotsSilently) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    ChaosRig rig(4, 2, seed);
    Engine eng;
    rig.rebuild.Start(eng);
    uint64_t max_silent = 0;
    eng.Spawn(ChaosTask(&rig, seed * 31 + 5, 12, &max_silent));
    eng.Run();

    EXPECT_EQ(max_silent, 0u) << "seed " << seed;
    EXPECT_EQ(rig.fleet.CheckConsistency(), 0u) << "seed " << seed;
    // Chaos over, every node live: the queue must drain to nothing and every
    // slot must be either fully re-replicated or (if both holders died in
    // one episode) surfaced as lost.
    EXPECT_EQ(rig.fleet.rebuild_pending(), 0u) << "seed " << seed;
    for (uint64_t s = 0; s < kSlots; ++s) {
      bool ok = rig.fleet.HasLiveCopy(s) || rig.fleet.IsLostReported(s);
      ASSERT_TRUE(ok) << "seed " << seed << " slot " << s;
      if (rig.fleet.HasLiveCopy(s)) {
        EXPECT_EQ(rig.fleet.RebuildTargetFor(s), -1)
            << "seed " << seed << " slot " << s << " still under-replicated";
      }
    }
    EXPECT_GT(rig.fleet.slots_rebuilt(), 0u) << "seed " << seed;
  }
}

// Two concurrent overlapping crashes of a k=2 fleet can lose slots; every
// loss must be surfaced, and survivors must still converge.
TEST(RebuildPropertyTest, DoubleCrashSurfacesLossAndConverges) {
  ChaosRig rig(4, 2, 77);
  Engine eng;
  rig.rebuild.Start(eng);
  eng.Spawn([](ChaosRig* r) -> Task<> {
    co_await Delay{100 * kMicrosecond};
    r->fleet.OnNodeCrash(0);
    co_await Delay{20 * kMicrosecond};  // rebuild barely started
    r->fleet.OnNodeCrash(1);
    EXPECT_EQ(r->fleet.CheckConsistency(), 0u);
    co_await Delay{500 * kMicrosecond};
    r->fleet.OnNodeRecover(0);
    r->fleet.OnNodeRecover(1);
  }(&rig));
  eng.Run();

  // Slots whose both desired holders were 0 and 1 are gone — and said so.
  EXPECT_GT(rig.fleet.slots_lost(), 0u);
  EXPECT_EQ(rig.fleet.CheckConsistency(), 0u);
  EXPECT_EQ(rig.fleet.rebuild_pending(), 0u);
  for (uint64_t s = 0; s < kSlots; ++s) {
    ASSERT_TRUE(rig.fleet.HasLiveCopy(s) || rig.fleet.IsLostReported(s)) << s;
  }
}

// Leaves only each slot's primary holding a copy, which queues one repair
// per slot.
void QueuePrimaryOnly(FleetManager& fleet, uint64_t slots) {
  for (uint64_t s = 0; s < slots; ++s) {
    fleet.CommitWrite(s, static_cast<uint16_t>(1u << fleet.DesiredReplicas(s).node[0]));
  }
}

// The driver awaits its ops through DeadlineWait: a completed op is done at
// its completion, so one repair after another costs read + write + pace gap
// each, and the grace is spent only on an op that never completes.
TEST(RebuildTimingTest, RepairsCostTheirOpsAndThePaceGap) {
  constexpr uint64_t kRepairs = 64;
  ChaosRig rig(4, 2, 5);
  Engine eng;
  QueuePrimaryOnly(rig.fleet, kRepairs);
  ASSERT_EQ(rig.fleet.rebuild_pending(), kRepairs);
  rig.rebuild.Start(eng);
  eng.Run();

  EXPECT_EQ(rig.rebuild.pages_rebuilt(), kRepairs);
  EXPECT_EQ(rig.rebuild.repair_failures(), 0u);
  EXPECT_EQ(rig.fleet.rebuild_pending(), 0u);
  // Idle links: each op takes the unloaded latency; 100 Gbps paces 4 KB
  // pages 327 ns apart, and the gap follows every repair.
  const SimTime gap = static_cast<SimTime>(kPageSize * 8.0 / 100.0);
  const SimTime per_repair = 2 * rig.params.UnloadedRdmaNs() + gap;
  EXPECT_GE(eng.now(), static_cast<SimTime>(kRepairs) * per_repair);
  EXPECT_LE(eng.now(), static_cast<SimTime>(kRepairs) * per_repair + kMicrosecond);
}

// A stale entry (its slot healed before the driver reached it) posts no op
// and so costs no pace gap: a long run of them drains in zero simulated time
// (and, awaiting nothing, in constant stack), and the real repairs queued
// behind them cost what they always do.
TEST(RebuildTimingTest, StaleEntriesDrainWithoutPaceGaps) {
  constexpr uint64_t kStale = 1 << 16;
  constexpr uint64_t kReal = 32;
  ChaosRig rig(4, 2, 5, kStale + kReal);
  Engine eng;
  QueuePrimaryOnly(rig.fleet, kStale + kReal);
  for (uint64_t s = 0; s < kStale; ++s) {
    rig.fleet.CommitWrite(s, rig.fleet.DesiredReplicas(s).Mask());  // healed
  }
  ASSERT_EQ(rig.fleet.rebuild_pending(), kStale + kReal);
  rig.rebuild.Start(eng);
  eng.Run();

  EXPECT_EQ(rig.rebuild.pages_rebuilt(), kReal);
  EXPECT_EQ(rig.fleet.rebuild_pending(), 0u);
  const SimTime gap = static_cast<SimTime>(kPageSize * 8.0 / 100.0);
  const SimTime per_repair = 2 * rig.params.UnloadedRdmaNs() + gap;
  EXPECT_GE(eng.now(), static_cast<SimTime>(kReal) * per_repair);
  EXPECT_LE(eng.now(), static_cast<SimTime>(kReal) * per_repair + kMicrosecond);
}

TEST(RebuildTimingTest, DroppedOpFailsAtItsDeadlineAndRequeuesTheSlot) {
  ChaosRig rig(4, 2, 5);
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::Parse("drop@0-200us:p=1", &plan, &err)) << err;
  FaultInjector injector(std::move(plan), 1);
  rig.fleet.SetFaultModelAll(&injector);
  Engine eng;
  QueuePrimaryOnly(rig.fleet, 1);
  rig.rebuild.Start(eng);
  // The first read, posted at 0, is lost: it fails once overdue by the grace.
  const SimTime deadline = rig.params.UnloadedRdmaNs() + RetryPolicy{}.op_grace_ns;
  uint64_t failures_before = 0;
  uint64_t failures_after = 0;
  eng.Spawn([](ChaosRig* r, SimTime at, uint64_t* before, uint64_t* after) -> Task<> {
    co_await Delay{at - 1};
    *before = r->rebuild.repair_failures();
    co_await Delay{2};
    *after = r->rebuild.repair_failures();
  }(&rig, deadline, &failures_before, &failures_after));
  eng.Run();

  EXPECT_EQ(failures_before, 0u);
  EXPECT_EQ(failures_after, 1u);
  // The window outlasts the burst's four attempts, so the slot goes back on
  // the queue and is repaired once the window has closed.
  EXPECT_EQ(rig.rebuild.repair_failures(), 4u);
  EXPECT_EQ(rig.fleet.repairs_queued(), 2u);
  EXPECT_EQ(rig.rebuild.pages_rebuilt(), 1u);
  EXPECT_EQ(rig.fleet.RebuildTargetFor(0), -1);
  EXPECT_GT(injector.drops_injected(), 0u);
}

}  // namespace
}  // namespace magesim
