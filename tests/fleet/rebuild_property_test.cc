// Property: under a randomized crash/recover schedule — including crashes
// landing mid-rebuild — no slot is ever left with zero live replicas
// unreported. Loss is allowed (crash both holders of a k=2 slot), silence is
// not: the replica-safety sweep must stay clean at every step and the repair
// queue must fully drain once the chaos stops.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/hw/machine_params.h"
#include "src/hw/memnode.h"
#include "src/hw/rdma.h"
#include "src/resilience/rebuild.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace magesim {
namespace {

constexpr uint64_t kSlots = 512;

struct ChaosRig {
  MachineParams params = BareMetalParams();
  RdmaNic nic0{params, 0};
  MemoryNode node0{64ull << 20, 0};
  FleetManager fleet;
  RebuildDriver rebuild;

  ChaosRig(int nodes, int replicas, uint64_t seed)
      : fleet(nic0, node0, params,
              FleetManager::Options{.num_nodes = nodes,
                                    .replication = replicas,
                                    .seed = seed}),
        rebuild(fleet, RebuildOptions{.rebuild_gbps = 100.0}) {
    node0.RegisterSetup();
    fleet.Prepopulate(kSlots);
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
    rig->fleet.node(victim).SetAvailable(false);
    rig->fleet.OnNodeCrash(victim);
    // The invariant must hold at the worst instant: right after the crash,
    // with rebuild possibly mid-burst.
    *max_silent = std::max(*max_silent, rig->fleet.CheckConsistency());
    co_await Delay{100 * kMicrosecond +
                   static_cast<SimTime>(rng.NextU64(600 * kMicrosecond))};
    rig->fleet.node(victim).SetAvailable(true);
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
    r->fleet.node(0).SetAvailable(false);
    r->fleet.OnNodeCrash(0);
    co_await Delay{20 * kMicrosecond};  // rebuild barely started
    r->fleet.node(1).SetAvailable(false);
    r->fleet.OnNodeCrash(1);
    EXPECT_EQ(r->fleet.CheckConsistency(), 0u);
    co_await Delay{500 * kMicrosecond};
    r->fleet.node(0).SetAvailable(true);
    r->fleet.OnNodeRecover(0);
    r->fleet.node(1).SetAvailable(true);
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

}  // namespace
}  // namespace magesim
