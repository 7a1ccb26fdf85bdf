// FleetManager replica-table semantics: prepopulation, read/write target
// resolution, crash bookkeeping (surfaced loss, never silent, and crash
// episodes counted per server), repair queueing, and recovery-driven
// re-replication.
#include <gtest/gtest.h>

#include <string>

#include "src/fleet/fleet.h"
#include "src/hw/machine_params.h"
#include "src/resilience/fault_injector.h"
#include "src/resilience/fault_plan.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace magesim {
namespace {

constexpr uint64_t kSlots = 256;

struct FleetFixture {
  MachineParams params = BareMetalParams();
  FleetManager fleet;

  explicit FleetFixture(int nodes, int replicas, uint64_t seed = 9)
      : fleet(params, FleetManager::Options{.num_nodes = nodes,
                                            .replication = replicas,
                                            .seed = seed}) {
    fleet.Prepopulate(kSlots);
  }
};

// Runs `plan`'s episodes against `fleet` through a FaultInjector, tracing
// into `hash`.
void RunPlan(FleetManager& fleet, const std::string& plan_text, TraceHashSink& hash) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::Parse(plan_text, &plan, &err)) << err;
  FaultInjector injector(std::move(plan), /*seed=*/1);
  Tracer tracer;
  tracer.AddSink(&hash);
  tracer.Install();
  Engine eng;
  injector.Start(eng, fleet);
  eng.Run();
  tracer.Uninstall();
}

// The per-slot replica table Prepopulate stores is the placement map's
// answer for every slot, order included, at every fleet shape up to the
// largest (16 servers, 8 replicas: four packed bytes per slot).
TEST(FleetTest, DesiredReplicaTableEqualsPlacementMap) {
  for (uint64_t seed : {1ull, 9ull, 12345ull}) {
    for (int nodes : {1, 2, 3, 4, 7, 16}) {
      for (int replicas : {1, 2, 3, 8}) {
        FleetFixture f(nodes, replicas, seed);
        for (uint64_t s = 0; s < kSlots; ++s) {
          ReplicaSet want = f.fleet.placement().ReplicasOf(s);
          ReplicaSet got = f.fleet.DesiredReplicas(s);
          ASSERT_EQ(got.count, want.count) << seed << "/" << nodes << "/" << replicas;
          for (int i = 0; i < want.count; ++i) {
            ASSERT_EQ(got.node[i], want.node[i])
                << "seed " << seed << " nodes " << nodes << " k " << replicas << " slot "
                << s << " replica " << i;
          }
        }
      }
    }
  }
}

TEST(FleetTest, PrepopulatedSlotsReadFromPrimaryUndegraded) {
  FleetFixture f(4, 2);
  for (uint64_t s = 0; s < kSlots; ++s) {
    FleetManager::ReadTarget t = f.fleet.ReadTargetFor(s);
    EXPECT_EQ(t.node, f.fleet.placement().PrimaryOf(s));
    EXPECT_FALSE(t.degraded);
    EXPECT_TRUE(f.fleet.HasLiveCopy(s));
  }
  EXPECT_EQ(f.fleet.CheckConsistency(), 0u);
}

TEST(FleetTest, CrashFailsOverToSurvivingReplicaDegraded) {
  FleetFixture f(4, 2);
  f.fleet.OnNodeCrash(1);
  for (uint64_t s = 0; s < kSlots; ++s) {
    ReplicaSet desired = f.fleet.DesiredReplicas(s);
    FleetManager::ReadTarget t = f.fleet.ReadTargetFor(s);
    if (desired.node[0] == 1) {
      ASSERT_GE(t.node, 0) << "slot " << s;
      EXPECT_NE(t.node, 1);
      EXPECT_TRUE(t.degraded);
    } else {
      EXPECT_EQ(t.node, desired.node[0]);
      EXPECT_FALSE(t.degraded);
    }
    // k=2: one crash never loses data.
    EXPECT_TRUE(f.fleet.HasLiveCopy(s));
  }
  EXPECT_EQ(f.fleet.slots_lost(), 0u);
  EXPECT_EQ(f.fleet.CheckConsistency(), 0u);
}

TEST(FleetTest, LosingEveryReplicaIsSurfacedNeverSilent) {
  FleetFixture f(2, 2);
  f.fleet.OnNodeCrash(0);
  f.fleet.OnNodeCrash(1);
  EXPECT_EQ(f.fleet.slots_lost(), kSlots);
  for (uint64_t s = 0; s < kSlots; ++s) {
    EXPECT_FALSE(f.fleet.HasLiveCopy(s));
    EXPECT_TRUE(f.fleet.IsLostReported(s));
    EXPECT_LT(f.fleet.ReadTargetFor(s).node, 0);
  }
  // Surfaced loss is accounted loss: the safety sweep stays clean.
  EXPECT_EQ(f.fleet.CheckConsistency(), 0u);
}

TEST(FleetTest, CrashQueuesRepairTowardLiveDesiredReplica) {
  FleetFixture f(4, 2);
  EXPECT_EQ(f.fleet.rebuild_pending(), 0u);
  f.fleet.OnNodeCrash(2);
  // Every slot that lost its node-2 copy is queued immediately; with k=2 the
  // only desired server missing the data is node 2 itself (dead), so the
  // rebuild target resolves to -1 until it comes back.
  EXPECT_GT(f.fleet.rebuild_pending(), 0u);
  f.fleet.OnNodeRecover(2);
  uint64_t slot = 0;
  ASSERT_TRUE(f.fleet.PopRepair(&slot));
  int target = f.fleet.RebuildTargetFor(slot);
  int source = f.fleet.SourceFor(slot);
  EXPECT_EQ(target, 2);
  ASSERT_GE(source, 0);
  EXPECT_NE(source, target);
  f.fleet.AddCopy(slot, target);
  EXPECT_EQ(f.fleet.RebuildTargetFor(slot), -1);
  EXPECT_EQ(f.fleet.slots_rebuilt(), 1u);
}

TEST(FleetTest, RepairQueueDeduplicatesSlots) {
  FleetFixture f(4, 2);
  f.fleet.EnqueueRepair(17);
  f.fleet.EnqueueRepair(17);
  f.fleet.EnqueueRepair(18);
  EXPECT_EQ(f.fleet.rebuild_pending(), 2u);
  uint64_t slot = 0;
  EXPECT_TRUE(f.fleet.PopRepair(&slot));
  EXPECT_EQ(slot, 17u);
  // Popped slots may be queued again (repair retry).
  f.fleet.EnqueueRepair(17);
  EXPECT_EQ(f.fleet.rebuild_pending(), 2u);
}

TEST(FleetTest, CommitWriteZeroAcksSurfacesLoss) {
  FleetFixture f(4, 2);
  f.fleet.CommitWrite(5, 0);
  EXPECT_TRUE(f.fleet.IsLostReported(5));
  EXPECT_EQ(f.fleet.slots_lost(), 1u);
  EXPECT_EQ(f.fleet.CheckConsistency(), 0u);
  // A later successful rewrite (the page was still locally resident) heals it.
  ReplicaSet targets = f.fleet.WriteTargetsFor(5);
  ASSERT_GT(targets.count, 0);
  f.fleet.CommitWrite(5, targets.Mask());
  EXPECT_FALSE(f.fleet.IsLostReported(5));
  EXPECT_TRUE(f.fleet.HasLiveCopy(5));
}

TEST(FleetTest, CommitWritePartialAckQueuesTheMissingReplica) {
  FleetFixture f(4, 3);
  ReplicaSet desired = f.fleet.DesiredReplicas(7);
  ASSERT_EQ(desired.count, 3);
  // Only the primary acked.
  f.fleet.CommitWrite(7, static_cast<uint16_t>(1u << desired.node[0]));
  EXPECT_FALSE(f.fleet.IsLostReported(7));
  EXPECT_GT(f.fleet.rebuild_pending(), 0u);
  EXPECT_EQ(f.fleet.RebuildTargetFor(7), desired.node[1]);
}

TEST(FleetTest, WriteTargetsSkipDeadServers) {
  FleetFixture f(4, 2);
  f.fleet.OnNodeCrash(0);
  for (uint64_t s = 0; s < kSlots; ++s) {
    ReplicaSet t = f.fleet.WriteTargetsFor(s);
    for (int i = 0; i < t.count; ++i) EXPECT_NE(t.node[i], 0);
  }
}

TEST(FleetTest, CrashEpisodesAreCounted) {
  FleetFixture f(3, 2);
  Engine eng;  // the trace clock
  TraceHashSink hash;
  Tracer tracer;
  tracer.AddSink(&hash);
  tracer.Install();
  f.fleet.OnNodeCrash(1);
  f.fleet.OnNodeRecover(1);
  f.fleet.OnNodeCrash(1);
  tracer.Uninstall();
  EXPECT_EQ(f.fleet.crash_episodes(1), 2u);
  EXPECT_EQ(f.fleet.crash_episodes(0), 0u);
  EXPECT_EQ(f.fleet.live_mask(), 0b101);
  EXPECT_EQ(hash.count(TraceEventType::kMemnodeCrash), 2u);
  EXPECT_EQ(hash.count(TraceEventType::kMemnodeRecover), 1u);
}

TEST(FleetTest, CrashEpisodesSumAcrossServers) {
  FleetFixture f(3, 2);
  f.fleet.OnNodeCrash(1);
  f.fleet.OnNodeRecover(1);
  f.fleet.OnNodeCrash(2);
  f.fleet.OnNodeRecover(2);
  EXPECT_EQ(f.fleet.crash_episodes(1), 1u);
  EXPECT_EQ(f.fleet.crash_episodes(2), 1u);
  EXPECT_EQ(f.fleet.crash_episodes(), 2u);
  EXPECT_EQ(f.fleet.live_mask(), 0b111);
}

// Overlapping crash windows on one server are one outage: one episode, one
// crash record, and the server rejoins only when the last window closes.
TEST(FleetTest, OverlappingCrashWindowsCountOneEpisode) {
  FleetFixture f(4, 2);
  TraceHashSink hash;
  RunPlan(f.fleet, "crash@1ms-3ms:node=1;crash@2ms-4ms:node=1", hash);
  EXPECT_EQ(f.fleet.crash_episodes(1), 1u);
  EXPECT_EQ(f.fleet.crash_episodes(), 1u);
  EXPECT_EQ(hash.count(TraceEventType::kFaultWindow), 2u);
  EXPECT_EQ(hash.count(TraceEventType::kMemnodeCrash), 1u);
  EXPECT_EQ(hash.count(TraceEventType::kMemnodeRecover), 1u);
  EXPECT_EQ(f.fleet.live_mask(), 0b1111);
}

// A one-server fleet has nothing to rebuild from: its outage is counted and
// traced, and its replica table stays exactly as it was.
TEST(FleetTest, OneServerOutageCountsOneEpisodeAndKeepsReplicaTable) {
  FleetFixture f(1, 1);
  TraceHashSink hash;
  RunPlan(f.fleet, "crash@1ms-2ms", hash);
  EXPECT_EQ(f.fleet.crash_episodes(0), 1u);
  EXPECT_EQ(hash.count(TraceEventType::kMemnodeCrash), 1u);
  EXPECT_EQ(hash.count(TraceEventType::kMemnodeRecover), 1u);
  EXPECT_EQ(f.fleet.live_mask(), 1u);
  EXPECT_EQ(f.fleet.slots_lost(), 0u);
  EXPECT_EQ(f.fleet.repairs_queued(), 0u);
  EXPECT_EQ(f.fleet.rebuild_pending(), 0u);
  for (uint64_t s = 0; s < kSlots; ++s) {
    FleetManager::ReadTarget t = f.fleet.ReadTargetFor(s);
    ASSERT_EQ(t.node, 0) << "slot " << s;
    EXPECT_FALSE(t.degraded);
    EXPECT_FALSE(f.fleet.IsLostReported(s));
  }
}

}  // namespace
}  // namespace magesim
