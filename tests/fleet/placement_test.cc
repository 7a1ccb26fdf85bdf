// Placement determinism: the consistent-hash map is a pure function of
// (seed, fleet size, replication, vnodes) — same inputs give an identical
// slot -> (node, replica) map on every run, and a whole fleet machine run
// with the same seed emits a byte-identical trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <vector>

#include "src/core/farmem.h"
#include "src/fleet/placement.h"
#include "src/trace/trace.h"
#include "src/workloads/gups.h"

namespace magesim {
namespace {

constexpr uint64_t kSlots = 4096;

TEST(PlacementTest, SameSeedSameMap) {
  PlacementMap a(7, 4, 2);
  PlacementMap b(7, 4, 2);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  for (uint64_t slot = 0; slot < kSlots; ++slot) {
    ReplicaSet ra = a.ReplicasOf(slot);
    ReplicaSet rb = b.ReplicasOf(slot);
    ASSERT_EQ(ra.count, rb.count);
    for (int i = 0; i < ra.count; ++i) {
      ASSERT_EQ(ra.node[i], rb.node[i]) << "slot " << slot << " replica " << i;
    }
  }
}

// The map before its arc table: the ring built the same way, a
// std::lower_bound for the slot's hash and a clockwise walk per lookup.
class ReferenceRing {
 public:
  ReferenceRing(uint64_t seed, int num_nodes, int replication, int vnodes = 64)
      : seed_(seed), nodes_(num_nodes) {
    replication_ = std::clamp(replication, 1, std::min(nodes_, kMaxReplicas));
    for (int n = 0; n < nodes_; ++n) {
      for (int v = 0; v < vnodes; ++v) {
        ring_.push_back({Mix64(seed_ ^ Mix64((static_cast<uint64_t>(n) << 32) |
                                             static_cast<uint64_t>(v))),
                         n});
      }
    }
    std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
      return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
    });
  }
  uint64_t SlotHash(uint64_t slot) const { return Mix64(seed_ ^ Mix64(slot)); }
  ReplicaSet At(uint64_t h) const {
    ReplicaSet out;
    size_t at = static_cast<size_t>(
        std::lower_bound(ring_.begin(), ring_.end(), h,
                         [](const Point& p, uint64_t v) { return p.hash < v; }) -
        ring_.begin());
    for (size_t i = 0; i < ring_.size() && out.count < replication_; ++i, ++at) {
      if (at == ring_.size()) at = 0;
      int node = ring_[at].node;
      bool seen = false;
      for (int j = 0; j < out.count; ++j) seen |= out.node[j] == node;
      if (!seen) out.node[out.count++] = node;
    }
    return out;
  }
  uint64_t Fingerprint() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    mix(static_cast<uint64_t>(nodes_));
    mix(static_cast<uint64_t>(replication_));
    for (const Point& p : ring_) {
      mix(p.hash);
      mix(static_cast<uint64_t>(p.node));
    }
    return h;
  }
  // Every ring position worth probing: each point, its neighbours, and both
  // ends of the hash space (the wrap-around arc).
  std::vector<uint64_t> EdgeHashes() const {
    std::vector<uint64_t> hs = {0, 1, std::numeric_limits<uint64_t>::max()};
    for (const Point& p : ring_) {
      hs.push_back(p.hash);
      hs.push_back(p.hash - 1);
      hs.push_back(p.hash + 1);
    }
    return hs;
  }

 private:
  struct Point {
    uint64_t hash;
    int node;
  };
  static uint64_t Mix64(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  uint64_t seed_;
  int nodes_;
  int replication_;
  std::vector<Point> ring_;
};

void ExpectSameSet(const ReplicaSet& got, const ReplicaSet& want, const char* what,
                   uint64_t key) {
  ASSERT_EQ(got.count, want.count) << what << " " << key;
  for (int i = 0; i < got.count; ++i) {
    ASSERT_EQ(got.node[i], want.node[i]) << what << " " << key << " replica " << i;
  }
}

// The arc table gives the walk's sets in the walk's order for every slot and
// every arc edge, including hashes equal to a ring point and the arc that
// wraps past the last point; the ring and its Fingerprint() are unchanged.
TEST(PlacementTest, ArcTableEqualsRingWalk) {
  for (uint64_t seed : {1ULL, 7ULL, 0xdeadbeefULL}) {
    for (int nodes : {2, 3, 4, 7, 16}) {
      for (int k : {1, 2, 3, 8}) {
        PlacementMap map(seed, nodes, k);
        ReferenceRing ref(seed, nodes, k);
        ASSERT_EQ(map.Fingerprint(), ref.Fingerprint());
        for (uint64_t slot = 0; slot < 2048; ++slot) {
          ExpectSameSet(map.ReplicasOf(slot), ref.At(ref.SlotHash(slot)), "slot", slot);
        }
        for (uint64_t h : ref.EdgeHashes()) {
          ExpectSameSet(map.ReplicasAtHash(h), ref.At(h), "hash", h);
        }
      }
    }
  }
  // Few points per server: long arcs, few buckets.
  PlacementMap sparse(3, 5, 3, /*vnodes_per_node=*/1);
  ReferenceRing ref(3, 5, 3, /*vnodes=*/1);
  ASSERT_EQ(sparse.Fingerprint(), ref.Fingerprint());
  for (uint64_t h : ref.EdgeHashes()) ExpectSameSet(sparse.ReplicasAtHash(h), ref.At(h), "hash", h);
}

TEST(PlacementTest, DifferentSeedDifferentMap) {
  PlacementMap a(7, 4, 2);
  PlacementMap b(8, 4, 2);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  uint64_t moved = 0;
  for (uint64_t slot = 0; slot < kSlots; ++slot) {
    if (a.PrimaryOf(slot) != b.PrimaryOf(slot)) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST(PlacementTest, ReplicasAreDistinctNodes) {
  PlacementMap p(3, 4, 3);
  for (uint64_t slot = 0; slot < kSlots; ++slot) {
    ReplicaSet r = p.ReplicasOf(slot);
    ASSERT_EQ(r.count, 3);
    std::set<int> distinct;
    for (int i = 0; i < r.count; ++i) {
      ASSERT_GE(r.node[i], 0);
      ASSERT_LT(r.node[i], 4);
      distinct.insert(r.node[i]);
    }
    ASSERT_EQ(distinct.size(), 3u) << "slot " << slot;
  }
}

TEST(PlacementTest, ReplicationClampedToFleetSize) {
  PlacementMap p(3, 2, 5);
  EXPECT_EQ(p.replication(), 2);
  PlacementMap q(3, 4, 0);
  EXPECT_EQ(q.replication(), 1);
}

TEST(PlacementTest, EveryNodeOwnsSomeSlots) {
  PlacementMap p(11, 4, 2);
  std::array<uint64_t, 4> primaries{};
  for (uint64_t slot = 0; slot < kSlots; ++slot) {
    primaries[static_cast<size_t>(p.PrimaryOf(slot))]++;
  }
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(primaries[static_cast<size_t>(n)], 0u) << "node " << n;
  }
}

// Tentpole determinism gate: a 4-server, 2-replica machine run is
// byte-identical across same-seed runs (events, order, timestamps).
TEST(PlacementTest, FleetMachineSameSeedByteIdenticalTrace) {
  auto run = [](uint64_t seed) {
    GupsWorkload wl(GupsWorkload::Options{.total_pages = 2048,
                                          .threads = 2,
                                          .phase_change_at = 4 * kMillisecond,
                                          .run_for = 8 * kMillisecond,
                                          .prewarm_region_a = false});
    FarMemoryMachine::Options opt;
    opt.kernel = MageLibConfig();
    opt.local_mem_ratio = 0.5;
    opt.seed = seed;
    opt.fleet.num_nodes = 4;
    opt.fleet.replication = 2;

    Tracer tracer;
    TraceHashSink hash;
    tracer.AddSink(&hash);
    tracer.Install();
    FarMemoryMachine m(opt, wl);
    m.Run();
    return std::pair<uint64_t, uint64_t>(hash.hash(), hash.total_events());
  };
  auto a = run(5);
  auto b = run(5);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  ASSERT_GT(a.second, 0u);
  auto c = run(6);
  EXPECT_NE(a.first, c.first);
}

}  // namespace
}  // namespace magesim
