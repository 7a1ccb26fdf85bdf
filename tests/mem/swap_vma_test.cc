#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/mem/swap_allocator.h"
#include "src/mem/vma.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"

namespace magesim {
namespace {

TEST(SwapAllocatorTest, AllocatesDistinctSlots) {
  Engine e;
  SwapAllocator swap(1024, 4);
  e.Spawn([](SwapAllocator& s) -> Task<> {
    std::set<uint64_t> slots;
    for (int i = 0; i < 100; ++i) {
      uint64_t slot = co_await s.Alloc(0);
      EXPECT_NE(slot, SwapAllocator::kNoSlot);
      EXPECT_TRUE(slots.insert(slot).second);
    }
    EXPECT_EQ(s.free_slots(), 1024u - 100u);
  }(swap));
  e.Run();
}

TEST(SwapAllocatorTest, FreeMakesSlotReusable) {
  Engine e;
  SwapAllocator swap(4, 1);
  e.Spawn([](SwapAllocator& s) -> Task<> {
    uint64_t a = co_await s.Alloc(0);
    uint64_t b = co_await s.Alloc(0);
    uint64_t c = co_await s.Alloc(0);
    uint64_t d = co_await s.Alloc(0);
    EXPECT_EQ(co_await s.Alloc(0), SwapAllocator::kNoSlot);
    co_await s.Free(b);
    uint64_t again = co_await s.Alloc(0);
    EXPECT_EQ(again, b);
    (void)a;
    (void)c;
    (void)d;
  }(swap));
  e.Run();
}

TEST(SwapAllocatorTest, PerCoreHintsStartStaggered) {
  Engine e;
  SwapAllocator swap(4096, 4);
  e.Spawn([](SwapAllocator& s) -> Task<> {
    uint64_t c0 = co_await s.Alloc(0);
    uint64_t c1 = co_await s.Alloc(1);
    uint64_t c2 = co_await s.Alloc(2);
    // Different cores allocate from different clusters.
    EXPECT_NE(c0 / SwapAllocator::kClusterSlots, c1 / SwapAllocator::kClusterSlots);
    EXPECT_NE(c1 / SwapAllocator::kClusterSlots, c2 / SwapAllocator::kClusterSlots);
  }(swap));
  e.Run();
}

Task<> SwapHammer(SwapAllocator& s, CoreId core, int iters, WaitGroup& wg) {
  for (int i = 0; i < iters; ++i) {
    uint64_t slot = co_await s.Alloc(core);
    co_await Delay{100};
    co_await s.Free(slot);
  }
  wg.Done();
}

TEST(SwapAllocatorTest, GlobalLockContendsAcrossCores) {
  Engine e;
  SwapAllocator swap(1 << 16, 32);
  WaitGroup wg;
  for (int c = 0; c < 32; ++c) {
    wg.Add();
    e.Spawn(SwapHammer(swap, c, 50, wg));
  }
  e.Run();
  EXPECT_GT(swap.lock_stats().contended, 100u);
  EXPECT_GT(swap.lock_stats().mean_wait_ns(), 500.0);
}

// The allocator's scan before it went word-wise: a bit-at-a-time walk from
// the per-core hint, wrapping once. The word scan must pick the same slot.
class ReferenceSwap {
 public:
  ReferenceSwap(uint64_t n, int cores) : used_(n, false), hint_(static_cast<size_t>(cores)) {
    for (size_t i = 0; i < hint_.size(); ++i) {
      hint_[i] = (i * SwapAllocator::kClusterSlots) % (n == 0 ? 1 : n);
    }
    free_ = n;
  }
  uint64_t Alloc(int core) {
    if (free_ == 0) return SwapAllocator::kNoSlot;
    const uint64_t n = used_.size();
    uint64_t& hint = hint_[static_cast<size_t>(core)];
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t s = (hint + i) % n;
      if (!used_[s]) {
        used_[s] = true;
        --free_;
        hint = (s + 1) % n;
        return s;
      }
    }
    return SwapAllocator::kNoSlot;
  }
  void Free(uint64_t s) {
    used_[s] = false;
    ++free_;
  }
  void MarkUsed(uint64_t s) {
    if (!used_[s]) {
      used_[s] = true;
      --free_;
    }
  }

 private:
  std::vector<bool> used_;
  std::vector<uint64_t> hint_;
  uint64_t free_ = 0;
};

// Random alloc/free traffic from several cores over sizes on and off a
// 64-slot word boundary, from empty and from a pre-marked device, until it
// fills: every allocation equals the reference walk's.
TEST(SwapAllocatorTest, WordScanMatchesBitWalk) {
  for (uint64_t n : {1ULL, 63ULL, 64ULL, 65ULL, 200ULL, 1000ULL, 4096ULL}) {
    for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      Engine e;
      const int cores = 5;
      SwapAllocator swap(n, cores);
      ReferenceSwap ref(n, cores);
      Rng rng(seed * 7919 + n);
      for (uint64_t s = 0; s < n; ++s) {
        if (rng.NextDouble() < 0.3) {
          swap.MarkUsedForSetup(s);
          ref.MarkUsed(s);
        }
      }
      e.Spawn([](SwapAllocator& sw, ReferenceSwap& rf, Rng& r, uint64_t n,
                 int cores) -> Task<> {
        std::vector<uint64_t> held;
        for (uint64_t step = 0; step < 6 * n + 64; ++step) {
          // Back to the engine loop each step: uncontended allocations finish
          // in place, and without tail calls (sanitizer builds) every
          // in-place step would stack another frame.
          co_await YieldNow{};
          // Lean towards allocating so the device fills and wraps.
          if (held.empty() || r.NextDouble() < 0.6) {
            int core = static_cast<int>(r.Next() % static_cast<uint64_t>(cores));
            uint64_t got = co_await sw.Alloc(core);
            uint64_t want = rf.Alloc(core);
            EXPECT_EQ(got, want) << "n=" << n << " step=" << step;
            if (got != want) co_return;
            if (got != SwapAllocator::kNoSlot) held.push_back(got);
          } else {
            size_t i = static_cast<size_t>(r.Next() % held.size());
            uint64_t slot = held[i];
            held[i] = held.back();
            held.pop_back();
            co_await sw.Free(slot);
            rf.Free(slot);
          }
        }
      }(swap, ref, rng, n, cores));
      e.Run();
    }
  }
}

TEST(DirectMappingTest, IsLinearAndFree) {
  DirectMapping dm(1000);
  EXPECT_EQ(dm.RemoteOffsetFor(0), 1000u);
  EXPECT_EQ(dm.RemoteOffsetFor(128), 1128u);
}

TEST(VmaTest, LockedSetFindsCoveringVma) {
  Engine e;
  LockedVmaSet vmas;
  vmas.Add({0, 100, 1});
  vmas.Add({100, 300, 2});
  e.Spawn([](LockedVmaSet& v) -> Task<> {
    const Vma* a = co_await v.Find(50);
    EXPECT_NE(a, nullptr);
    EXPECT_EQ(a->id, 1);
    const Vma* b = co_await v.Find(100);
    EXPECT_NE(b, nullptr);
    EXPECT_EQ(b->id, 2);
    EXPECT_EQ(co_await v.Find(500), nullptr);
  }(vmas));
  e.Run();
  EXPECT_EQ(vmas.lock_stats()->acquisitions, 3u);
}

Task<> VmaHammer(VmaResolver& v, uint64_t vpn, int iters, WaitGroup& wg) {
  for (int i = 0; i < iters; ++i) {
    co_await v.Find(vpn);
    co_await Delay{20};
  }
  wg.Done();
}

TEST(VmaTest, ShardingRemovesContention) {
  auto contended_waits = [](bool sharded) -> uint64_t {
    Engine e;
    std::unique_ptr<VmaResolver> v;
    auto locked = std::make_unique<LockedVmaSet>();
    auto shards = std::make_unique<ShardedVmaSet>(1 << 20, 64);
    locked->Add({0, 1 << 20, 1});
    shards->Add({0, 1 << 20, 1});
    WaitGroup wg;
    VmaResolver& r = sharded ? static_cast<VmaResolver&>(*shards)
                             : static_cast<VmaResolver&>(*locked);
    for (int c = 0; c < 32; ++c) {
      wg.Add();
      // Each "core" faults in its own address region: disjoint shards.
      e.Spawn(VmaHammer(r, static_cast<uint64_t>(c) << 14, 50, wg));
    }
    e.Run();
    if (sharded) {
      return static_cast<ShardedVmaSet*>(&r)->AggregateLockStats().contended;
    }
    return static_cast<LockedVmaSet*>(&r)->lock_stats()->contended;
  };
  EXPECT_GT(contended_waits(false), 100u);
  EXPECT_EQ(contended_waits(true), 0u);
}

TEST(VmaTest, NoVmaIsInstant) {
  Engine e;
  NoVma v(1024);
  SimTime elapsed = -1;
  e.Spawn([](Engine& e, NoVma& v, SimTime& elapsed) -> Task<> {
    const Vma* a = co_await v.Find(5);
    EXPECT_NE(a, nullptr);
    EXPECT_EQ(co_await v.Find(4096), nullptr);
    elapsed = e.now();
  }(e, v, elapsed));
  e.Run();
  EXPECT_EQ(elapsed, 0);
}

}  // namespace
}  // namespace magesim
