#include "src/mem/page_table.h"

#include <gtest/gtest.h>

#include "src/sim/engine.h"

namespace magesim {
namespace {

TEST(PageTableTest, MapUnmapRoundTrip) {
  PageTable pt(128);
  FramePool pool(8);
  PageFrame* f = &pool.frame(3);
  f->state = PageFrame::State::kAllocated;

  pt.Map(42, f);
  EXPECT_TRUE(pt.At(42).present);
  EXPECT_TRUE(pt.At(42).accessed);  // faulting access counts as a reference
  EXPECT_FALSE(pt.At(42).dirty);
  EXPECT_EQ(pt.At(42).frame, f);
  EXPECT_EQ(f->state, PageFrame::State::kMapped);
  EXPECT_EQ(f->vpn, 42u);
  EXPECT_EQ(pt.mapped_pages(), 1u);

  pt.At(42).dirty = true;  // simulated write access
  pt.At(42).prefetched = true;
  pt.At(42).remote_valid = true;
  PageFrame* out = pt.Unmap(42);
  EXPECT_EQ(out, f);
  EXPECT_TRUE(out->dirty);  // dirty bit transferred to the frame
  EXPECT_FALSE(pt.At(42).present);
  EXPECT_FALSE(pt.At(42).prefetched);   // an evicted prefetch is no later hit
  EXPECT_TRUE(pt.At(42).remote_valid);  // the far copy outlives the mapping
  EXPECT_EQ(pt.mapped_pages(), 0u);
  EXPECT_EQ(out->state, PageFrame::State::kIsolated);
}

TEST(PageTableTest, FaultDedupOnlyOneWinner) {
  PageTable pt(16);
  EXPECT_TRUE(pt.TryBeginFault(5));
  EXPECT_FALSE(pt.TryBeginFault(5));
  EXPECT_TRUE(pt.TryBeginFault(6));  // different page unaffected
  pt.EndFault(5);
  EXPECT_TRUE(pt.TryBeginFault(5));
}

TEST(PageTableTest, WaitersWakeOnEndFault) {
  Engine e;
  PageTable pt(16);
  ASSERT_TRUE(pt.TryBeginFault(7));
  std::vector<SimTime> woke;
  auto waiter = [](Engine& e, PageTable& pt, std::vector<SimTime>& woke) -> Task<> {
    co_await pt.WaitForFault(7);
    woke.push_back(e.now());
  };
  e.Spawn(waiter(e, pt, woke));
  e.Spawn(waiter(e, pt, woke));
  auto finisher = [](PageTable& pt) -> Task<> {
    co_await Delay{500};
    pt.EndFault(7);
  };
  e.Spawn(finisher(pt));
  e.Run();
  ASSERT_EQ(woke.size(), 2u);
  EXPECT_EQ(woke[0], 500);
  EXPECT_EQ(woke[1], 500);
  EXPECT_EQ(pt.dedup_waits(), 2u);
}

TEST(PageTableTest, SwapSlotPersistsAcrossMapping) {
  PageTable pt(16);
  pt.At(3).swap_slot = 777;
  FramePool pool(2);
  PageFrame* f = &pool.frame(0);
  f->state = PageFrame::State::kAllocated;
  pt.Map(3, f);
  EXPECT_EQ(pt.At(3).swap_slot, 777u);  // kept until explicitly freed
}

}  // namespace
}  // namespace magesim
