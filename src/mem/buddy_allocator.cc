#include "src/mem/buddy_allocator.h"

#include <algorithm>
#include <cassert>

#include "src/sim/sync.h"

namespace magesim {

BuddyAllocator::BuddyAllocator(FramePool& pool)
    : pool_(pool), num_frames_(pool.size()), free_lists_(kMaxOrder + 1) {
  block_order_.assign(num_frames_, -1);
  // Seed free lists greedily with the largest aligned blocks.
  uint64_t pfn = 0;
  while (pfn < num_frames_) {
    int order = kMaxOrder;
    while (order > 0 &&
           ((pfn & ((1ULL << order) - 1)) != 0 || pfn + (1ULL << order) > num_frames_)) {
      --order;
    }
    free_lists_[static_cast<size_t>(order)].push_back(static_cast<uint32_t>(pfn));
    block_order_[pfn] = static_cast<int8_t>(order);
    free_pages_ += 1ULL << order;
    pfn += 1ULL << order;
  }
}

uint32_t BuddyAllocator::AllocBlock(int order) {
  assert(order >= 0 && order <= kMaxOrder);
  if (guard_ != nullptr) guard_->AssertHeld("buddy free lists (alloc)");
  last_op_work_ = 1;
  int o = order;
  while (o <= kMaxOrder && free_lists_[static_cast<size_t>(o)].empty()) {
    ++o;
    ++last_op_work_;
  }
  if (o > kMaxOrder) {
    return kNoBlock;
  }
  uint32_t pfn = free_lists_[static_cast<size_t>(o)].back();
  free_lists_[static_cast<size_t>(o)].pop_back();
  block_order_[pfn] = -1;
  // Split down to the requested order, returning upper halves to free lists.
  while (o > order) {
    --o;
    ++last_op_work_;
    uint32_t upper = pfn + (1u << o);
    free_lists_[static_cast<size_t>(o)].push_back(upper);
    block_order_[upper] = static_cast<int8_t>(o);
  }
  free_pages_ -= 1ULL << order;
  for (uint32_t i = 0; i < (1u << order); ++i) {
    PageFrame& f = pool_.frame(pfn + i);
    assert(f.state == PageFrame::State::kFree);
    f.state = PageFrame::State::kAllocated;
  }
  return pfn;
}

void BuddyAllocator::RemoveFromFreeList(uint32_t pfn, int order) {
  auto& list = free_lists_[static_cast<size_t>(order)];
  auto it = std::find(list.begin(), list.end(), pfn);
  assert(it != list.end());
  *it = list.back();
  list.pop_back();
  block_order_[pfn] = -1;
}

void BuddyAllocator::FreeBlock(uint32_t pfn, int order) {
  assert(order >= 0 && order <= kMaxOrder);
  if (guard_ != nullptr) guard_->AssertHeld("buddy free lists (free)");
  last_op_work_ = 1;
  for (uint32_t i = 0; i < (1u << order); ++i) {
    PageFrame& f = pool_.frame(pfn + i);
    assert(f.state != PageFrame::State::kFree);
    f.state = PageFrame::State::kFree;
    f.vpn = kInvalidVpn;
    f.dirty = false;
  }
  free_pages_ += 1ULL << order;
  // Coalesce with free buddies.
  while (order < kMaxOrder) {
    uint32_t buddy = BuddyOf(pfn, order);
    if (buddy >= num_frames_ || block_order_[buddy] != order) {
      break;
    }
    RemoveFromFreeList(buddy, order);
    pfn = std::min(pfn, buddy);
    ++order;
    ++last_op_work_;
  }
  free_lists_[static_cast<size_t>(order)].push_back(pfn);
  block_order_[pfn] = static_cast<int8_t>(order);
}

PageFrame* BuddyAllocator::AllocPage() {
  uint32_t pfn = AllocBlock(0);
  return pfn == kNoBlock ? nullptr : &pool_.frame(pfn);
}

void BuddyAllocator::FreePage(PageFrame* f) { FreeBlock(f->pfn, 0); }

uint64_t BuddyAllocator::FreeListSize(int order) const {
  return free_lists_[static_cast<size_t>(order)].size();
}

std::vector<std::pair<uint32_t, int>> BuddyAllocator::FreeBlocks() const {
  std::vector<std::pair<uint32_t, int>> out;
  for (int o = 0; o <= kMaxOrder; ++o) {
    for (uint32_t pfn : free_lists_[static_cast<size_t>(o)]) {
      out.emplace_back(pfn, o);
    }
  }
  return out;
}

bool BuddyAllocator::CheckConsistency() const {
  uint64_t counted = 0;
  std::vector<bool> covered(num_frames_, false);
  for (int o = 0; o <= kMaxOrder; ++o) {
    for (uint32_t pfn : free_lists_[static_cast<size_t>(o)]) {
      if (block_order_[pfn] != o) return false;
      for (uint32_t i = 0; i < (1u << o); ++i) {
        if (pfn + i >= num_frames_) return false;
        if (covered[pfn + i]) return false;  // overlap
        if (pool_.frame(pfn + i).state != PageFrame::State::kFree) return false;
        covered[pfn + i] = true;
      }
      counted += 1ULL << o;
    }
  }
  return counted == free_pages_;
}

}  // namespace magesim
