#include "src/mem/swap_allocator.h"

#include <bit>
#include <cassert>

#include "src/analysis/guarded.h"
#include "src/sim/engine.h"

namespace magesim {

SwapAllocator::SwapAllocator(uint64_t num_slots, int num_cores, SimTime cs_ns)
    : num_slots_(num_slots), free_slots_(num_slots), cs_ns_(cs_ns) {
  used_.assign((num_slots + 63) / 64, 0);
  cluster_hint_.resize(static_cast<size_t>(num_cores));
  // Stagger per-core cluster hints across the device, as Linux's per-CPU
  // cluster allocation does.
  for (size_t i = 0; i < cluster_hint_.size(); ++i) {
    cluster_hint_[i] = (i * kClusterSlots) % (num_slots == 0 ? 1 : num_slots);
  }
}

uint64_t SwapAllocator::ScanFrom(uint64_t start) const {
  uint64_t s = FirstFree(start, num_slots_);
  return s != kNoSlot ? s : FirstFree(0, start);
}

uint64_t SwapAllocator::FirstFree(uint64_t from, uint64_t to) const {
  // A word at a time; the bits past num_slots_ in the last word read free,
  // so a hit at or beyond `to` means nothing in range is.
  while (from < to) {
    const uint64_t w = from >> 6;
    const uint64_t free_bits = ~used_[w] & (~0ULL << (from & 63));
    if (free_bits != 0) {
      const uint64_t s = (w << 6) + static_cast<uint64_t>(std::countr_zero(free_bits));
      return s < to ? s : kNoSlot;
    }
    from = (w + 1) << 6;
  }
  return kNoSlot;
}

void SwapAllocator::MarkUsedForSetup(uint64_t slot) {
  assert(slot < num_slots_);
  if (!used(slot)) {
    used_[slot >> 6] |= 1ULL << (slot & 63);
    --free_slots_;
  }
}

Task<uint64_t> SwapAllocator::Alloc(CoreId core) {
  auto g = co_await lock_.Scoped();
  co_await Delay{cs_ns_};
  MAGESIM_ASSERT_HELD(lock_, "swap slot bitmap (alloc)");
  if (free_slots_ == 0) {
    co_return kNoSlot;
  }
  uint64_t& hint = cluster_hint_[static_cast<size_t>(core)];
  uint64_t slot = ScanFrom(hint);
  assert(slot != kNoSlot);
  used_[slot >> 6] |= 1ULL << (slot & 63);
  --free_slots_;
  hint = (slot + 1) % num_slots_;
  co_return slot;
}

Task<> SwapAllocator::Free(uint64_t slot) {
  assert(slot < num_slots_);
  auto g = co_await lock_.Scoped();
  co_await Delay{cs_ns_ / 2};
  MAGESIM_ASSERT_HELD(lock_, "swap slot bitmap (free)");
  assert(used(slot));
  used_[slot >> 6] &= ~(1ULL << (slot & 63));
  ++free_slots_;
}

}  // namespace magesim
