// Remote ("swap") space allocation (§3.3.3 EP3, §4.2.3).
//
// SwapAllocator models the Linux swap-slot allocator Hermit inherits: a slot
// bitmap behind one global spinlock with per-CPU cluster hints — the lock is
// the EP3 bottleneck the paper measures. The VMA-level direct mapping DiLOS
// and MAGE use instead (local_addr + X maps to remote_addr + X) needs no
// allocator: the kernel then uses the page number as the slot
// (KernelConfig::direct_remote_map).
#ifndef MAGESIM_MEM_SWAP_ALLOCATOR_H_
#define MAGESIM_MEM_SWAP_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "src/hw/topology.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace magesim {

class SwapAllocator {
 public:
  static constexpr uint64_t kClusterSlots = 256;

  SwapAllocator(uint64_t num_slots, int num_cores, SimTime cs_ns = 350);

  // Allocates one slot; returns kNoSlot when the device is full. Serializes
  // on the global swap_info lock.
  Task<uint64_t> Alloc(CoreId core);
  Task<> Free(uint64_t slot);

  static constexpr uint64_t kNoSlot = ~0ULL;

  // Setup-time (zero-cost) marking used by Kernel::Prepopulate to seed the
  // warmed-up state where non-resident pages already own slots.
  void MarkUsedForSetup(uint64_t slot);

  uint64_t free_slots() const { return free_slots_; }
  uint64_t num_slots() const { return num_slots_; }
  const LockStats& lock_stats() const { return lock_.stats(); }

 private:
  // First free slot at or after `start`, wrapping once past the end.
  uint64_t ScanFrom(uint64_t start) const;
  // First free slot in [from, to), or kNoSlot.
  uint64_t FirstFree(uint64_t from, uint64_t to) const;
  bool used(uint64_t slot) const { return (used_[slot >> 6] >> (slot & 63)) & 1; }

  uint64_t num_slots_;
  uint64_t free_slots_;
  SimTime cs_ns_;
  std::vector<uint64_t> used_;  // bit (s % 64) of word s / 64: slot s is taken
  std::vector<uint64_t> cluster_hint_;  // per-core next-fit hints
  SimMutex lock_{"swap-info"};
};

}  // namespace magesim

#endif  // MAGESIM_MEM_SWAP_ALLOCATOR_H_
