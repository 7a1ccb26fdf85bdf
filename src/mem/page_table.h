// Page table for the (single) simulated application address space.
//
// PTEs carry present/accessed/dirty bits plus the remote-backing info a far
// memory system needs: either a direct-mapped remote offset (DiLOS/MAGE,
// §4.2.3) or a swap slot (Linux/Hermit). Per-page fault deduplication is
// embedded in the PTE as a lock/in-flight bit with a wait list — the unified
// page table design DiLOS and MageLib use to replace the kernel swap cache
// (§5.2).
#ifndef MAGESIM_MEM_PAGE_TABLE_H_
#define MAGESIM_MEM_PAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/mem/frame_pool.h"
#include "src/sim/sync.h"

namespace magesim {

inline constexpr uint64_t kNoSwapSlot = ~0ULL;

struct Pte {
  PageFrame* frame = nullptr;  // valid iff present
  bool present = false;
  bool accessed = false;
  bool dirty = false;
  // A fault (or prefetch) is in flight for this page; concurrent faulting
  // threads must wait instead of issuing duplicate RDMA reads.
  bool fault_in_flight = false;
  // The far copy matches the page's contents: a clean eviction may skip the
  // writeback (clean reclaim). Survives unmap; a write clears it. Starts
  // true: the far pool holds every page from the start (warmed-up state).
  bool remote_valid = true;
  // Mapped by a prefetch and not touched since (prefetch hit stats). Unmap
  // clears it, so a prefetched page evicted untouched is not a later hit.
  bool prefetched = false;
  // Swap slot holding the page while non-present (kNoSwapSlot when the
  // variant uses VMA-level direct mapping instead).
  uint64_t swap_slot = kNoSwapSlot;
};
// The six flags share the padding after `frame`: one PTE per 24 bytes.
static_assert(sizeof(Pte) == 24, "Pte grew past 24 bytes");

class PageTable {
 public:
  // Covers virtual pages [0, num_pages) of one mmap'd region.
  explicit PageTable(uint64_t num_pages);

  uint64_t num_pages() const { return num_pages_; }

  Pte& At(uint64_t vpn) { return ptes_[vpn]; }
  const Pte& At(uint64_t vpn) const { return ptes_[vpn]; }

  // Installs a mapping (fault-in completion).
  void Map(uint64_t vpn, PageFrame* frame);

  // Clears a mapping (eviction unmap). Transfers the PTE dirty bit onto the
  // frame and returns it; drops the prefetch mark.
  PageFrame* Unmap(uint64_t vpn);

  // --- Fault dedup (unified page table / swap cache replacement) ---
  // Marks a fault in flight. Returns false if one was already in flight.
  bool TryBeginFault(uint64_t vpn);
  // Suspends until the in-flight fault for `vpn` completes.
  Task<> WaitForFault(uint64_t vpn);
  // Completes the in-flight fault, waking waiters.
  void EndFault(uint64_t vpn);

  uint64_t mapped_pages() const { return mapped_; }
  uint64_t dedup_waits() const { return dedup_waits_; }

 private:
  uint64_t num_pages_;
  std::vector<Pte> ptes_;
  std::unordered_map<uint64_t, std::shared_ptr<SimEvent>> fault_waiters_;
  uint64_t mapped_ = 0;
  uint64_t dedup_waits_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_MEM_PAGE_TABLE_H_
