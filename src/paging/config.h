// Kernel variant configuration. Each paper system is a preset over these
// knobs (see kernels.h); ablation benches (Figs. 17/18) flip them one at a
// time.
#ifndef MAGESIM_PAGING_CONFIG_H_
#define MAGESIM_PAGING_CONFIG_H_

#include <string>

#include "src/sim/time.h"

namespace magesim {

enum class Variant { kIdeal, kHermit, kDilos, kMageLnx, kMageLib };

enum class AllocStrategy {
  kPcp,          // Linux per-CPU caches + global buddy lock
  kGlobalMutex,  // DiLOS single sleepable mutex
  kMultilayer,   // MAGE per-core cache -> shared queue -> buddy
};

enum class VmaMode { kNone, kLocked, kSharded };

// Page-replacement accounting implementations (§4.2.2 and cited
// alternatives). kPartitionedFifo is MAGE's; the rest are centralized
// policies with one lock.
enum class AccountingPolicy { kGlobalLru, kPartitionedFifo, kS3Fifo, kMgLru };

struct KernelConfig {
  Variant variant = Variant::kMageLib;
  std::string name = "magelib";

  // --- Eviction path ---
  int num_evictors = 4;
  // Hermit-style feedback-directed asynchrony: the number of *active*
  // evictors scales with fault pressure instead of being fixed.
  bool feedback_evictors = false;
  int evict_batch_pages = 256;
  // MAGE cross-batch pipelining (P2). Off = sequential batch eviction.
  bool pipelined_eviction = true;
  // Synchronous eviction fallback in the fault path (prior systems). MAGE
  // forbids it (P1).
  bool allow_sync_eviction = false;
  int sync_evict_batch = 32;
  // DiLOS-style wait-wake: evictors sleep and are woken by the fault path
  // (costs an IPI + context switch per wake).
  SimTime evictor_wake_cost_ns = 0;
  // Per-victim reclaim bookkeeping outside the modeled locks: Linux pays
  // try_to_unmap rmap walks, swap-cache insertion and cgroup uncharging per
  // page (heavy); unikernels only flip a PTE.
  SimTime evict_page_cost_ns = 60;

  // --- Page accounting (FP3 / EP1) ---
  AccountingPolicy accounting = AccountingPolicy::kPartitionedFifo;  // MAGE P3
  int accounting_partitions = 8;

  // --- Page circulation (FP1 / EP3) ---
  AllocStrategy allocator = AllocStrategy::kMultilayer;
  bool direct_remote_map = true;  // off = Linux swap-slot allocator

  // --- Fault-path costs (variant-specific software overhead) ---
  SimTime fault_entry_ns = 300;
  // Lumped per-fault OS bookkeeping outside the modeled locks: rmap, cgroup
  // charging, swap-cache maintenance (large for Hermit, tiny for unikernels).
  SimTime fault_extra_ns = 0;
  // Serialized section of per-fault mm bookkeeping under shared locks
  // (page-table lock + rmap + cgroup counters). Zero for unikernels.
  SimTime mm_locks_cs_ns = 0;
  // Host RDMA stack serialization per posted op (kernel verbs path); the
  // microkernel-style drivers of DiLOS/MageLib bypass it (§6.4).
  SimTime rdma_stack_cs_ns = 0;

  VmaMode vma_mode = VmaMode::kNone;

  // LATR/EcoTLB-style lazy TLB coherence (cited in §7): eviction defers
  // invalidation to a periodic reconciliation tick (Kernel::LazyTlbTickerMain)
  // instead of sending IPIs; freed frames only recirculate after the next
  // tick. Trades reclaim latency for zero shootdown traffic.
  bool lazy_tlb = false;

  // --- Prefetching (pattern matching on fault addresses, §6.2) ---
  bool prefetch = false;
  int prefetch_window = 16;  // adaptive max read-ahead depth (Leap-style)

  // --- Watermarks (fractions of local frames) ---
  double low_watermark = 0.04;   // wake evictors below this
  double high_watermark = 0.10;  // evictors sleep above this
  // Sync-eviction trigger (Hermit/DiLOS): the fault path evicts inline when
  // free pages dip below this fraction.
  double min_watermark = 0.01;

  bool virtualized = false;
  // Guest compute slowdown vs. bare metal (EPT translations, table 2): the
  // virtualized presets run application compute ~4% slower.
  double compute_overhead_factor = 1.0;
};

}  // namespace magesim

#endif  // MAGESIM_PAGING_CONFIG_H_
