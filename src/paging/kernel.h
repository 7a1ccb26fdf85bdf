// The far-memory paging kernel: owns the page table, allocators, accounting,
// and eviction machinery for one application address space, and exposes the
// two paths of Fig. 2: HandleAccess (FP) for application threads, and evictor
// tasks (EP) spawned by Start().
#ifndef MAGESIM_PAGING_KERNEL_H_
#define MAGESIM_PAGING_KERNEL_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/accounting/accounting.h"
#include "src/hw/ipi.h"
#include "src/mem/multilayer_allocator.h"
#include "src/mem/page_table.h"
#include "src/mem/percpu_cache.h"
#include "src/mem/swap_allocator.h"
#include "src/mem/vma.h"
#include "src/metrics/stage.h"
#include "src/paging/config.h"
#include "src/resilience/resilient_rdma.h"
#include "src/sim/hot_path.h"
#include "src/sim/stats.h"
#include "src/spans/spans.h"

namespace magesim {

class Prefetcher;
class TenancyManager;

// The one definition of a page hit, shared by Kernel::TryFastAccess and
// AppThread's hit runs (src/workloads/workload.h): a present PTE takes the
// accessed bit and, on a write, the dirty bit and a stale far copy; a
// prefetched one loses its mark and counts one `prefetch_hits`. Returns
// false, touching nothing, for a non-present PTE. The caller counts the hit.
MAGESIM_HOT_PATH inline bool TouchIfPresent(Pte& pte, bool write, uint64_t& prefetch_hits) {
  if (!pte.present) return false;
  pte.accessed = true;
  if (write) {
    pte.dirty = true;
    pte.remote_valid = false;
  }
  if (pte.prefetched) {
    pte.prefetched = false;
    ++prefetch_hits;
  }
  return true;
}

struct KernelStats {
  uint64_t faults = 0;           // major faults actually serviced
  uint64_t fast_hits = 0;        // present-PTE accesses
  uint64_t dedup_waits = 0;      // faults coalesced onto an in-flight fault
  uint64_t sync_evictions = 0;   // inline evictions run by faulting threads
  uint64_t free_page_waits = 0;  // MAGE-style waits for the EP to free pages
  uint64_t evicted_pages = 0;
  uint64_t eviction_batches = 0;
  uint64_t clean_reclaims = 0;   // evictions that skipped the RDMA write
  uint64_t prefetched_pages = 0;
  uint64_t prefetch_hits = 0;    // fast hits on previously prefetched pages
  uint64_t pages_poisoned = 0;   // demand reads that exhausted their retries
  uint64_t prefetches_abandoned = 0;  // speculative reads unwound on failure

  Histogram fault_latency;       // end-to-end major-fault latency
  Histogram sync_evict_latency;
  Breakdown fault_breakdown;     // partition of fault_latency by stage (Figs. 6/16)
  SimTime free_wait_time_total = 0;
};

class Kernel {
 public:
  // `resilience` (not owned) is the far-memory data path every remote read
  // and writeback goes through. `tenancy` (optional, not owned) attaches the
  // multi-tenant memory control groups: accounting becomes per-tenant, every
  // Map/Unmap charges/uncharges the owning cgroup, and victim selection turns
  // QoS-aware.
  Kernel(const KernelConfig& config, Topology& topo, TlbShootdownManager& tlb,
         ResilienceManager& resilience, uint64_t local_pages, uint64_t wss_pages,
         TenancyManager* tenancy = nullptr);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // Pre-faults resident pages (zero simulated cost, setup only): maps
  // `resident` pages spread over the working set and registers them with
  // accounting. Every page's remote copy is valid from construction on (the
  // far pool starts prepopulated), modeling a warmed-up steady state.
  void Prepopulate(uint64_t resident_pages);

  // Spawns evictor threads and (if configured) the feedback controller.
  // Evictor cores are assigned from the top of the core range, after
  // `num_app_cores` application cores.
  void Start(int num_app_cores);

  // --- Fault-in path ---
  // Fast path: if the page is present, sets accessed/dirty bits and returns
  // true. No simulated time passes. Returns false, touching nothing, for a
  // non-present page.
  MAGESIM_HOT_PATH bool TryFastAccess(uint64_t vpn, bool write) {
    if (!TouchIfPresent(pt_->At(vpn), write, stats_.prefetch_hits)) return false;
    ++stats_.fast_hits;
    return true;
  }

  // Slow path (major fault). Suspends the calling (application) coroutine for
  // the full fault duration.
  Task<> Fault(CoreId core, uint64_t vpn, bool write);

  // Instant page reclaim with zero simulated cost: used by microbenchmarks to
  // emulate pre-evicted pages (madvise_pageout before the measurement starts)
  // so the fault path can be measured in isolation (§3.2 "fault-in only").
  void InstantReclaim(uint64_t vpn);

  // --- Eviction machinery (shared by evictor threads and sync eviction) ---
  // Runs one sequential eviction batch: isolate victims, unmap, allocate
  // remote space, shootdown, write dirty pages, reclaim. Returns pages freed.
  // `runner` is the fault or prefetch running the batch inline (sync
  // eviction): the batch span nests under its span and a fault's breakdown
  // takes the batch's stages. Default = an evictor's detached batch root.
  Task<size_t> EvictBatchSequential(int evictor_id, CoreId core, size_t batch,
                                    StageOp runner = {});

  // The one evictor loop (evictor.cc). It parks while its pipeline is empty
  // and either the feedback controller parked it or there is no pressure,
  // paying `evictor_wake_cost_ns` on resume; backs off while the write
  // channel is degraded; then takes one step of the config's batch schedule:
  // a whole EvictBatchSequential, or one turn of MAGE's cross-batch pipeline.
  // After an empty scan it retries in 2 us while faulters are blocked on free
  // pages (they cannot signal again), else parks until signaled.
  Task<> EvictorMain(int evictor_id, CoreId core);
  Task<> FeedbackControllerMain();
  // Per-tenant fault/eviction balance controller (tenancy only): squeezes the
  // effective soft limit of tenants faulting far beyond their weighted share.
  Task<> TenantBalanceControllerMain();
  // Periodic TLB reconciliation for lazy_tlb mode (scheduler-tick flushes).
  Task<> LazyTlbTickerMain();

  // --- Introspection ---
  const KernelConfig& config() const { return config_; }
  const KernelStats& stats() const { return stats_; }
  KernelStats& mutable_stats() { return stats_; }
  uint64_t free_pages() const;
  uint64_t wss_pages() const { return wss_pages_; }
  uint64_t local_pages() const { return local_pages_; }
  PageTable& page_table() { return *pt_; }
  PageAccounting& accounting() { return *accounting_; }
  PageAllocator& allocator() { return *allocator_; }
  BuddyAllocator& buddy() { return *buddy_; }
  FramePool& frame_pool() { return *frames_; }
  bool remote_valid(uint64_t vpn) const { return pt_->At(vpn).remote_valid; }
  Topology& topology() { return topo_; }
  TlbShootdownManager& tlb() { return tlb_; }
  ResilienceManager& resilience() { return resilience_; }

  // The far-pool slot holding `vpn`'s remote copy (identity under direct
  // mapping, and for a page not yet given a swap slot).
  uint64_t FleetSlotOf(uint64_t vpn) const;
  // Null unless the machine attached memory control groups.
  TenancyManager* tenancy() { return tenancy_; }
  uint64_t FaultsOnCore(CoreId c) const { return faults_per_core_[static_cast<size_t>(c)]; }

  // Watermark thresholds in pages.
  uint64_t low_wm_pages() const { return low_wm_; }
  uint64_t high_wm_pages() const { return high_wm_; }
  uint64_t min_wm_pages() const { return min_wm_; }

  // Lock-contention report entries for diagnostics.
  LockStats accounting_lock_stats() const { return accounting_->AggregateLockStats(); }

  // Clears measurement counters (stats + per-core fault counts) so harnesses
  // can discard warmup transients.
  void ResetMeasurement() {
    stats_ = KernelStats{};
    std::fill(faults_per_core_.begin(), faults_per_core_.end(), 0);
  }

 private:
  friend class Prefetcher;

  // Allocates one frame for `op` (a fault or a prefetch), applying the
  // variant's pressure policy (sync eviction vs. waiting for the EP).
  Task<PageFrame*> AllocWithPressure(StageOp op);

  // --- Tenancy hooks (all no-ops with no TenancyManager attached) ---
  // Charge/uncharge accompany every Map/Unmap so the per-tenant charge set
  // mirrors the present PTEs at every event boundary.
  void ChargePage(int actor, uint64_t vpn, PageFrame* f);
  // `span` is the uncharging batch's span, registered as the tenant's causal
  // headroom publisher.
  void UnchargePage(int actor, uint64_t vpn, PageFrame* f, SpanHandle span = {});
  // Hard-limit admission + batch-QoS backpressure, run by the fault path
  // (tenancy attached) after fault dedup and before allocation.
  Task<> TenantAdmission(StageOp op);
  // True while any tenant has blocked faulters or is inside its watermark
  // band: keeps evictors running above the global high watermark.
  bool TenancyEvictionPressure() const;
  bool TenancyHardWaiters() const;

  // One inline (synchronous) eviction run by `op`, a fault or a prefetch.
  Task<> SyncEvict(StageOp op);

  // Records a completed demand fault's latency and, with it, its stage tally.
  void CompleteFault(SimTime t0, const Breakdown& stages);

  // One eviction batch from open to close. Every schedule opens it with
  // OpenBatch, shoots down its victims' translations, writes them back and
  // closes it with CloseBatch; the pipelined one overlaps those steps across
  // batches, so `shootdown` and `writeback` hold its in-flight halves.
  struct EvictionBatch {
    std::vector<PageFrame*> victims;
    // Actor = evictor id; span = the batch span, closed by CloseBatch (it
    // outlives any one co_await chain in the pipeline).
    StageOp op;
    std::shared_ptr<ShootdownOp> shootdown;
    Writeback writeback;
  };

  // Opens a batch of up to `batch` victims into `*b`: opens its span (nested
  // under `runner`'s, a root when `runner` has none), isolates and unmaps the
  // victims, and emits evict_batch_start. Returns the victim count; on an
  // empty scan the span is closed again and 0 returned.
  Task<size_t> OpenBatch(int evictor_id, CoreId core, size_t batch, StageOp runner,
                         EvictionBatch* b);
  // Closes a batch whose writeback is done: frees its frames (the reclaim
  // stage), counts it, publishes the headroom to waiting faults, emits
  // evict_batch_end and closes its span.
  Task<> CloseBatch(EvictionBatch& b);

  // Wakes sleeping evictors when free pages dip below the low watermark.
  void MaybeWakeEvictors();

  // Ideal-system instant eviction: recycles the oldest resident page with
  // zero software cost.
  void IdealReclaimOne();

  // Unmaps victims, assigns remote slots. Returns unmapped frames via `out`.
  // `batch_op` is the owning batch (actor = evictor id, span = batch span).
  Task<size_t> PrepareVictims(StageOp batch_op, size_t batch, std::vector<PageFrame*>* out);

  // Marks remote copies valid, counts clean reclaims, and returns the swap
  // slots that need a writeback. A clean page whose slot has no live copy
  // left (its holders crashed, or its last writeback was lost) is rewritten
  // too — the resident copy is the last one and the write restores it.
  std::vector<uint64_t> CollectWritebackSlots(const std::vector<PageFrame*>& victims);

  KernelConfig config_;
  Topology& topo_;
  TlbShootdownManager& tlb_;
  ResilienceManager& resilience_;  // owned by FarMemoryMachine
  uint64_t local_pages_;
  uint64_t wss_pages_;
  uint64_t low_wm_, high_wm_, min_wm_;

  std::unique_ptr<FramePool> frames_;
  std::unique_ptr<BuddyAllocator> buddy_;
  std::unique_ptr<PageAllocator> allocator_;
  std::unique_ptr<PageTable> pt_;
  std::unique_ptr<PageAccounting> accounting_;
  std::unique_ptr<VmaResolver> vma_;
  std::unique_ptr<SwapAllocator> swap_;  // null when direct-mapped
  std::unique_ptr<Prefetcher> prefetcher_;
  TenancyManager* tenancy_ = nullptr;  // owned by FarMemoryMachine

  // Free-page pressure plumbing.
  SimEvent evictor_wake_{"evictor-wake"};
  SimEvent free_pages_available_{"free-pages"};
  bool FaultersWaitingForPages() const { return free_pages_available_.num_waiters() > 0; }

 public:
  // Debug introspection for harnesses/tests.
  size_t DebugFreeWaiters() const { return free_pages_available_.num_waiters(); }
  size_t DebugParkedEvictors() const { return evictor_wake_.num_waiters(); }
  uint64_t DebugPendingReclaims() const { return pending_reclaims_; }

 private:
  SimMutex rdma_stack_lock_{"rdma-stack"};
  SimMutex mm_locks_{"mm-locks"};
  int active_evictors_;  // feedback-controlled (<= num_evictors)
  bool started_ = false;

  // Pages isolated by evictors but not yet returned to the allocator;
  // counted into the pressure check so deep pipelines do not over-evict.
  uint64_t pending_reclaims_ = 0;

  // Lazy-TLB epoch plumbing: waiting on the event resumes at the next tick,
  // by which point every core has flushed.
  SimEvent lazy_epoch_{"lazy-epoch"};
  uint64_t lazy_epochs_ = 0;

  // Ideal-variant FIFO of resident vpns.
  std::deque<uint64_t> ideal_fifo_;

  KernelStats stats_;
  std::vector<uint64_t> faults_per_core_;
};

}  // namespace magesim

#endif  // MAGESIM_PAGING_KERNEL_H_
