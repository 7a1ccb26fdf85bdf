#include "src/paging/kernel.h"

#include <algorithm>
#include <cassert>

#include "src/accounting/global_lru.h"
#include "src/accounting/mglru.h"
#include "src/accounting/partitioned_fifo.h"
#include "src/accounting/s3fifo.h"
#include "src/analysis/lock_analyzer.h"
#include "src/paging/prefetcher.h"
#include "src/resilience/resilient_rdma.h"
#include "src/sim/engine.h"
#include "src/sim/hot_path.h"
#include "src/spans/spans.h"
#include "src/tenancy/memcg.h"
#include "src/tenancy/tenant_accounting.h"
#include "src/trace/trace.h"

namespace magesim {

namespace {
// Tenancy controller cadence and the fixed batch-QoS admission backoff.
constexpr SimTime kTenantControllerPeriodNs = 100'000;
constexpr SimTime kTenantBackpressureNs = 2'000;
}  // namespace

Kernel::Kernel(const KernelConfig& config, Topology& topo, TlbShootdownManager& tlb,
               ResilienceManager& resilience, uint64_t local_pages, uint64_t wss_pages,
               TenancyManager* tenancy)
    : config_(config),
      topo_(topo),
      tlb_(tlb),
      resilience_(resilience),
      local_pages_(local_pages),
      wss_pages_(wss_pages),
      tenancy_(tenancy) {
  low_wm_ = static_cast<uint64_t>(static_cast<double>(local_pages) * config.low_watermark);
  high_wm_ = static_cast<uint64_t>(static_cast<double>(local_pages) * config.high_watermark);
  min_wm_ = static_cast<uint64_t>(static_cast<double>(local_pages) * config.min_watermark);
  low_wm_ = std::max<uint64_t>(low_wm_, 16);
  high_wm_ = std::max<uint64_t>(high_wm_, low_wm_ + 16);
  min_wm_ = std::max<uint64_t>(min_wm_, 4);

  // Scale-down guard: eviction batches must stay small relative to the local
  // pool or concurrent evictors would isolate the entire residency at once
  // (the paper's pools are millions of pages; benches shrink them).
  int max_batch = static_cast<int>(
      local_pages / (8 * static_cast<uint64_t>(std::max(config_.num_evictors, 1))));
  if (max_batch < 8) max_batch = 8;
  if (config_.evict_batch_pages > max_batch) config_.evict_batch_pages = max_batch;
  if (config_.sync_evict_batch > max_batch) config_.sync_evict_batch = max_batch;

  frames_ = std::make_unique<FramePool>(local_pages);
  buddy_ = std::make_unique<BuddyAllocator>(*frames_);
  // Per-core cache depth scaled to the pool so small simulated pools don't
  // strand most of their memory in caches (Linux similarly shrinks pcp
  // batches on small zones).
  int cache_batch = static_cast<int>(std::clamp<uint64_t>(
      local_pages / (static_cast<uint64_t>(topo.num_cores()) * 16), 4, 32));
  switch (config.allocator) {
    case AllocStrategy::kPcp:
      allocator_ = std::make_unique<PcpAllocator>(*buddy_, topo.num_cores(), AllocatorCosts{},
                                                  cache_batch, cache_batch * 2);
      break;
    case AllocStrategy::kGlobalMutex:
      allocator_ = std::make_unique<GlobalMutexAllocator>(*buddy_);
      break;
    case AllocStrategy::kMultilayer:
      allocator_ = std::make_unique<MultilayerAllocator>(*buddy_, topo.num_cores(),
                                                         AllocatorCosts{}, cache_batch,
                                                         cache_batch * 2);
      break;
  }

  pt_ = std::make_unique<PageTable>(wss_pages);
  auto make_policy = [&]() -> std::unique_ptr<PageAccounting> {
    switch (config.accounting) {
      case AccountingPolicy::kPartitionedFifo:
        return std::make_unique<PartitionedFifo>(*pt_, config.accounting_partitions,
                                                 std::max(config.num_evictors, 1));
      case AccountingPolicy::kGlobalLru:
        return std::make_unique<GlobalLru>(*pt_);
      case AccountingPolicy::kS3Fifo:
        return std::make_unique<S3Fifo>(*pt_);
      case AccountingPolicy::kMgLru:
        return std::make_unique<MgLru>(*pt_);
    }
    return nullptr;
  };
  if (tenancy_ != nullptr && tenancy_->num_tenants() > 0) {
    // One full policy instance per cgroup: each tenant keeps its own
    // recency/frequency state, and the facade arbitrates across them.
    std::vector<std::unique_ptr<PageAccounting>> per_tenant;
    per_tenant.reserve(static_cast<size_t>(tenancy_->num_tenants()));
    for (int t = 0; t < tenancy_->num_tenants(); ++t) per_tenant.push_back(make_policy());
    accounting_ = std::make_unique<TenantAccounting>(*tenancy_, std::move(per_tenant));
  } else {
    accounting_ = make_policy();
  }

  switch (config.vma_mode) {
    case VmaMode::kNone:
      vma_ = std::make_unique<NoVma>(wss_pages);
      break;
    case VmaMode::kLocked: {
      auto v = std::make_unique<LockedVmaSet>();
      v->Add({0, wss_pages, 0});
      vma_ = std::move(v);
      break;
    }
    case VmaMode::kSharded: {
      auto v = std::make_unique<ShardedVmaSet>(wss_pages, 64);
      v->Add({0, wss_pages, 0});
      vma_ = std::move(v);
      break;
    }
  }

  if (!config.direct_remote_map) {
    // Swap device sized like the paper's remote pool: the full working set.
    swap_ = std::make_unique<SwapAllocator>(wss_pages + (wss_pages / 4), topo.num_cores());
  }
  // Every slot of the far pool starts out holding its page on its full
  // desired replica set: the warmed-up remote state faults read from.
  resilience_.fleet().Prepopulate(swap_ != nullptr ? swap_->num_slots() : wss_pages);

  if (config.prefetch) {
    prefetcher_ = std::make_unique<Prefetcher>(*this, config.prefetch_window);
  }

  active_evictors_ = config.feedback_evictors ? 1 : config.num_evictors;
  faults_per_core_.assign(static_cast<size_t>(topo.num_cores()), 0);
}

Kernel::~Kernel() = default;

uint64_t Kernel::free_pages() const { return allocator_->global_free_pages(); }

void Kernel::Prepopulate(uint64_t resident_pages) {
  resident_pages = std::min(resident_pages, wss_pages_);
  resident_pages = std::min(resident_pages, local_pages_);
  // Spread resident pages evenly across the working set (Bresenham) so every
  // thread's shard starts with the same residency fraction — the symmetric
  // steady state a warmed-up system converges to.
  uint64_t acc = 0;
  uint64_t mapped = 0;
  for (uint64_t vpn = 0; vpn < wss_pages_ && mapped < resident_pages; ++vpn) {
    acc += resident_pages;
    if (acc < wss_pages_) continue;
    acc -= wss_pages_;
    // Hard limits hold from t=0: budget a capped tenant cannot take is left
    // free for the evictors' headroom instead.
    if (tenancy_ != nullptr && tenancy_->cgroup(tenancy_->TenantOf(vpn)).OverHard()) {
      continue;
    }
    ++mapped;
    PageFrame* f = buddy_->AllocPage();
    assert(f != nullptr);
    pt_->Map(vpn, f);
    pt_->At(vpn).accessed = false;
    // Setup-time charge: silent (no trace events) so prepopulation does not
    // perturb golden traces, but the charge set still mirrors the PTEs.
    if (tenancy_ != nullptr) tenancy_->Charge(vpn, f);
    // Register with accounting directly (setup-time, no lock costs). Spread
    // across stand-in core ids so partitioned accounting starts balanced.
    if (config_.variant == Variant::kIdeal) {
      ideal_fifo_.push_back(vpn);
    } else {
      accounting_->InsertSetup(static_cast<CoreId>(vpn % 64), f);
    }
  }
  // Non-resident pages live in swap when slot-based.
  if (swap_ != nullptr) {
    for (uint64_t vpn = 0; vpn < wss_pages_; ++vpn) {
      if (pt_->At(vpn).present) continue;
      pt_->At(vpn).swap_slot = vpn;  // setup-time identity assignment
      swap_->MarkUsedForSetup(vpn);
    }
  }
}

void Kernel::InstantReclaim(uint64_t vpn) {
  // Deliberate modeling shortcut (pre-evicted pages, zero simulated cost):
  // bypasses the isolation protocol and the buddy lock on purpose.
  AnalysisExemptScope exempt;
  Pte& pte = pt_->At(vpn);
  if (!pte.present || pte.fault_in_flight) return;
  PageFrame* f = pt_->Unmap(vpn);
  accounting_->Unlink(f);
  UnchargePage(-1, vpn, f);
  pte.remote_valid = true;  // emulates a completed pageout
  TraceEmit(TraceEventType::kPageUnmap, -1, vpn, f->pfn);
  TraceEmit(TraceEventType::kFrameFree, -1, vpn, f->pfn);
  buddy_->FreePage(f);  // resets state/vpn/dirty
}

void Kernel::IdealReclaimOne() {
  // Ideal-variant eviction is free by definition; exempt from lock analysis.
  AnalysisExemptScope exempt;
  while (!ideal_fifo_.empty()) {
    uint64_t vpn = ideal_fifo_.front();
    ideal_fifo_.pop_front();
    Pte& pte = pt_->At(vpn);
    if (!pte.present || pte.fault_in_flight) continue;
    PageFrame* f = pt_->Unmap(vpn);
    UnchargePage(-1, vpn, f);
    pte.remote_valid = true;  // ideal eviction costs nothing
    buddy_->FreePage(f);      // resets state/vpn/dirty
    return;
  }
}

void Kernel::MaybeWakeEvictors() {
  if (free_pages() < low_wm_ || TenancyEvictionPressure()) {
    evictor_wake_.Pulse();
  }
}

void Kernel::ChargePage(int actor, uint64_t vpn, PageFrame* f) {
  if (tenancy_ == nullptr) return;
  int t = tenancy_->Charge(vpn, f);
  TraceEmit(TraceEventType::kTenantCharge, actor, vpn, f->pfn, static_cast<uint64_t>(t));
}

void Kernel::UnchargePage(int actor, uint64_t vpn, PageFrame* f, SpanHandle span) {
  if (tenancy_ == nullptr) return;
  int t = tenancy_->Uncharge(vpn, f);
  TraceEmit(TraceEventType::kTenantUncharge, actor, vpn, f->pfn, static_cast<uint64_t>(t));
  // Register the uncharging batch as the tenant's causal headroom publisher:
  // faults parked on the hard limit link their wait to this batch's span.
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr) st->NoteTenantRelease(t, span);
}

bool Kernel::TenancyEvictionPressure() const {
  return tenancy_ != nullptr && tenancy_->EvictionPressure();
}

bool Kernel::TenancyHardWaiters() const {
  return tenancy_ != nullptr && tenancy_->HasHardWaiters();
}

Task<> Kernel::TenantAdmission(StageOp op) {
  int t = tenancy_->TenantOf(op.page);
  MemCgroup& cg = tenancy_->cgroup(t);
  cg.NoteFault();

  // Batch tenants absorb backpressure first: when memory is tight or the
  // write channel is degraded, their faults are delayed before they compete
  // for frames, leaving headroom for latency/normal tenants.
  if (cg.qos() == QosClass::kBatch &&
      (free_pages() < low_wm_ || resilience_.write_degraded())) {
    cg.NoteBackpressure();
    TraceEmit(TraceEventType::kTenantThrottle, op.core, op.page, kTraceNoFrame,
              static_cast<uint64_t>(t));
    bool degraded = resilience_.write_degraded();
    StageScope s(Stage::kTenantThrottle, op);
    s.arg = static_cast<uint64_t>(t);
    co_await Delay{kTenantBackpressureNs};
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr && degraded) {
      // A throttle taken because the write channel is degraded is causally
      // the open breaker's fault; link to the op that opened it.
      s.link = st->breaker_open(1);
    }
  }

  // Hard-limit admission: park on the tenant's headroom event until an
  // uncharge drops usage back under the limit. Waking the evictors here is
  // what reclaims pages from this tenant (it is over its soft limit too, by
  // construction: soft <= hard).
  if (cg.OverHard()) {
    StageScope s(Stage::kTenantPark, op);
    s.arg = static_cast<uint64_t>(t);
    SimTime w0 = Engine::current().now();
    while (cg.OverHard()) {
      tenancy_->NoteHardWaiter(t, +1);
      evictor_wake_.Pulse();
      co_await tenancy_->headroom_event(t).Wait();
      tenancy_->NoteHardWaiter(t, -1);
    }
    SimTime waited = Engine::current().now() - w0;
    cg.NoteHardWait(waited);
    TraceEmit(TraceEventType::kTenantHardWait, op.core, op.page, kTraceNoFrame,
              static_cast<uint64_t>(waited));
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
      // Read the release point after waking: the uncharge that freed the
      // headroom registered its batch span just before the event fired.
      s.link = st->tenant_release(t);
    }
  }
}

Task<> Kernel::TenantBalanceControllerMain() {
  // The paper's fault/eviction balance controller, lifted to per-tenant
  // scope: every period, compare each tenant's share of recent faults with
  // its weight share. Under memory pressure a tenant faulting far beyond its
  // share has its *effective* soft limit squeezed toward the
  // weight-proportional fair share (making it the preferred eviction victim);
  // once pressure clears, limits relax back toward the configured soft limit.
  Engine& eng = Engine::current();
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->NameCurrentTask("tenant-balance-controller");
  }
  const int n = tenancy_->num_tenants();
  std::vector<uint64_t> prev_faults(static_cast<size_t>(n), 0);
  uint64_t total_w = 0;
  for (int t = 0; t < n; ++t) total_w += tenancy_->cgroup(t).weight();
  if (total_w == 0) total_w = 1;
  while (!eng.shutdown_requested()) {
    co_await Delay{kTenantControllerPeriodNs};
    uint64_t total_delta = 0;
    std::vector<uint64_t> delta(static_cast<size_t>(n), 0);
    for (int t = 0; t < n; ++t) {
      uint64_t f = tenancy_->cgroup(t).faults();
      delta[static_cast<size_t>(t)] = f - prev_faults[static_cast<size_t>(t)];
      prev_faults[static_cast<size_t>(t)] = f;
      total_delta += delta[static_cast<size_t>(t)];
    }
    bool pressure = free_pages() < low_wm_ || tenancy_->EvictionPressure();
    for (int t = 0; t < n; ++t) {
      MemCgroup& cg = tenancy_->cgroup(t);
      if (cg.soft_limit() == 0) continue;  // unlimited tenant: nothing to move
      uint64_t fair = local_pages_ * cg.weight() / total_w;
      uint64_t cur = cg.effective_soft_limit();
      uint64_t target = cur;
      // "Thrashing" = more than twice its weight share of this period's
      // faults while the system is under pressure.
      bool thrashing = pressure && total_delta > 0 &&
                       delta[static_cast<size_t>(t)] * total_w >
                           2 * total_delta * cg.weight();
      if (thrashing && cur > fair) {
        target = cur - std::max<uint64_t>((cur - fair) / 8, 1);
        if (target < fair) target = fair;
      } else if (!pressure && cur < cg.soft_limit()) {
        target = cur + std::max<uint64_t>((cg.soft_limit() - cur) / 16, 1);
      }
      if (target != cur && cg.SetEffectiveSoftLimit(target)) {
        TraceEmit(TraceEventType::kTenantSoftAdjust, t, kTraceNoPage, kTraceNoFrame,
                  cg.effective_soft_limit());
      }
    }
    MaybeWakeEvictors();
  }
}

MAGESIM_HOT_PATH Task<PageFrame*> Kernel::AllocWithPressure(StageOp op) {
  if (config_.variant == Variant::kIdeal) {
    // The ideal variant has no allocator locks by construction.
    AnalysisExemptScope exempt;
    PageFrame* f = buddy_->AllocPage();
    if (f == nullptr) {
      IdealReclaimOne();
      f = buddy_->AllocPage();
    }
    co_return f;
  }
  for (;;) {
    // Trigger sync eviction below the min watermark (Hermit/DiLOS eager
    // behavior) or on outright allocation failure.
    if (config_.allow_sync_eviction && free_pages() <= min_wm_) {
      co_await SyncEvict(op);
    }
    PageFrame* f;
    {
      StageScope s(Stage::kAlloc, op);
      f = co_await allocator_->Alloc(op.core);
    }
    if (f != nullptr) {
      MaybeWakeEvictors();
      co_return f;
    }
    MaybeWakeEvictors();
    if (config_.allow_sync_eviction) {
      co_await SyncEvict(op);
      continue;
    }
    // MAGE P1: the fault path never evicts; wait for the EP to free pages.
    // Lost-wakeup guard: the evictors may have replenished the pools while
    // this thread was still suspended inside the failed Alloc (its Reset
    // below would wipe that Set). Retry instead of sleeping if pages exist.
    if (free_pages() > 0) {
      continue;
    }
    ++stats_.free_page_waits;
    TraceEmit(TraceEventType::kFreeWaitStart, op.core, op.page);
    StageScope s(Stage::kFreeWait, op);
    SimTime w0 = Engine::current().now();
    free_pages_available_.Reset();
    co_await free_pages_available_.Wait();
    SimTime waited = Engine::current().now() - w0;
    stats_.free_wait_time_total += waited;
    TraceEmit(TraceEventType::kFreeWaitEnd, op.core, op.page, kTraceNoFrame,
              static_cast<uint64_t>(waited));
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
      // Link to the eviction batch that published the headroom we woke on.
      s.link = st->headroom_publisher();
    }
    s.arg = static_cast<uint64_t>(waited);
  }
}

MAGESIM_HOT_PATH Task<> Kernel::SyncEvict(StageOp op) {
  SimTime t0 = Engine::current().now();
  ++stats_.sync_evictions;
  TraceEmit(TraceEventType::kSyncEvictStart, op.core);
  co_await EvictBatchSequential(/*evictor_id=*/op.core % std::max(config_.num_evictors, 1),
                                op.core, static_cast<size_t>(config_.sync_evict_batch), op);
  SimTime elapsed = Engine::current().now() - t0;
  stats_.sync_evict_latency.Record(elapsed);
  TraceEmit(TraceEventType::kSyncEvictEnd, op.core, kTraceNoPage, kTraceNoFrame,
            static_cast<uint64_t>(elapsed));
}

// magesim-lint: allow(coroutine-ref-capture): out points at the caller's
// frame and every caller co_awaits this task inline (never detached).
MAGESIM_HOT_PATH Task<size_t> Kernel::PrepareVictims(StageOp batch_op, size_t batch,
                                                     std::vector<PageFrame*>* out) {
  const int evictor_id = batch_op.actor;
  const CoreId core = batch_op.core;
  size_t got;
  {
    StageOp isolate_op = batch_op;
    isolate_op.actor = core;  // the isolation leaf has always named the core
    StageScope s(Stage::kIsolate, isolate_op);
    got = co_await accounting_->IsolateBatch(evictor_id, core, batch, out);
    s.arg = got;
  }
  if (got == 0) co_return 0;
  const MachineParams& hw = topo_.params();
  StageScope s(Stage::kUnmapVictims, batch_op);
  s.arg = got;
  for (PageFrame* f : *out) {
    assert(f->vpn != kInvalidVpn);
    uint64_t vpn = f->vpn;
    co_await Delay{hw.pte_update_ns + config_.evict_page_cost_ns};
    pt_->Unmap(vpn);  // transfers the dirty bit onto the frame
    UnchargePage(evictor_id, vpn, f, batch_op.span);
    TraceEmit(TraceEventType::kPageUnmap, evictor_id, vpn, f->pfn);
    if (swap_ != nullptr) {
      // EP3: allocate remote swap space under the global swap lock.
      Pte& pte = pt_->At(vpn);
      if (pte.swap_slot == kNoSwapSlot) {
        uint64_t slot = co_await swap_->Alloc(core);
        pte.swap_slot = slot;
      }
    }
    // Direct mapping needs no allocation: remote_addr = local_addr (§4.2.3).
  }
  co_return got;
}

MAGESIM_HOT_PATH std::vector<uint64_t> Kernel::CollectWritebackSlots(const std::vector<PageFrame*>& victims) {
  const FleetManager& fleet = resilience_.fleet();
  std::vector<uint64_t> slots;
  // magesim-lint: allow(hotpath-alloc): batch-local scratch, one exact-sized
  // reserve per batch; models the evictor's per-batch slot array, whose cost
  // is inside the modeled scan_per_page budget.
  slots.reserve(victims.size());
  for (PageFrame* f : victims) {
    uint64_t vpn = f->vpn;  // Unmap preserved frame->vpn for writeback routing
    uint64_t slot = FleetSlotOf(vpn);
    Pte& pte = pt_->At(vpn);
    if (f->dirty || !pte.remote_valid || !fleet.HasLiveCopy(slot)) {
      // magesim-lint: allow(hotpath-alloc): within the capacity reserved above.
      slots.push_back(slot);
      pte.remote_valid = true;
    } else {
      ++stats_.clean_reclaims;
    }
  }
  return slots;
}

uint64_t Kernel::FleetSlotOf(uint64_t vpn) const {
  if (swap_ == nullptr) return vpn;
  uint64_t slot = pt_->At(vpn).swap_slot;
  return slot == kNoSwapSlot ? vpn : slot;
}

// magesim-lint: allow(coroutine-ref-capture): b points at the caller's batch;
// every caller co_awaits this task inline and keeps the batch past it.
MAGESIM_HOT_PATH Task<size_t> Kernel::OpenBatch(int evictor_id, CoreId core, size_t batch,
                                                StageOp runner, EvictionBatch* b) {
  // magesim-lint: allow(hotpath-alloc): batch-local scratch, one exact-sized
  // reserve per batch (IsolateBatch fills it in place, never grows it).
  b->victims.reserve(batch);
  // Open before victim prep so the unmap/uncharge leaves (and the tenant
  // headroom releases inside them) land under this batch span. Run inline by
  // a fault or prefetch, the span nests as a child of that op's.
  b->op = StageOp{.core = core,
                  .actor = evictor_id,
                  .breakdown = runner.breakdown,
                  .beside_app = runner.beside_app};
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
    b->op.span = st->BeginChild(runner.span, SpanKind::kEvictBatch, evictor_id, kTraceNoPage);
  }
  size_t got = co_await PrepareVictims(b->op, batch, &b->victims);
  if (got == 0) {
    SpanEndDetached(b->op.span, 0);  // empty scan: close the attempt at once
    co_return 0;
  }
  TraceEmit(TraceEventType::kEvictBatchStart, evictor_id, kTraceNoPage, kTraceNoFrame, got);
  co_return got;
}

// magesim-lint: allow(coroutine-ref-capture): b is the caller's batch; every
// caller co_awaits this task inline and keeps the batch past it.
MAGESIM_HOT_PATH Task<> Kernel::CloseBatch(EvictionBatch& b) {
  const size_t n = b.victims.size();
  // Reclaim frames into the allocator and release waiting fault paths.
  if (Tracer::Get() != nullptr) {
    for (PageFrame* f : b.victims) {
      TraceEmit(TraceEventType::kFrameFree, b.op.actor, f->vpn, f->pfn);
    }
  }
  {
    StageScope s(Stage::kReclaim, b.op);
    s.arg = n;
    co_await allocator_->FreeBatch(b.op.core, b.victims);
  }
  stats_.evicted_pages += n;
  ++stats_.eviction_batches;
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
    st->NoteHeadroomPublisher(b.op.span);
  }
  free_pages_available_.Set();
  TraceEmit(TraceEventType::kEvictBatchEnd, b.op.actor, kTraceNoPage, kTraceNoFrame, n);
  SpanEndDetached(b.op.span, n);
}

MAGESIM_HOT_PATH Task<size_t> Kernel::EvictBatchSequential(int evictor_id, CoreId core,
                                                           size_t batch, StageOp runner) {
  EvictionBatch b;
  size_t got = co_await OpenBatch(evictor_id, core, batch, runner, &b);
  if (got == 0) co_return 0;

  // EP2: invalidate victim translations everywhere — or, in lazy-TLB mode,
  // wait for the next reconciliation tick instead of sending IPIs.
  {
    StageScope s(config_.lazy_tlb ? Stage::kLazyTlbWait : Stage::kShootdownWait, b.op);
    s.arg = got;
    if (config_.lazy_tlb) {
      co_await lazy_epoch_.Wait();
    } else {
      co_await tlb_.Shootdown(core, static_cast<int>(got), b.op.span);
    }
  }

  // EP4: write back dirty pages. Pages whose writes are lost for good are
  // surfaced by the fleet and their frames still reclaimed, so eviction
  // always makes progress.
  {
    StageScope s(Stage::kWriteback, b.op);
    co_await resilience_.WriteBack(evictor_id, CollectWritebackSlots(b.victims), b.op.span);
  }
  co_await CloseBatch(b);
  co_return got;
}

Task<> Kernel::LazyTlbTickerMain() {
  // Scheduler-tick reconciliation (LATR-style): each tick performs a local
  // full flush on every application core (charged as stolen time) and
  // releases eviction batches parked on the epoch.
  constexpr SimTime kLazyTlbPeriodNs = 50 * kMicrosecond;
  Engine& eng = Engine::current();
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->NameCurrentTask("lazy-tlb-ticker");
  }
  const MachineParams& hw = topo_.params();
  while (!eng.shutdown_requested()) {
    co_await Delay{kLazyTlbPeriodNs};
    ++lazy_epochs_;
    for (CoreId c : tlb_.target_cores()) {
      topo_.core(c).AddStolenTime(hw.full_flush_ns);
    }
    lazy_epoch_.Pulse();
  }
}

void Kernel::Start(int num_app_cores) {
  assert(!started_);
  started_ = true;
  if (config_.variant == Variant::kIdeal) return;
  Engine& eng = Engine::current();
  int total_cores = topo_.num_cores();
  for (int i = 0; i < config_.num_evictors; ++i) {
    CoreId core = total_cores - 1 - i;
    if (core < num_app_cores) core = num_app_cores % total_cores;  // degenerate small configs
    eng.Spawn(EvictorMain(i, core));
  }
  if (config_.feedback_evictors) {
    eng.Spawn(FeedbackControllerMain());
  }
  if (tenancy_ != nullptr && tenancy_->num_tenants() > 0) {
    eng.Spawn(TenantBalanceControllerMain());
  }
  if (config_.lazy_tlb) {
    eng.Spawn(LazyTlbTickerMain());
  }
}

}  // namespace magesim
