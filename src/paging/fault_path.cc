// Kernel fault-in path (FP of Fig. 2), with per-phase latency attribution.
#include <cassert>

#include "src/metrics/profiler.h"
#include "src/paging/kernel.h"
#include "src/paging/prefetcher.h"
#include "src/resilience/resilient_rdma.h"
#include "src/sim/engine.h"
#include "src/sim/hot_path.h"
#include "src/spans/spans.h"
#include "src/tenancy/memcg.h"
#include "src/trace/trace.h"

namespace magesim {

namespace {
// Interned breakdown categories, resolved once — Breakdown::Add on the fault
// hot path is then a plain vector index.
const int kCatEntry = Breakdown::InternCategory("entry");
const int kCatOther = Breakdown::InternCategory("other");
const int kCatAlloc = Breakdown::InternCategory("alloc");
const int kCatRdma = Breakdown::InternCategory("rdma");
const int kCatAccounting = Breakdown::InternCategory("accounting");
}  // namespace

MAGESIM_HOT_PATH Task<> Kernel::Fault(CoreId core, uint64_t vpn, bool write) {
  Engine& eng = Engine::current();
  const MachineParams& hw = topo_.params();
  SimTime t0 = eng.now();
  assert(vpn < wss_pages_);
  ++faults_per_core_[static_cast<size_t>(core)];

  if (config_.variant == Variant::kIdeal) {
    // Zero software overhead: only the data movement cost (§3.1).
    Pte& pte = pt_->At(vpn);
    if (pte.present) co_return;
    if (!pt_->TryBeginFault(vpn)) {
      TraceEmit(TraceEventType::kFaultDedup, core, vpn);
      co_await pt_->WaitForFault(vpn);
      stats_.fault_latency.Record(eng.now() - t0);
      co_return;
    }
    ++stats_.faults;
    TraceEmit(TraceEventType::kFaultStart, core, vpn, kTraceNoFrame, write ? 1 : 0);
    PageFrame* f = co_await AllocWithPressure(core, vpn);
    assert(f != nullptr);
    TraceEmit(TraceEventType::kFrameAlloc, core, vpn, f->pfn);
    {
      PhaseScope ps(core, SimPhase::kRdmaWait);
      RemoteOpStatus st = co_await resilience_.ReadPage(core, vpn, FleetSlotOf(vpn),
                                                        /*allow_poison=*/true);
      if (st == RemoteOpStatus::kPoisoned) ++stats_.pages_poisoned;
    }
    pt_->Map(vpn, f);
    ChargePage(core, vpn, f);
    TraceEmit(TraceEventType::kPageMap, core, vpn, f->pfn);
    if (write) {
      pt_->At(vpn).dirty = true;
      remote_valid_[vpn] = false;
    }
    // magesim-lint: allow(hotpath-alloc): ideal variant models zero software
    // overhead, so host-side deque growth is explicitly outside the model.
    ideal_fifo_.push_back(vpn);
    pt_->EndFault(vpn);
    stats_.fault_latency.Record(eng.now() - t0);
    TraceEmit(TraceEventType::kFaultEnd, core, vpn, f->pfn,
              static_cast<uint64_t>(eng.now() - t0));
    co_return;
  }

  // --- Trap entry and dispatch ---
  {
    PhaseScope ps(core, SimPhase::kFaultMap);
    co_await Delay{config_.fault_entry_ns + hw.page_table_walk_ns};

    // --- VMA resolution (variant-dependent locking) ---
    const Vma* v = nullptr;
    if (!vma_->TryFind(vpn, &v)) v = co_await vma_->Find(vpn);
    assert(v != nullptr);
    (void)v;  // only consulted by the assert in NDEBUG builds
  }
  stats_.fault_breakdown.Add(kCatEntry, eng.now() - t0);

  Pte& pte = pt_->At(vpn);
  if (pte.present) {
    // Raced with a concurrent fault or prefetch: minor fault.
    pte.accessed = true;
    if (write) {
      pte.dirty = true;
      remote_valid_[vpn] = false;
    }
    co_return;
  }
  if (!pt_->TryBeginFault(vpn)) {
    // Fault dedup via the unified page table / swap cache: wait for the
    // in-flight fault instead of issuing a duplicate read.
    ++stats_.dedup_waits;
    TraceEmit(TraceEventType::kFaultDedup, core, vpn);
    SpanHandle droot{};
    SpanCausalPoint inflight{};
    SimTime w0 = eng.now();
    if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
      int tenant = tenancy_ != nullptr ? tenancy_->TenantOf(vpn) : -1;
      droot = st->BeginDetached(SpanKind::kFault, core, vpn, tenant, t0);
      if (st->Sampled(droot)) {
        st->LeafUnder(droot, SpanKind::kEntry, t0, w0, core, vpn);
        // Capture the in-flight fault before waiting: it erases its page-span
        // registration when it completes.
        inflight = st->page_span(vpn);
      }
    }
    co_await pt_->WaitForFault(vpn);
    if (droot) {
      SpanLeafUnder(droot, SpanKind::kDedupWait, w0, eng.now(), core, vpn, inflight);
      SpanEndDetached(droot, /*arg=*/1);  // arg 1 marks a dedup-coalesced fault
    }
    stats_.fault_latency.Record(eng.now() - t0);
    co_return;
  }
  ++stats_.faults;
  TraceEmit(TraceEventType::kFaultStart, core, vpn, kTraceNoFrame, write ? 1 : 0);
  // The fault span is a detached root: the handle is threaded explicitly
  // through admission, allocation, and the resilient read so the suppressed
  // (sampled-out) case never touches the tracer's context map.
  SpanHandle root{};
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
    int tenant = tenancy_ != nullptr ? tenancy_->TenantOf(vpn) : -1;
    root = st->BeginDetached(SpanKind::kFault, core, vpn, tenant, t0);
    if (st->Sampled(root)) {
      st->LeafUnder(root, SpanKind::kEntry, t0, eng.now(), core, vpn);
      st->NotePageSpan(vpn, root);  // dedup'd followers link to this fault
    }
  }

  // --- Tenancy admission: QoS backpressure + hard-limit gate ---
  if (tenancy_ != nullptr) {
    PhaseScope ps(core, SimPhase::kFreeWait);
    co_await TenantAdmission(core, vpn, root);
  }

  // --- Serialized mm bookkeeping (page-table lock, rmap, cgroup: Linux) ---
  if (config_.mm_locks_cs_ns > 0) {
    SimTime m0 = eng.now();
    PhaseScope ps(core, SimPhase::kFaultMap);
    auto g = co_await mm_locks_.Scoped();
    co_await Delay{config_.mm_locks_cs_ns};
    stats_.fault_breakdown.Add(kCatOther, eng.now() - m0);
    SpanLeafUnder(root, SpanKind::kMmLocks, m0, eng.now(), core, vpn);
  }

  // --- FP1: local page allocation (may wait for / trigger eviction) ---
  SimTime a0 = eng.now();
  PageFrame* frame = co_await AllocWithPressure(core, vpn, root);
  assert(frame != nullptr);
  TraceEmit(TraceEventType::kFrameAlloc, core, vpn, frame->pfn);
  stats_.fault_breakdown.Add(kCatAlloc, eng.now() - a0);

  // --- FP2: RDMA read of the page ---
  SimTime r0 = eng.now();
  {
    PhaseScope ps(core, SimPhase::kRdmaWait);
    if (config_.rdma_stack_cs_ns > 0) {
      auto g = co_await rdma_stack_lock_.Scoped();
      co_await Delay{config_.rdma_stack_cs_ns};
    }
    // The data path emits its own rdma/retry/backoff/breaker leaves under
    // the fault span.
    RemoteOpStatus st = co_await resilience_.ReadPage(core, vpn, FleetSlotOf(vpn),
                                                      /*allow_poison=*/true, root);
    if (st == RemoteOpStatus::kPoisoned) ++stats_.pages_poisoned;
  }
  stats_.fault_breakdown.Add(kCatRdma, eng.now() - r0);

  // --- Swap bookkeeping (slot-based variants free the slot on swap-in) ---
  SimTime o0 = eng.now();
  {
    PhaseScope ps(core, SimPhase::kFaultMap);
    if (swap_ != nullptr && pte.swap_slot != kNoSwapSlot) {
      co_await swap_->Free(pte.swap_slot);
      pte.swap_slot = kNoSwapSlot;
    }
    // Residual per-fault OS work outside the modeled locks.
    if (config_.fault_extra_ns > 0) {
      co_await Delay{config_.fault_extra_ns};
    }

    // --- Install the mapping ---
    co_await Delay{hw.pte_update_ns};
  }
  pt_->Map(vpn, frame);
  ChargePage(core, vpn, frame);
  TraceEmit(TraceEventType::kPageMap, core, vpn, frame->pfn);
  if (write) {
    pte.dirty = true;
    remote_valid_[vpn] = false;
  }
  stats_.fault_breakdown.Add(kCatOther, eng.now() - o0);
  SpanLeafUnder(root, SpanKind::kMapInstall, o0, eng.now(), core, vpn);

  // --- FP3: page accounting insert ---
  SimTime acc0 = eng.now();
  {
    PhaseScope ps(core, SimPhase::kAccounting);
    co_await accounting_->Insert(core, frame);
  }
  stats_.fault_breakdown.Add(kCatAccounting, eng.now() - acc0);
  SpanLeafUnder(root, SpanKind::kAccounting, acc0, eng.now(), core, vpn);

  pt_->EndFault(vpn);
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr && root) {
    if (st->Sampled(root)) st->ErasePageSpan(vpn);
    st->EndDetached(root);
  }
  stats_.fault_latency.Record(eng.now() - t0);
  TraceEmit(TraceEventType::kFaultEnd, core, vpn, frame->pfn,
            static_cast<uint64_t>(eng.now() - t0));

  if (prefetcher_ != nullptr) {
    prefetcher_->OnFault(core, vpn);
  }
}

}  // namespace magesim
