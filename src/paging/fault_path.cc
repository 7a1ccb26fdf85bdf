// Kernel fault-in path (FP of Fig. 2). Each stage is recorded once, through
// the stage table (src/metrics/stage.h).
#include <cassert>

#include "src/paging/kernel.h"
#include "src/paging/prefetcher.h"
#include "src/resilience/resilient_rdma.h"
#include "src/sim/engine.h"
#include "src/sim/hot_path.h"
#include "src/spans/spans.h"
#include "src/tenancy/memcg.h"
#include "src/trace/trace.h"

namespace magesim {

void Kernel::CompleteFault(SimTime t0, const Breakdown& stages) {
  stats_.fault_latency.Record(Engine::current().now() - t0);
  stats_.fault_breakdown.Merge(stages);
}

MAGESIM_HOT_PATH Task<> Kernel::Fault(CoreId core, uint64_t vpn, bool write) {
  Engine& eng = Engine::current();
  const MachineParams& hw = topo_.params();
  SimTime t0 = eng.now();
  assert(vpn < wss_pages_);
  ++faults_per_core_[static_cast<size_t>(core)];
  Breakdown stages;  // this fault's tally, merged with its latency at the end
  StageOp op{.core = core, .actor = core, .page = vpn, .breakdown = &stages};

  if (config_.variant == Variant::kIdeal) {
    // Zero software overhead: only the data movement cost (§3.1).
    Pte& pte = pt_->At(vpn);
    if (pte.present) co_return;
    if (!pt_->TryBeginFault(vpn)) {
      TraceEmit(TraceEventType::kFaultDedup, core, vpn);
      {
        StageScope s(Stage::kDedupWait, op);
        co_await pt_->WaitForFault(vpn);
      }
      CompleteFault(t0, stages);
      co_return;
    }
    ++stats_.faults;
    TraceEmit(TraceEventType::kFaultStart, core, vpn, kTraceNoFrame, write ? 1 : 0);
    PageFrame* f = co_await AllocWithPressure(op);
    assert(f != nullptr);
    TraceEmit(TraceEventType::kFrameAlloc, core, vpn, f->pfn);
    {
      StageScope s(Stage::kRead, op);
      RemoteOpStatus st = co_await resilience_.ReadPage(core, vpn, FleetSlotOf(vpn),
                                                        /*allow_poison=*/true);
      if (st == RemoteOpStatus::kPoisoned) ++stats_.pages_poisoned;
    }
    pt_->Map(vpn, f);
    ChargePage(core, vpn, f);
    TraceEmit(TraceEventType::kPageMap, core, vpn, f->pfn);
    if (write) {
      Pte& pte = pt_->At(vpn);
      pte.dirty = true;
      pte.remote_valid = false;
    }
    // magesim-lint: allow(hotpath-alloc): ideal variant models zero software
    // overhead, so host-side deque growth is explicitly outside the model.
    ideal_fifo_.push_back(vpn);
    pt_->EndFault(vpn);
    CompleteFault(t0, stages);
    TraceEmit(TraceEventType::kFaultEnd, core, vpn, f->pfn,
              static_cast<uint64_t>(eng.now() - t0));
    co_return;
  }

  // --- Trap entry, VMA resolution (variant-dependent locking); recorded below ---
  co_await Delay{config_.fault_entry_ns + hw.page_table_walk_ns};
  const Vma* v = nullptr;
  if (!vma_->TryFind(vpn, &v)) v = co_await vma_->Find(vpn);
  assert(v != nullptr);
  (void)v;  // only consulted by the assert in NDEBUG builds

  Pte& pte = pt_->At(vpn);
  if (pte.present) {
    // Raced with a concurrent fault or prefetch: a minor fault. Its entry is
    // core time, but no fault latency.
    RecordStage(Stage::kEntry, StageOp{.core = core}, t0);
    pte.accessed = true;
    if (write) {
      pte.dirty = true;
      pte.remote_valid = false;
    }
    co_return;
  }
  // The fault span is a detached root: the handle rides `op` through
  // admission, allocation, and the resilient read so the suppressed
  // (sampled-out) case never touches the tracer's context map.
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
    int tenant = tenancy_ != nullptr ? tenancy_->TenantOf(vpn) : -1;
    op.span = st->BeginDetached(SpanKind::kFault, core, vpn, tenant, t0);
  }
  RecordStage(Stage::kEntry, op, t0);
  if (!pt_->TryBeginFault(vpn)) {
    // Fault dedup via the unified page table / swap cache: wait for the
    // in-flight fault instead of issuing a duplicate read.
    ++stats_.dedup_waits;
    TraceEmit(TraceEventType::kFaultDedup, core, vpn);
    {
      StageScope s(Stage::kDedupWait, op);
      if (SpanTracer* st = SpanTracer::Get(); st != nullptr && st->Sampled(op.span)) {
        // Capture the in-flight fault before waiting: it erases its page-span
        // registration when it completes.
        s.link = st->page_span(vpn);
      }
      co_await pt_->WaitForFault(vpn);
    }
    SpanEndDetached(op.span, /*arg=*/1);  // arg 1 marks a dedup-coalesced fault
    CompleteFault(t0, stages);
    co_return;
  }
  ++stats_.faults;
  TraceEmit(TraceEventType::kFaultStart, core, vpn, kTraceNoFrame, write ? 1 : 0);
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr && st->Sampled(op.span)) {
    st->NotePageSpan(vpn, op.span);  // dedup'd followers link to this fault
  }

  // --- Tenancy admission: QoS backpressure + hard-limit gate ---
  if (tenancy_ != nullptr) co_await TenantAdmission(op);

  // --- Serialized mm bookkeeping (page-table lock, rmap, cgroup: Linux) ---
  if (config_.mm_locks_cs_ns > 0) {
    StageScope s(Stage::kMmLocks, op);
    auto g = co_await mm_locks_.Scoped();
    co_await Delay{config_.mm_locks_cs_ns};
  }

  // --- FP1: local page allocation (may wait for / trigger eviction) ---
  PageFrame* frame = co_await AllocWithPressure(op);
  assert(frame != nullptr);
  TraceEmit(TraceEventType::kFrameAlloc, core, vpn, frame->pfn);

  // --- FP2: RDMA read of the page ---
  if (config_.rdma_stack_cs_ns > 0) {
    StageScope s(Stage::kRdmaStack, op);
    auto g = co_await rdma_stack_lock_.Scoped();
    co_await Delay{config_.rdma_stack_cs_ns};
  }
  {
    // The data path emits its own rdma/retry/backoff/breaker leaves under
    // the fault span.
    StageScope s(Stage::kRead, op);
    RemoteOpStatus st = co_await resilience_.ReadPage(core, vpn, FleetSlotOf(vpn),
                                                      /*allow_poison=*/true, op.span);
    if (st == RemoteOpStatus::kPoisoned) ++stats_.pages_poisoned;
  }

  {
    StageScope s(Stage::kMapInstall, op);
    // --- Swap bookkeeping (slot-based variants free the slot on swap-in) ---
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
    pt_->Map(vpn, frame);
    ChargePage(core, vpn, frame);
    TraceEmit(TraceEventType::kPageMap, core, vpn, frame->pfn);
    if (write) {
      pte.dirty = true;
      pte.remote_valid = false;
    }
  }

  // --- FP3: page accounting insert ---
  {
    StageScope s(Stage::kAccountingInsert, op);
    co_await accounting_->Insert(core, frame);
  }

  pt_->EndFault(vpn);
  if (SpanTracer* st = SpanTracer::Get(); st != nullptr && op.span) {
    if (st->Sampled(op.span)) st->ErasePageSpan(vpn);
    st->EndDetached(op.span);
  }
  CompleteFault(t0, stages);
  TraceEmit(TraceEventType::kFaultEnd, core, vpn, frame->pfn,
            static_cast<uint64_t>(eng.now() - t0));

  if (prefetcher_ != nullptr) {
    prefetcher_->OnFault(core, vpn);
  }
}

}  // namespace magesim
