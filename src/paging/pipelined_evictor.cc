// MAGE's cross-batch pipelined evictor (§4.1, Fig. 8).
//
// Three batches are in flight per evictor:
//   cur       — freshly scanned/unmapped; its shootdown IPIs just went out.
//   prev      — shootdown acknowledged; dirty pages posted for RDMA write.
//   prevprev  — RDMA writes complete; frames reclaimed to the allocator.
// The evictor never idles waiting for a TLB ACK or RDMA completion while
// there is pipeline work for another batch: RDMA wait latency hides the
// other stages' overheads.
#include <optional>

#include "src/analysis/lock_analyzer.h"
#include "src/paging/kernel.h"
#include "src/sim/engine.h"
#include "src/sim/hot_path.h"
#include "src/trace/trace.h"

namespace magesim {

MAGESIM_HOT_PATH Task<> Kernel::PipelinedEvictorMain(int evictor_id, CoreId core) {
  Engine& eng = Engine::current();
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    // Unbound (-1): evictors legitimately touch other cores' structures.
    la->NameCurrentTask("evictor-" + std::to_string(evictor_id));
  }
  std::optional<EvictionBatch> prev;
  std::optional<EvictionBatch> prevprev;

  auto pipeline_empty = [&]() { return !prev.has_value() && !prevprev.has_value(); };

  for (;;) {
    // Pressure accounts for pages already in the eviction pipeline (they
    // will reach the allocator within two stages).
    bool pressure =
        free_pages() + pending_reclaims_ < high_wm_ || TenancyEvictionPressure();
    if (!pressure && pipeline_empty()) {
      if (eng.shutdown_requested()) co_return;
      co_await evictor_wake_.Wait();
      continue;
    }
    if (pressure && resilience_.write_degraded()) {
      // Write channel degraded: pause once instead of piling batches onto an
      // open breaker; the next writeback acts as the half-open probe.
      co_await resilience_.EvictionBackpressure(evictor_id);
    }

    // Stage 1: slice a batch off the accounting lists, unmap, allocate
    // remote space.
    EvictionBatch cur;
    if (pressure) {
      if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
        // Detached: the batch's span outlives this co_await chain by two
        // pipeline stages, so the handle rides the EvictionBatch and is
        // passed explicitly to every stage that emits leaves.
        cur.span = st->BeginDetached(SpanKind::kEvictBatch, evictor_id, kTraceNoPage);
      }
      co_await PrepareVictims(StageOp{.core = core, .actor = evictor_id, .span = cur.span},
                              static_cast<size_t>(config_.evict_batch_pages), &cur.victims);
      pending_reclaims_ += cur.victims.size();
      if (!cur.victims.empty()) {
        TraceEmit(TraceEventType::kEvictBatchStart, evictor_id, kTraceNoPage, kTraceNoFrame,
                  cur.victims.size());
      } else if (cur.span) {
        SpanEndDetached(cur.span, 0);  // empty scan: close the attempt immediately
        cur.span = SpanHandle{};
      }
    }

    // Stage 2: wait for the *previous* batch's TLB ACKs (normally already
    // complete thanks to the overlap), then kick off this batch's shootdown.
    // Lazy-TLB mode replaces both with a wait for the reconciliation tick.
    if (prev.has_value()) {
      StageOp op{.core = core, .actor = evictor_id, .span = prev->span};
      StageScope s(config_.lazy_tlb ? Stage::kLazyTlbWait : Stage::kShootdownWait, op);
      if (config_.lazy_tlb) {
        co_await lazy_epoch_.Wait();
      } else {
        co_await tlb_.Finish(prev->shootdown);
        prev->shootdown = nullptr;
      }
    }
    if (!cur.victims.empty() && !config_.lazy_tlb) {
      StageOp op{.core = core, .actor = evictor_id, .span = cur.span};
      StageScope s(Stage::kShootdownPost, op);
      // Begin() carries the batch span into the ShootdownOp so the per-IPI
      // delivery leaves land under this batch.
      cur.shootdown =
          co_await tlb_.Begin(core, static_cast<int>(cur.victims.size()), cur.span);
    }

    // Stage 3: wait for the oldest batch's RDMA writes, reclaim its frames,
    // then post writes for the middle batch.
    if (prevprev.has_value()) {
      StageOp op{.core = core, .actor = evictor_id, .span = prevprev->span};
      {
        StageScope s(Stage::kWriteback, op);
        co_await resilience_.FinishWriteback(std::move(prevprev->writeback), evictor_id,
                                             prevprev->span);
      }
      if (Tracer::Get() != nullptr) {
        for (PageFrame* f : prevprev->victims) {
          TraceEmit(TraceEventType::kFrameFree, evictor_id, f->vpn, f->pfn);
        }
      }
      {
        StageScope s(Stage::kReclaim, op);
        s.arg = prevprev->victims.size();
        co_await allocator_->FreeBatch(core, prevprev->victims);
      }
      pending_reclaims_ -= prevprev->victims.size();
      stats_.evicted_pages += prevprev->victims.size();
      ++stats_.eviction_batches;
      if (SpanTracer* st = SpanTracer::Get(); st != nullptr) {
        st->NoteHeadroomPublisher(prevprev->span);
      }
      free_pages_available_.Set();
      TraceEmit(TraceEventType::kEvictBatchEnd, evictor_id, kTraceNoPage, kTraceNoFrame,
                prevprev->victims.size());
      SpanEndDetached(prevprev->span, prevprev->victims.size());
      prevprev.reset();
    }
    if (prev.has_value()) {
      prev->writeback = resilience_.StartWriteback(
          evictor_id, CollectWritebackSlots(prev->victims), prev->span);
      prevprev = std::move(prev);
      prev.reset();
    }
    if (!cur.victims.empty()) {
      prev = std::move(cur);
    } else if (pressure && pipeline_empty()) {
      if (eng.shutdown_requested()) co_return;
      if (FaultersWaitingForPages() || TenancyHardWaiters()) {
        // Nothing isolatable *right now* (reference bits still decaying) but
        // faulting threads are blocked on us: retry shortly instead of
        // parking — the blocked threads cannot generate another wakeup.
        co_await Delay{2 * kMicrosecond};
      } else {
        // No urgency: park until the fault path signals pressure again.
        co_await evictor_wake_.Wait();
      }
    }
  }
}

}  // namespace magesim
