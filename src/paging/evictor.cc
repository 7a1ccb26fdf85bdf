// The evictor threads (EP, Fig. 2) and Hermit's feedback controller.
//
// One loop serves every system; the config picks its batch schedule.
// Sequential: each batch runs start to finish (isolate, unmap, shoot down,
// write back, reclaim) before the next opens. Pipelined, MAGE's cross-batch
// pipeline (§4.1, Fig. 8): three batches are in flight per evictor:
//   cur       — freshly scanned/unmapped; its shootdown IPIs just went out.
//   prev      — shootdown acknowledged; dirty pages posted for RDMA write.
//   prevprev  — RDMA writes complete; frames reclaimed to the allocator.
// The evictor never idles waiting for a TLB ACK or RDMA completion while
// there is pipeline work for another batch: RDMA wait latency hides the
// other stages' overheads. Both schedules open and close a batch the same
// way (Kernel::OpenBatch / CloseBatch).
#include <optional>

#include "src/analysis/lock_analyzer.h"
#include "src/paging/kernel.h"
#include "src/sim/engine.h"
#include "src/sim/hot_path.h"

namespace magesim {

MAGESIM_HOT_PATH Task<> Kernel::EvictorMain(int evictor_id, CoreId core) {
  Engine& eng = Engine::current();
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    // Unbound (-1): evictors legitimately touch other cores' structures.
    la->NameCurrentTask("evictor-" + std::to_string(evictor_id));
  }
  const size_t batch_pages = static_cast<size_t>(config_.evict_batch_pages);
  // The pipelined schedule's batches in flight (always empty when sequential).
  std::optional<EvictionBatch> prev;
  std::optional<EvictionBatch> prevprev;
  auto pipeline_empty = [&]() { return !prev.has_value() && !prevprev.has_value(); };

  for (;;) {
    // Pressure accounts for pages already in the eviction pipeline (they
    // will reach the allocator within two stages).
    bool pressure =
        free_pages() + pending_reclaims_ < high_wm_ || TenancyEvictionPressure();
    if (pipeline_empty() && (evictor_id >= active_evictors_ || !pressure)) {
      // Parked by the feedback controller, or no pressure: sleep until
      // signaled (DiLOS wait-wake: the wake itself costs an IPI + context
      // switch, charged on resume).
      if (eng.shutdown_requested()) co_return;
      co_await evictor_wake_.Wait();
      if (config_.evictor_wake_cost_ns > 0) {
        co_await Delay{config_.evictor_wake_cost_ns};
      }
      continue;
    }
    if (pressure && resilience_.write_degraded()) {
      // Write channel is degraded: pause once instead of piling batches onto
      // an open breaker; the next writeback acts as the half-open probe.
      co_await resilience_.EvictionBackpressure(evictor_id);
    }

    bool empty_scan;
    if (!config_.pipelined_eviction) {
      empty_scan = co_await EvictBatchSequential(evictor_id, core, batch_pages) == 0;
    } else {
      // Stage 1: slice a batch off the accounting lists, unmap, allocate
      // remote space. An evictor the feedback controller parked only drains.
      const bool open = pressure && evictor_id < active_evictors_;
      EvictionBatch cur;
      if (open) {
        pending_reclaims_ += co_await OpenBatch(evictor_id, core, batch_pages, {}, &cur);
      }

      // Stage 2: wait for the *previous* batch's TLB ACKs (normally already
      // complete thanks to the overlap), then kick off this batch's
      // shootdown. Lazy-TLB mode replaces both with a wait for the
      // reconciliation tick.
      if (prev.has_value()) {
        StageScope s(config_.lazy_tlb ? Stage::kLazyTlbWait : Stage::kShootdownWait,
                     prev->op);
        if (config_.lazy_tlb) {
          co_await lazy_epoch_.Wait();
        } else {
          co_await tlb_.Finish(prev->shootdown);
          prev->shootdown = nullptr;
        }
      }
      if (!cur.victims.empty() && !config_.lazy_tlb) {
        StageScope s(Stage::kShootdownPost, cur.op);
        // Begin() carries the batch span into the ShootdownOp so the per-IPI
        // delivery leaves land under this batch.
        cur.shootdown =
            co_await tlb_.Begin(core, static_cast<int>(cur.victims.size()), cur.op.span);
      }

      // Stage 3: wait for the oldest batch's RDMA writes, reclaim its frames,
      // then post writes for the middle batch.
      if (prevprev.has_value()) {
        {
          StageScope s(Stage::kWriteback, prevprev->op);
          co_await resilience_.FinishWriteback(std::move(prevprev->writeback), evictor_id,
                                               prevprev->op.span);
        }
        co_await CloseBatch(*prevprev);
        pending_reclaims_ -= prevprev->victims.size();
        prevprev.reset();
      }
      if (prev.has_value()) {
        prev->writeback = resilience_.StartWriteback(
            evictor_id, CollectWritebackSlots(prev->victims), prev->op.span);
        prevprev = std::move(prev);
        prev.reset();
      }
      if (!cur.victims.empty()) prev = std::move(cur);
      empty_scan = open && pipeline_empty();  // nothing isolated, nothing in flight
    }
    if (empty_scan) {
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

Task<> Kernel::FeedbackControllerMain() {
  // Hermit's feedback-directed asynchrony: scale the number of active
  // evictor threads with reclaim pressure.
  Engine& eng = Engine::current();
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    la->NameCurrentTask("evict-controller");
  }
  constexpr SimTime kPeriod = 100 * kMicrosecond;
  uint64_t last_faults = 0;
  while (!eng.shutdown_requested()) {
    co_await Delay{kPeriod};
    uint64_t faults = stats_.faults;
    uint64_t recent = faults - last_faults;
    last_faults = faults;
    uint64_t free = free_pages();
    if (free < low_wm_ || stats_.sync_evictions > 0) {
      active_evictors_ = config_.num_evictors;
    } else if (free < high_wm_ && recent > 0) {
      active_evictors_ = std::min(active_evictors_ + 1, config_.num_evictors);
    } else if (recent == 0 && free >= high_wm_) {
      active_evictors_ = std::max(1, active_evictors_ - 1);
    }
    if (free < high_wm_) {
      evictor_wake_.Pulse();  // make newly activated evictors notice
    }
  }
}

}  // namespace magesim
