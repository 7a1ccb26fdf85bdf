// Sequential (non-pipelined) evictor threads and the Hermit-style feedback
// controller.
#include "src/analysis/lock_analyzer.h"
#include "src/paging/kernel.h"
#include "src/sim/engine.h"
#include "src/sim/hot_path.h"

namespace magesim {

MAGESIM_HOT_PATH Task<> Kernel::SequentialEvictorMain(int evictor_id, CoreId core) {
  Engine& eng = Engine::current();
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    // Unbound (-1): evictors legitimately touch other cores' structures.
    la->NameCurrentTask("evictor-" + std::to_string(evictor_id));
  }
  for (;;) {
    if (evictor_id >= active_evictors_) {
      // Parked by the feedback controller; check back periodically while the
      // system is live.
      if (eng.shutdown_requested()) co_return;
      co_await evictor_wake_.Wait();
      if (config_.evictor_wake_cost_ns > 0) {
        co_await Delay{config_.evictor_wake_cost_ns};
      }
      continue;
    }
    if (free_pages() >= high_wm_ && !TenancyEvictionPressure()) {
      if (eng.shutdown_requested()) co_return;
      // Sleep until the fault path signals pressure (DiLOS wait-wake: the
      // wake itself costs an IPI + context switch, charged on resume).
      co_await evictor_wake_.Wait();
      if (config_.evictor_wake_cost_ns > 0) {
        co_await Delay{config_.evictor_wake_cost_ns};
      }
      continue;
    }
    if (resilience_.write_degraded()) {
      // Write channel is degraded: pause briefly instead of hammering the
      // open breaker; the next writeback acts as the half-open probe.
      co_await resilience_.EvictionBackpressure(evictor_id);
    }
    size_t got = co_await EvictBatchSequential(evictor_id, core,
                                               static_cast<size_t>(config_.evict_batch_pages));
    if (got == 0) {
      if (eng.shutdown_requested()) co_return;
      if (FaultersWaitingForPages() || TenancyHardWaiters()) {
        // Blocked faulters cannot signal again; retry once references decay.
        co_await Delay{2 * kMicrosecond};
      } else {
        // Nothing reclaimable and no one waiting: park until signaled.
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
