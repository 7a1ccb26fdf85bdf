#include "src/resilience/rebuild.h"

#include "src/resilience/resilient_rdma.h"
#include "src/trace/trace.h"

namespace magesim {

namespace {
// Attempts per slot per burst before the slot is re-queued for a later burst,
// with a backoff so a dirty window doesn't spin the queue.
constexpr int kMaxAttempts = 4;
constexpr SimTime kRequeueBackoffNs = 100 * kMicrosecond;
}  // namespace

RebuildDriver::RebuildDriver(FleetManager& fleet, double rebuild_gbps,
                             const RetryPolicy& retry)
    : fleet_(fleet), op_grace_ns_(retry.op_grace_ns) {
  if (rebuild_gbps > 0.0) {
    pace_gap_ns_ = static_cast<SimTime>(kPageSize * 8.0 / rebuild_gbps);
  }
}

void RebuildDriver::Start(Engine& eng) { eng.Spawn(Main()); }

// magesim-lint: allow(coroutine-ref-capture): burst_pages points into the
// driver's Main frame, which co_awaits every RepairOne before exiting.
Task<> RebuildDriver::RepairOne(uint64_t slot, SpanHandle span,
                                uint64_t* burst_pages) {
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    // Re-resolve each attempt: a crash mid-repair moves source and target.
    int target = fleet_.RebuildTargetFor(slot);
    int source = fleet_.SourceFor(slot);
    if (target < 0 || source < 0) co_return;  // fully placed, or data gone
    SimTime t0 = Engine::current().now();
    bool ok = co_await DeadlineWait(fleet_.nic(source).PostRead(kPageSize),
                                    op_grace_ns_) == OpOutcome::kOk;
    if (ok) {
      ok = co_await DeadlineWait(fleet_.nic(target).PostWrite(kPageSize),
                                 op_grace_ns_) == OpOutcome::kOk;
    }
    SpanLeafUnder(span, SpanKind::kRebuild, t0, Engine::current().now(), target,
                  slot, {}, static_cast<uint64_t>(attempt) + 1);
    if (ok) {
      fleet_.AddCopy(slot, target);
      ++pages_rebuilt_;
      *burst_pages += 1;
      TraceEmit(TraceEventType::kFleetRebuildPage, target, slot);
      // Still short of its desired set (k > 2 with several holders down)?
      if (fleet_.RebuildTargetFor(slot) >= 0) fleet_.EnqueueRepair(slot);
      co_return;
    }
    ++repair_failures_;
  }
  // A dirty window outlasted the attempt budget: give the link a breather
  // and put the slot back for a later burst.
  co_await Delay{kRequeueBackoffNs};
  fleet_.EnqueueRepair(slot);
}

Task<> RebuildDriver::Main() {
  for (;;) {
    while (fleet_.rebuild_pending() == 0) {
      fleet_.repair_ready().Reset();
      co_await fleet_.repair_ready().Wait();
    }
    ++bursts_;
    TraceEmit(TraceEventType::kFleetRebuildStart, -1, kTraceNoPage, kTraceNoFrame,
              static_cast<uint64_t>(fleet_.rebuild_pending()));
    SpanHandle span;
    if (SpanTracer* st = SpanTracer::Get()) {
      span = st->BeginDetached(SpanKind::kRebuild, -1, kTraceNoPage);
    }
    uint64_t burst_pages = 0;
    uint64_t slot = 0;
    while (fleet_.PopRepair(&slot)) {
      // A stale entry (slot already healed, or its target or data gone) posts
      // no op, so it gets no pace gap. It is skipped here, not in RepairOne:
      // thousands of awaits that complete in place nest the stack when the
      // compiler does not make their resumption a tail call (asan builds).
      if (fleet_.RebuildTargetFor(slot) < 0 || fleet_.SourceFor(slot) < 0) continue;
      co_await RepairOne(slot, span, &burst_pages);
      if (pace_gap_ns_ > 0) co_await Delay{pace_gap_ns_};
    }
    SpanEndDetached(span, burst_pages);
    TraceEmit(TraceEventType::kFleetRebuildDone, -1, kTraceNoPage, kTraceNoFrame,
              burst_pages);
  }
}

}  // namespace magesim
