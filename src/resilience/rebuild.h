// Online re-replication for a memory-server fleet. A single background
// coroutine drains the FleetManager's repair queue, one repair at a time:
// each under-replicated slot is read from a surviving holder and written to
// the first live desired server missing a copy, and a pace gap of
// page_bits / rebuild_gbps follows each repair so repair traffic doesn't
// starve the foreground fault path; a stale entry (slot healed, or target or
// data gone) is dropped at no cost. Both ops are awaited through the data
// path's DeadlineWait with the RetryPolicy's op grace: a completed op ends
// its wait at its completion, and a lost one fails once overdue by the
// grace. Transient op failures (drop/error windows) back off and re-queue
// the slot; a slot whose data is gone is skipped — the fleet already
// surfaced it as lost. Each burst (first repair after idle until the queue
// drains) is a detached kRebuild root span, so rebuild time shows up in the
// critical-path tail attribution.
#ifndef MAGESIM_RESILIENCE_REBUILD_H_
#define MAGESIM_RESILIENCE_REBUILD_H_

#include <cstdint>

#include "src/fleet/fleet.h"
#include "src/resilience/retry.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/spans/spans.h"

namespace magesim {

class RebuildDriver {
 public:
  // `rebuild_gbps` <= 0 disables pacing (repair at link speed); the op grace
  // is `retry.op_grace_ns`, the one the fault path's reads and writes use.
  RebuildDriver(FleetManager& fleet, double rebuild_gbps, const RetryPolicy& retry);

  // Spawns the repair coroutine; call once, before Engine::Run.
  void Start(Engine& eng);

  uint64_t pages_rebuilt() const { return pages_rebuilt_; }
  uint64_t bursts() const { return bursts_; }
  uint64_t repair_failures() const { return repair_failures_; }
  size_t pending() const { return fleet_.rebuild_pending(); }

 private:
  Task<> Main();
  // One repair attempt chain for `slot`; bumps *burst_pages on success.
  Task<> RepairOne(uint64_t slot, SpanHandle span, uint64_t* burst_pages);

  FleetManager& fleet_;
  SimTime op_grace_ns_;
  SimTime pace_gap_ns_ = 0;

  uint64_t pages_rebuilt_ = 0;
  uint64_t bursts_ = 0;
  uint64_t repair_failures_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_RESILIENCE_REBUILD_H_
