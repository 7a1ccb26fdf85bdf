// Sim-time profiler: attributes each simulated core's time to phases.
//
// The paging layers record each leaf interval (no nesting, so segments never
// double-count) through their stage scope (src/metrics/stage.h), which adds it
// here with the stage's phase; application threads report flushed compute
// quanta and absorbed IPI-handler ("stolen") time. Whatever is not covered by
// a scope is idle time, derived per core as `end_time - attributed`, so the
// per-phase attribution always sums to total simulated core-time exactly —
// the report's own consistency check (and ISSUE acceptance) relies on this.
//
// Lock-queue waiting is a cross-cutting view: `SimMutex::Unlock` reports each
// handoff's wait through the observer hook in sim/sync.h, and the profiler
// keeps per-lock named totals (the extension of LockStats the breakdown
// figures want). A coroutine parked on a FIFO lock occupies no core in this
// one-thread-per-core model, so lock wait is *not* also added to the per-core
// phase table — it would double-count against the enclosing fault/evict
// phases. `lock_wait_total()` equals the sum of the per-lock entries by
// construction.
//
// Like the Tracer, at most one profiler is installed at a time and every hook
// costs a single pointer test while none is.
#ifndef MAGESIM_METRICS_PROFILER_H_
#define MAGESIM_METRICS_PROFILER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/time.h"

namespace magesim {

class SimMutex;

// Phases a simulated core's time is attributed to (§3.2 / Figs. 6 and 16
// vocabulary). kIdle is never recorded directly; exporters derive it.
enum class SimPhase : uint8_t {
  kAppCompute,  // application compute quanta (incl. virtualization tax)
  kFaultMap,    // fault-path map/unmap work: trap entry, VMA, PTE, bookkeeping
  kFaultAlloc,  // frame allocation inside the fault path
  kAccounting,  // page-accounting insert (FP3) and isolate (EP1)
  kRdmaWait,    // waiting on NIC reads (fault-in) and writebacks (eviction)
  kTlbWait,     // waiting for shootdown ACKs + absorbed flush-IPI handler time
  kEviction,    // eviction work: victim unmap, remote alloc, frame reclaim
  kFreeWait,    // MAGE-style fault-path waits for the EP to free pages
  kNumPhases,
};

inline constexpr int kNumSimPhases = static_cast<int>(SimPhase::kNumPhases);

// Stable snake_case name used by the JSON/CSV exports.
const char* SimPhaseName(SimPhase p);

class SimProfiler {
 public:
  explicit SimProfiler(int num_cores);
  ~SimProfiler();
  SimProfiler(const SimProfiler&) = delete;
  SimProfiler& operator=(const SimProfiler&) = delete;

  // Process-wide installation (mirrors Tracer). Install also registers the
  // lock-wait observer with sim/sync.h; Uninstall removes both.
  void Install();
  void Uninstall();
  static SimProfiler* Get() { return current_; }

  void AddPhase(int core, SimPhase phase, SimTime ns) {
    if (ns <= 0 || core < 0 || core >= static_cast<int>(per_core_.size())) return;
    per_core_[static_cast<size_t>(core)][static_cast<size_t>(phase)] += ns;
  }

  // Called (via the sync.h observer) for every contended lock handoff.
  void RecordLockWait(const SimMutex& m, SimTime waited_ns);

  // --- Introspection / export ---
  int num_cores() const { return static_cast<int>(per_core_.size()); }
  SimTime core_phase(int core, SimPhase p) const {
    return per_core_[static_cast<size_t>(core)][static_cast<size_t>(p)];
  }
  // Total attributed (non-idle) time on one core.
  SimTime core_attributed(int core) const;
  // Sum of one phase across all cores.
  SimTime phase_total(SimPhase p) const;
  // Sum of all phases across all cores.
  SimTime total_attributed() const;

  // Cross-cutting lock-wait view. total == sum of per-lock entries.
  SimTime lock_wait_total() const { return lock_wait_total_; }
  const std::map<std::string, SimTime>& lock_waits() const { return lock_waits_; }
  uint64_t lock_wait_events() const { return lock_wait_events_; }

  void Reset();

 private:
  std::vector<std::array<SimTime, kNumSimPhases>> per_core_;
  SimTime lock_wait_total_ = 0;
  uint64_t lock_wait_events_ = 0;
  // Name-keyed totals (deterministic export order); node-based map keeps the
  // cached slot pointers below stable.
  std::map<std::string, SimTime> lock_waits_;
  // Per-lock-object cache so repeat waits skip the string lookup. Never
  // iterated (pointer keys would be nondeterministic) — lookup only.
  std::unordered_map<const SimMutex*, SimTime*> lock_slot_cache_;

  static SimProfiler* current_;
};

}  // namespace magesim

#endif  // MAGESIM_METRICS_PROFILER_H_
