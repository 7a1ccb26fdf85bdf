// Simulated-time concurrency-correctness analyzer ("sim-TSan").
//
// All magesim "cores" are coroutines on one OS thread, so ThreadSanitizer is
// structurally blind to sim-level races: a missed `co_await lock` silently
// corrupts the contention results the simulator exists to report. The
// LockAnalyzer closes that gap at runtime. Installed (one at a time, the
// Tracer/SimProfiler idiom), it receives every lock acquire/unlock, every
// guarded-access assertion, and every non-lock suspension through the
// src/sim/analysis_hooks.h table and enforces four rule families:
//
//   1. Ownership — unlocks must come from the owning logical task; double
//      unlocks are reported; `SimMutex::AssertHeld()` (the MAGESIM_GUARDED_BY
//      annotation) verifies guarded state is only touched under its lock.
//   2. Lock order (lockdep) — every acquisition extends a global digraph of
//      lock *classes* (locks sharing a name, e.g. all "fifo-part" partition
//      locks, form one class); a cycle is a potential deadlock even when none
//      manifests in this run, reported with each edge's first-acquisition
//      backtrail. Same-class nesting is not tracked (classic lockdep limit).
//   3. Held-across-await — holding a lock across a non-lock awaiter (RDMA
//      completion, evictor wakeup, channel) serializes
//      unrelated progress and is reported unless allowlisted. Delay{} under a
//      lock is the repo's intended critical-section cost model and is only
//      flagged when AnalysisOptions::flag_delay_awaits is set.
//   4. Protocol checks — page-fault ownership (the task that TryBeginFault'd
//      a vpn must be the one to Map/EndFault it), per-CPU cache core
//      affinity, and lock quiescence at end of run.
//
// Diagnostics are deterministic: lock classes and instances are labeled by
// registration order, never by pointer. Violations abort with a named
// diagnostic by default; capture mode (abort_on_violation = false) records
// them for tests and reporting. Zero cost when not installed (one pointer
// test per instrumentation point); `AnalysisExemptScope` suppresses analysis
// inside deliberate modeling shortcuts.
#ifndef MAGESIM_ANALYSIS_LOCK_ANALYZER_H_
#define MAGESIM_ANALYSIS_LOCK_ANALYZER_H_

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/analysis_hooks.h"
#include "src/sim/time.h"

namespace magesim {

enum class AnalysisViolationKind : uint8_t {
  kUnlockNotOwner,   // unlock by a task that does not own the lock
  kDoubleUnlock,     // unlock of a lock that is not held
  kGuardedAccess,    // guarded state touched without the declared lock
  kLockOrderCycle,   // acquisition-order digraph grew a cycle
  kHeldAcrossAwait,  // lock held across a non-lock awaiter outside allowlist
  kFaultProtocol,    // page-fault ownership protocol broken
  kCoreAffinity,     // per-CPU structure touched from the wrong core's task
  kLockQuiescence,   // lock still held when the simulation drained
  kNumKinds,
};

const char* AnalysisViolationKindName(AnalysisViolationKind k);

inline constexpr int kNumAnalysisViolationKinds =
    static_cast<int>(AnalysisViolationKind::kNumKinds);

struct AnalysisOptions {
  // Abort the process with a named diagnostic on the first violation (the CI
  // posture). When false, violations are recorded and counted instead — used
  // by the negative tests and by exploratory runs.
  bool abort_on_violation = true;
  // Also flag Delay{}/YieldNow suspensions under a lock. Off by default:
  // Delay under a lock is how the sim charges critical-section time.
  bool flag_delay_awaits = false;
  size_t max_recorded = 64;  // stored AnalysisViolation cap (counting continues)
};

struct AnalysisViolation {
  AnalysisViolationKind kind;
  SimTime t;
  TaskId task;
  std::string message;
};

class LockAnalyzer {
 public:
  explicit LockAnalyzer(AnalysisOptions opts = {});
  ~LockAnalyzer();
  LockAnalyzer(const LockAnalyzer&) = delete;
  LockAnalyzer& operator=(const LockAnalyzer&) = delete;

  // Registers this analyzer's hook table process-wide. At most one may be
  // installed at a time.
  void Install();
  void Uninstall();
  static LockAnalyzer* Get() { return current_; }
  // Like Get(), but null inside an AnalysisExemptScope — protocol checks in
  // instrumented code use this so deliberate modeling shortcuts stay silent.
  static LockAnalyzer* Active() {
    return AnalysisHooks() != nullptr ? current_ : nullptr;
  }

  // Labels the currently running task in diagnostics ("app-3", "evictor-0").
  // `core` >= 0 additionally binds the task to a core for CheckCoreAffinity.
  void NameCurrentTask(std::string name, int core = -1);

  // "task 5 (app-1)", "task 7", or "setup" for kNoTask.
  std::string TaskLabel(TaskId task) const;

  // Permits holding locks of class `lock_name` across awaits at `site` ("*"
  // = any site). Deliberate exceptions, documented at the registration point.
  void AllowHeldAcrossAwait(std::string lock_name, std::string site = "*");

  // Per-CPU structure guard: the current task, if bound to a core via
  // NameCurrentTask, must be running on `core`. Unbound tasks pass.
  void CheckCoreAffinity(int core, const char* what);

  // Page-fault ownership protocol: TryBeginFault marks the current task as
  // the fault owner; Map/EndFault must come from that task.
  void OnFaultBegin(uint64_t vpn);
  void CheckFaultOwner(uint64_t vpn, const char* what);
  void OnFaultEnd(uint64_t vpn);

  // Eviction protocol: a frame must be isolated from the accounting lists
  // before its mapping is torn down. `isolated` is the caller-evaluated frame
  // state test (keeps this library independent of the mem layer); setup code
  // outside any task passes.
  void CheckFrameIsolated(bool isolated, uint64_t vpn, const char* what);

  // One line per lock still held (and per task still holding locks); empty
  // when the lock state is quiescent. The invariant checker's
  // CheckLockQuiescence consumes this.
  std::vector<std::string> QuiescenceReport() const;

  const AnalysisOptions& options() const { return opts_; }
  const std::vector<AnalysisViolation>& violations() const { return violations_; }
  uint64_t total_violations() const { return total_violations_; }
  uint64_t count(AnalysisViolationKind k) const {
    return counts_[static_cast<size_t>(k)];
  }
  uint64_t locks_registered() const { return locks_.size(); }
  uint64_t lock_classes() const { return class_names_.size(); }
  uint64_t order_edges() const { return edge_count_; }

  // Human-readable summary: per-kind counts plus the recorded messages.
  std::string Report() const;

 private:
  struct LockState {
    uint32_t class_id = 0;
    uint32_t instance = 0;  // ordinal within the class, registration order
    bool locked = false;
    TaskId owner = kNoTask;
  };

  struct HeldEntry {
    uint32_t lock_idx;
    uint32_t class_id;
  };

  struct TaskInfo {
    std::string name;
    int core = -1;
  };

  // First-acquisition backtrail for a lock-order edge.
  struct EdgeInfo {
    uint32_t from;
    uint32_t to;
    TaskId task;
    SimTime t;
    std::string held_desc;  // locks held when the edge was first seen
  };

  static void OnAcquireTramp(void* ctx, const void* lock, const char* name,
                             TaskId task);
  static void OnUnlockTramp(void* ctx, const void* lock, const char* name,
                            TaskId task, bool was_locked);
  static void OnAwaitTramp(void* ctx, const void* obj, const char* site,
                           AwaitKind kind, TaskId task);
  static void OnAssertHeldTramp(void* ctx, const void* lock, const char* name,
                                TaskId task, const char* what);

  void OnAcquire(const void* lock, const char* name, TaskId task);
  void OnUnlock(const void* lock, const char* name, TaskId task, bool was_locked);
  void OnAwait(const char* site, AwaitKind kind, TaskId task);
  void OnAssertHeld(const void* lock, const char* name, TaskId task,
                    const char* what);

  uint32_t RegisterLock(const void* lock, const char* name);
  std::string LockLabel(uint32_t lock_idx) const;
  std::string HeldDesc(TaskId task) const;
  bool Allowed(const std::string& cls, const char* site) const;
  void AddEdge(uint32_t from_cls, uint32_t to_cls, TaskId task);
  // Depth-first search for a path to_cls -> ... -> from_cls in the order
  // graph; returns the class-id path (empty if none).
  std::vector<uint32_t> FindPath(uint32_t from_cls, uint32_t to_cls) const;
  void ReportViolation(AnalysisViolationKind kind, TaskId task, std::string msg);

  AnalysisOptions opts_;
  SimAnalysisHooks hooks_;
  bool installed_ = false;

  std::unordered_map<const void*, uint32_t> lock_index_;
  std::vector<LockState> locks_;  // registration order — deterministic labels
  std::unordered_map<std::string, uint32_t> class_ids_;
  std::vector<std::string> class_names_;
  std::vector<uint32_t> class_instances_;  // per-class registration counter

  std::unordered_map<TaskId, std::vector<HeldEntry>> held_;
  std::unordered_map<TaskId, TaskInfo> tasks_;
  std::unordered_map<uint64_t, TaskId> fault_owner_;

  std::vector<std::vector<uint32_t>> adj_;  // class id -> successor class ids
  std::map<std::pair<uint32_t, uint32_t>, EdgeInfo> edges_;
  uint64_t edge_count_ = 0;

  std::set<std::pair<std::string, std::string>> await_allowlist_;

  uint64_t total_violations_ = 0;
  std::array<uint64_t, kNumAnalysisViolationKinds> counts_{};
  std::vector<AnalysisViolation> violations_;

  static LockAnalyzer* current_;
};

}  // namespace magesim

#endif  // MAGESIM_ANALYSIS_LOCK_ANALYZER_H_
