// Analysis hook surface for the simulated-time concurrency analyzer.
//
// The sync primitives and the engine report lock acquisitions, unlocks,
// guarded-access assertions, and non-lock suspensions through one global hook
// table. Exactly one hook table may be installed at a time (the LockAnalyzer
// in src/analysis installs itself here); when none is installed every
// instrumentation point costs a single pointer test, the same idiom the
// Tracer and SimProfiler use. This header is deliberately free of sim/
// includes so both engine.h and sync.h can use it without cycles.
#ifndef MAGESIM_SIM_ANALYSIS_HOOKS_H_
#define MAGESIM_SIM_ANALYSIS_HOOKS_H_

#include <cstdint>

namespace magesim {

// Identity of a logical sim task. Assigned by Engine::Spawn; kNoTask means
// "outside any task" (setup/teardown code running before or after Run()).
using TaskId = uint64_t;
inline constexpr TaskId kNoTask = 0;

// What kind of awaiter a task suspended on while (possibly) holding locks.
// Lock-wait suspensions are not reported here: queueing on a SimMutex is the
// lock-order graph's job, not the held-across-await rule's.
enum class AwaitKind : int {
  kDelay = 0,   // Delay{} — modeled critical-section / device time
  kYield,       // YieldNow — cooperative yield at the same timestamp
  kEvent,       // SimEvent (RDMA completions, evictor wakeups, latches, ...)
  kSemaphore,   // SimSemaphore::Acquire
  kChannel,     // Channel<T> push/pop waits
};

struct SimAnalysisHooks {
  void* ctx = nullptr;
  // A lock was acquired (uncontended fast path, TryLock, or a FIFO handoff —
  // in the handoff case `task` is the new owner, not the unlocking task).
  void (*on_acquire)(void* ctx, const void* lock, const char* name, TaskId task,
                     bool shared) = nullptr;
  // An unlock was attempted by `task`. Fired before the primitive mutates its
  // state; `was_locked` is the primitive's own view, so double-unlocks are
  // observable even in capture (non-aborting) mode.
  void (*on_unlock)(void* ctx, const void* lock, const char* name, TaskId task,
                    bool shared, bool was_locked) = nullptr;
  // `task` suspended on a non-lock awaiter (`site` names it, e.g. the
  // SimEvent's name or "delay").
  void (*on_await)(void* ctx, const void* obj, const char* site, AwaitKind kind,
                   TaskId task) = nullptr;
  // A guarded access asserted that `task` holds `lock` (`what` describes the
  // guarded state, e.g. "buddy free lists").
  void (*on_assert_held)(void* ctx, const void* lock, const char* name,
                         TaskId task, const char* what) = nullptr;
};

namespace analysis_internal {
extern const SimAnalysisHooks* g_hooks;
extern int g_exempt_depth;
}  // namespace analysis_internal

// Null unless an analyzer is installed and the caller is outside every
// AnalysisExemptScope. Instrumentation points test this one pointer.
inline const SimAnalysisHooks* AnalysisHooks() {
  const SimAnalysisHooks* hooks = analysis_internal::g_hooks;
  if (hooks != nullptr && analysis_internal::g_exempt_depth > 0) return nullptr;
  return hooks;
}

// Installs (or, with nullptr, removes) the global hook table.
void SetAnalysisHooks(const SimAnalysisHooks* hooks);

// Suppresses analysis inside a scope (the lockdep_off() analogue). Used by
// deliberate modeling shortcuts that bypass the locking protocol — e.g. the
// ideal-kernel reclaim paths and InstantReclaim touch the buddy allocator and
// accounting lists directly, at zero simulated cost, as an explicit idealized
// model rather than a bug.
class AnalysisExemptScope {
 public:
  AnalysisExemptScope() { ++analysis_internal::g_exempt_depth; }
  ~AnalysisExemptScope() { --analysis_internal::g_exempt_depth; }
  AnalysisExemptScope(const AnalysisExemptScope&) = delete;
  AnalysisExemptScope& operator=(const AnalysisExemptScope&) = delete;
};

}  // namespace magesim

#endif  // MAGESIM_SIM_ANALYSIS_HOOKS_H_
