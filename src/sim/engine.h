// The discrete-event simulation engine.
//
// A single Engine instance drives one simulated machine. All simulated
// activities are Task<> coroutines; they advance simulated time by suspending
// on awaitables (Delay, SimMutex::Lock, ...) that re-schedule them through the
// engine's time-ordered event queue. The engine is strictly single-threaded
// and deterministic: events with equal timestamps run in scheduling order.
//
// Every top-level coroutine spawned through Spawn() or SpawnAt() gets a
// logical TaskId.
// Scheduling a continuation inherits the scheduler's current task by default;
// primitives that wake *other* tasks (lock handoff, event release) pass the
// woken task's id explicitly so the analyzer can attribute every resumption
// to the logical task it belongs to. Child coroutines awaited via symmetric
// transfer run within the parent's event, and therefore its task id.
#ifndef MAGESIM_SIM_ENGINE_H_
#define MAGESIM_SIM_ENGINE_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "src/sim/analysis_hooks.h"
#include "src/sim/event_heap.h"
#include "src/sim/ring_queue.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace magesim {

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // The engine currently driving this thread's simulation. Exactly one Engine
  // may exist at a time; sync primitives use this to avoid threading an engine
  // reference through every call site. Inline: this is called on every
  // suspension point, so it must compile to a single load.
  static Engine& current() {
    assert(current_ != nullptr && "no Engine is active");
    return *current_;
  }

  SimTime now() const { return now_; }

  // Schedules `h` at time `t`, attributed to the currently running task (or
  // to `task` in the explicit overload — used when waking another task).
  // Scheduling into the past clamps to now. Immediate events (t <= now) skip
  // the heap entirely — see the ready_ comment below.
  void ScheduleAt(SimTime t, std::coroutine_handle<> h) { ScheduleAt(t, h, current_task_); }
  void ScheduleAt(SimTime t, std::coroutine_handle<> h, TaskId task) {
    assert(h);
    if (t <= now_) {
      ready_.push_back(Event{now_, seq_++, h, task});
    } else {
      queue_.push(Event{t, seq_++, h, task});
    }
  }
  void ScheduleAfter(SimTime dt, std::coroutine_handle<> h) {
    ScheduleAt(now_ + dt, h, current_task_);
  }
  void ScheduleAfter(SimTime dt, std::coroutine_handle<> h, TaskId task) {
    ScheduleAt(now_ + dt, h, task);
  }

  // For a Delay of `d` > 0 ns: when its wake-up would be the very next
  // extraction — nothing ready at now() and the heap's earliest event
  // strictly later than now()+d (an event at exactly now()+d is older, so it
  // runs first) — advances now() to the wake-up and returns true, and the
  // task continues in place. The event it skips is one nothing else could
  // have run before (docs/INTERNALS.md §4).
  bool TryAdvance(SimTime d) {
    const SimTime t = now_ + d;
    if (ready_.empty() && (queue_.empty() || t < queue_.top().t)) {
      now_ = t;
      return true;
    }
    return false;
  }

  // Detaches `task` and schedules its first step at `t` (clamped to now)
  // under a fresh logical task id, which is returned. A task whose first
  // action would be a Delay to a time known at the spawn starts there instead
  // (docs/INTERNALS.md §4, "Starting a task at its first wake-up").
  TaskId SpawnAt(SimTime t, Task<> task) {
    const TaskId id = ++last_task_id_;
    ScheduleAt(t, task.Detach(), id);
    return id;
  }
  // SpawnAt(now()).
  TaskId Spawn(Task<> task) { return SpawnAt(now_, std::move(task)); }

  // The logical task whose event is currently being processed; kNoTask
  // outside Run() (setup and teardown code).
  TaskId current_task() const { return current_task_; }

  // As current_task(), but safe when no Engine exists.
  static TaskId CurrentTaskOrNone() {
    return current_ != nullptr ? current_->current_task_ : kNoTask;
  }

  // As now(), but safe when no Engine exists (diagnostics paths).
  static SimTime NowOrZero() { return current_ != nullptr ? current_->now_ : 0; }

  // Runs events until the queue is empty. Returns the number of events
  // processed. Long-running tasks should poll shutdown_requested() so that a
  // RequestShutdown() lets the queue drain naturally.
  uint64_t Run();

  // Asks cooperative loops (application threads, evictors, load generators)
  // to wind down. Does not cancel anything by itself.
  void RequestShutdown() { shutdown_ = true; }
  bool shutdown_requested() const { return shutdown_; }

  uint64_t events_processed() const { return events_processed_; }

 private:
  struct Event {
    SimTime t;
    uint64_t seq;
    std::coroutine_handle<> h;
    TaskId task;
  };
  // (t, seq) is unique per event, so extraction order — and therefore the
  // simulation — is deterministic regardless of heap layout.
  struct EventBefore {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
  };

  // Events land in one of two structures:
  //  * ready_: events scheduled at the current time (lock handoffs, wakeups,
  //    yields, spawns — the majority in fault-heavy runs). Each entry's t is
  //    the now_ at push time and seq is globally increasing, so the ring is
  //    (t, seq)-sorted by construction and push/pop are O(1).
  //  * queue_: future events (delays, timers), a 4-ary min-heap.
  // The dispatch loop pops whichever front is (t, seq)-smaller, which is the
  // global minimum — extraction order is bit-identical to a single heap.
  RingQueue<Event> ready_;
  DAryHeap<Event, EventBefore> queue_;
  SimTime now_ = 0;
  uint64_t seq_ = 0;
  uint64_t events_processed_ = 0;
  TaskId current_task_ = kNoTask;
  TaskId last_task_id_ = kNoTask;
  bool shutdown_ = false;

  static Engine* current_;
};

// Awaitable: suspends the current task for `d` nanoseconds of simulated time.
// A non-positive delay never suspends; a delay whose wake-up would run next
// anyway continues in place (Engine::TryAdvance). The analysis hooks see
// every positive delay. The decision sits in await_ready because a
// bool-returning await_suspend made perf_engine_events about a fifth slower
// per rep under GCC.
struct Delay {
  SimTime d;
  bool await_ready() const {
    if (d <= 0) return true;
    Engine& e = Engine::current();
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_await(hk->ctx, nullptr, "delay", AwaitKind::kDelay, e.current_task());
    }
    return e.TryAdvance(d);
  }
  void await_suspend(std::coroutine_handle<> h) const { Engine::current().ScheduleAfter(d, h); }
  void await_resume() const noexcept {}
};

// Awaitable: re-enqueues the current task at the current time, letting other
// same-timestamp events run first (a cooperative yield).
struct YieldNow {
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    Engine& e = Engine::current();
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_await(hk->ctx, nullptr, "yield", AwaitKind::kYield, e.current_task());
    }
    e.ScheduleAfter(0, h);
  }
  void await_resume() const noexcept {}
};

}  // namespace magesim

#endif  // MAGESIM_SIM_ENGINE_H_
