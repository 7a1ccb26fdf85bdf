// Simulated synchronization primitives.
//
// All primitives use strict FIFO wait queues, which reproduces the queueing
// behavior of contended kernel locks (ticket spinlocks, qspinlocks, mutex wait
// lists). Every lock records acquisition counts and cumulative/max wait time so
// experiments can report contention directly.
//
// Locks additionally track their owning logical task (Engine TaskId) and
// report acquire/unlock/assert events through the analysis hooks
// (src/sim/analysis_hooks.h). With no analyzer installed each instrumentation
// point costs one pointer test; `AssertHeld()` is the annotation used by
// guarded shared state (see src/analysis/guarded.h).
#ifndef MAGESIM_SIM_SYNC_H_
#define MAGESIM_SIM_SYNC_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/analysis_hooks.h"
#include "src/sim/engine.h"
#include "src/sim/ring_queue.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace magesim {

class SimMutex;

// Observer invoked on every contended lock handoff with the time the new
// owner spent queued. At most one observer is installed at a time (the
// sim-time profiler uses this to keep per-lock named wait totals); the hook
// costs one pointer test when none is installed.
using LockWaitObserver = void (*)(void* ctx, const SimMutex& m, SimTime waited_ns);
void SetLockWaitObserver(LockWaitObserver fn, void* ctx);

namespace internal {
extern LockWaitObserver g_lock_wait_fn;
extern void* g_lock_wait_ctx;
}  // namespace internal

struct LockStats {
  uint64_t acquisitions = 0;
  uint64_t contended = 0;
  SimTime total_wait_ns = 0;
  SimTime max_wait_ns = 0;

  double mean_wait_ns() const {
    return acquisitions == 0 ? 0.0 : static_cast<double>(total_wait_ns) / acquisitions;
  }
};

// A FIFO mutex. `co_await m.Lock()` acquires; Unlock() hands the lock directly
// to the next waiter (lock handoff), scheduled at the current time.
class SimMutex {
 public:
  explicit SimMutex(std::string name = "") : name_(std::move(name)) {}
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  struct LockAwaiter {
    SimMutex& m;
    SimTime enqueue_time = 0;
    bool await_ready() {
      if (!m.locked_) {
        m.DoAcquire(Engine::CurrentTaskOrNone());
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      Engine& e = Engine::current();
      enqueue_time = e.now();
      m.waiters_.push_back(Waiter{h, enqueue_time, e.current_task()});
      ++m.stats_.contended;
    }
    void await_resume() const noexcept {}
  };

  LockAwaiter Lock() { return LockAwaiter{*this}; }

  void Unlock() {
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_unlock(hk->ctx, this, name_.c_str(), Engine::CurrentTaskOrNone(),
                    /*shared=*/false, /*was_locked=*/locked_);
      // Capture-mode analyzers record the double unlock above; keep the
      // primitive's state sane instead of corrupting it.
      if (!locked_) return;
    }
    assert(locked_);
    owner_ = kNoTask;
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    Waiter w = waiters_.front();
    waiters_.pop_front();
    SimTime waited = Engine::current().now() - w.enqueue_time;
    stats_.total_wait_ns += waited;
    if (waited > stats_.max_wait_ns) stats_.max_wait_ns = waited;
    ++stats_.acquisitions;
    owner_ = w.task;  // Lock ownership transfers directly to the waiter.
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_acquire(hk->ctx, this, name_.c_str(), w.task, /*shared=*/false);
    }
    if (internal::g_lock_wait_fn != nullptr) {
      internal::g_lock_wait_fn(internal::g_lock_wait_ctx, *this, waited);
    }
    Engine::current().ScheduleAfter(0, w.h, w.task);
  }

  bool TryLock() {
    if (locked_) return false;
    DoAcquire(Engine::CurrentTaskOrNone());
    return true;
  }

  // Asserts (via the installed analyzer) that the calling task owns this
  // lock. A no-op beyond one pointer test when no analyzer is installed;
  // setup/teardown code running outside any task always passes.
  void AssertHeld(const char* what = "") const {
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_assert_held(hk->ctx, this, name_.c_str(), Engine::CurrentTaskOrNone(), what);
    }
  }

  // RAII guard usable across co_await points (its destructor runs when the
  // coroutine frame unwinds).
  class Guard {
   public:
    explicit Guard(SimMutex* m) : m_(m) {}
    Guard(Guard&& o) noexcept : m_(o.m_) { o.m_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard() {
      if (m_) m_->Unlock();
    }

   private:
    SimMutex* m_;
  };

  struct ScopedAwaiter {
    LockAwaiter inner;
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    Guard await_resume() { return Guard(&inner.m); }
  };

  // `auto g = co_await m.Scoped();`
  ScopedAwaiter Scoped() { return ScopedAwaiter{LockAwaiter{*this}}; }

  bool locked() const { return locked_; }
  // The logical task holding the lock; kNoTask when free or when acquired
  // outside any task (setup code).
  TaskId owner() const { return owner_; }
  const LockStats& stats() const { return stats_; }
  void ResetStats() { stats_ = LockStats{}; }
  const std::string& name() const { return name_; }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    SimTime enqueue_time;
    TaskId task;
  };

  void DoAcquire(TaskId task) {
    locked_ = true;
    owner_ = task;
    ++stats_.acquisitions;
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_acquire(hk->ctx, this, name_.c_str(), task, /*shared=*/false);
    }
  }

  std::string name_;
  bool locked_ = false;
  TaskId owner_ = kNoTask;
  RingQueue<Waiter> waiters_;
  LockStats stats_;
};

// In a discrete-event model a spinlock and a FIFO mutex behave identically
// (waiters queue and acquire in order); the distinction we preserve is
// statistical: spin-wait time is CPU burned, which callers may account.
using SimSpinLock = SimMutex;

// A reader-writer lock with FIFO fairness: shared and exclusive waiters queue
// in arrival order, a release grants either the next writer or the next
// contiguous batch of readers, and arriving readers never overtake a queued
// writer. Not observed by the LockWaitObserver (which is typed on SimMutex);
// contention still lands in stats().
class SimSharedMutex {
 public:
  explicit SimSharedMutex(std::string name = "") : name_(std::move(name)) {}
  SimSharedMutex(const SimSharedMutex&) = delete;
  SimSharedMutex& operator=(const SimSharedMutex&) = delete;

  struct LockAwaiter {
    SimSharedMutex& m;
    SimTime enqueue_time = 0;
    bool await_ready() {
      if (m.CanGrantExclusive()) {
        m.GrantExclusive(Engine::CurrentTaskOrNone());
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      Engine& e = Engine::current();
      enqueue_time = e.now();
      m.waiters_.push_back(Waiter{h, enqueue_time, e.current_task(), /*shared=*/false});
      ++m.stats_.contended;
    }
    void await_resume() const noexcept {}
  };

  struct SharedAwaiter {
    SimSharedMutex& m;
    SimTime enqueue_time = 0;
    bool await_ready() {
      if (m.CanGrantShared()) {
        m.GrantShared(Engine::CurrentTaskOrNone());
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      Engine& e = Engine::current();
      enqueue_time = e.now();
      m.waiters_.push_back(Waiter{h, enqueue_time, e.current_task(), /*shared=*/true});
      ++m.stats_.contended;
    }
    void await_resume() const noexcept {}
  };

  LockAwaiter Lock() { return LockAwaiter{*this}; }
  SharedAwaiter LockShared() { return SharedAwaiter{*this}; }

  void Unlock() {
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_unlock(hk->ctx, this, name_.c_str(), Engine::CurrentTaskOrNone(),
                    /*shared=*/false, /*was_locked=*/exclusive_);
      if (!exclusive_) return;
    }
    assert(exclusive_);
    exclusive_ = false;
    owner_ = kNoTask;
    GrantFromQueue();
  }

  void UnlockShared() {
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_unlock(hk->ctx, this, name_.c_str(), Engine::CurrentTaskOrNone(),
                    /*shared=*/true, /*was_locked=*/shared_holders_ > 0);
      if (shared_holders_ == 0) return;
    }
    assert(shared_holders_ > 0);
    if (--shared_holders_ == 0) GrantFromQueue();
  }

  bool TryLock() {
    if (!CanGrantExclusive()) return false;
    GrantExclusive(Engine::CurrentTaskOrNone());
    return true;
  }

  void AssertHeld(const char* what = "") const {
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_assert_held(hk->ctx, this, name_.c_str(), Engine::CurrentTaskOrNone(), what);
    }
  }

  class Guard {
   public:
    explicit Guard(SimSharedMutex* m) : m_(m) {}
    Guard(Guard&& o) noexcept : m_(o.m_) { o.m_ = nullptr; }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;
    ~Guard() {
      if (m_) m_->Unlock();
    }

   private:
    SimSharedMutex* m_;
  };

  class SharedGuard {
   public:
    explicit SharedGuard(SimSharedMutex* m) : m_(m) {}
    SharedGuard(SharedGuard&& o) noexcept : m_(o.m_) { o.m_ = nullptr; }
    SharedGuard(const SharedGuard&) = delete;
    SharedGuard& operator=(const SharedGuard&) = delete;
    SharedGuard& operator=(SharedGuard&&) = delete;
    ~SharedGuard() {
      if (m_) m_->UnlockShared();
    }

   private:
    SimSharedMutex* m_;
  };

  struct ScopedAwaiter {
    LockAwaiter inner;
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    Guard await_resume() { return Guard(&inner.m); }
  };

  struct ScopedSharedAwaiter {
    SharedAwaiter inner;
    bool await_ready() { return inner.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { inner.await_suspend(h); }
    SharedGuard await_resume() { return SharedGuard(&inner.m); }
  };

  // `auto g = co_await m.Scoped();` / `auto g = co_await m.ScopedShared();`
  ScopedAwaiter Scoped() { return ScopedAwaiter{LockAwaiter{*this}}; }
  ScopedSharedAwaiter ScopedShared() { return ScopedSharedAwaiter{SharedAwaiter{*this}}; }

  bool locked_exclusive() const { return exclusive_; }
  int shared_holders() const { return shared_holders_; }
  TaskId owner() const { return owner_; }
  const LockStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    SimTime enqueue_time;
    TaskId task;
    bool shared;
  };

  // FIFO fairness: never barge past queued waiters.
  bool CanGrantExclusive() const {
    return !exclusive_ && shared_holders_ == 0 && waiters_.empty();
  }
  bool CanGrantShared() const { return !exclusive_ && waiters_.empty(); }

  void GrantExclusive(TaskId task) {
    exclusive_ = true;
    owner_ = task;
    ++stats_.acquisitions;
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_acquire(hk->ctx, this, name_.c_str(), task, /*shared=*/false);
    }
  }

  void GrantShared(TaskId task) {
    ++shared_holders_;
    ++stats_.acquisitions;
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_acquire(hk->ctx, this, name_.c_str(), task, /*shared=*/true);
    }
  }

  void AccountWait(const Waiter& w) {
    SimTime waited = Engine::current().now() - w.enqueue_time;
    stats_.total_wait_ns += waited;
    if (waited > stats_.max_wait_ns) stats_.max_wait_ns = waited;
  }

  void GrantFromQueue() {
    if (waiters_.empty()) return;
    Engine& e = Engine::current();
    if (!waiters_.front().shared) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      AccountWait(w);
      GrantExclusive(w.task);
      e.ScheduleAfter(0, w.h, w.task);
      return;
    }
    while (!waiters_.empty() && waiters_.front().shared) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      AccountWait(w);
      GrantShared(w.task);
      e.ScheduleAfter(0, w.h, w.task);
    }
  }

  std::string name_;
  bool exclusive_ = false;
  int shared_holders_ = 0;
  TaskId owner_ = kNoTask;
  RingQueue<Waiter> waiters_;
  LockStats stats_;
};

// Manual-reset event: Set() releases all current and future waiters until
// Reset() is called. The name feeds held-across-await diagnostics.
class SimEvent {
 public:
  explicit SimEvent(const char* name = "event") : name_(name) {}

  struct Awaiter {
    SimEvent& e;
    bool await_ready() const { return e.set_; }
    void await_suspend(std::coroutine_handle<> h) { e.waiters_push(h); }
    void await_resume() const noexcept {}
  };

  Awaiter Wait() { return Awaiter{*this}; }

  void Set() {
    set_ = true;
    ReleaseAll();
  }

  void Reset() { set_ = false; }
  bool is_set() const { return set_; }

  // Wakes current waiters without latching the event.
  void Pulse() { ReleaseAll(); }

  size_t num_waiters() const { return waiters_.size(); }
  const char* name() const { return name_; }

  // Direct enqueue for composite primitives (SimBarrier).
  void waiters_push(std::coroutine_handle<> h) {
    Engine& eng = Engine::current();
    if (const SimAnalysisHooks* hk = AnalysisHooks()) {
      hk->on_await(hk->ctx, this, name_, AwaitKind::kEvent, eng.current_task());
    }
    waiters_.push_back(Waiter{h, eng.current_task()});
  }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    TaskId task;
  };

  void ReleaseAll() {
    for (const Waiter& w : waiters_) {
      Engine::current().ScheduleAfter(0, w.h, w.task);
    }
    waiters_.clear();
  }

  const char* name_;
  bool set_ = false;
  std::vector<Waiter> waiters_;
};

// Latch that releases waiters when its count reaches zero.
class CountdownLatch {
 public:
  explicit CountdownLatch(int count, const char* name = "latch")
      : count_(count), event_(name) {
    if (count_ <= 0) event_.Set();
  }

  void CountDown() {
    assert(count_ > 0);
    if (--count_ == 0) event_.Set();
  }

  SimEvent::Awaiter Wait() { return event_.Wait(); }
  int count() const { return count_; }

 private:
  int count_;
  SimEvent event_;
};

// Counting semaphore with FIFO waiters.
class SimSemaphore {
 public:
  explicit SimSemaphore(int64_t initial, const char* name = "semaphore")
      : count_(initial), name_(name) {}

  struct Awaiter {
    SimSemaphore& s;
    bool await_ready() {
      if (s.count_ > 0) {
        --s.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      Engine& e = Engine::current();
      if (const SimAnalysisHooks* hk = AnalysisHooks()) {
        hk->on_await(hk->ctx, &s, s.name_, AwaitKind::kSemaphore, e.current_task());
      }
      s.waiters_.push_back(Waiter{h, e.current_task()});
    }
    void await_resume() const noexcept {}
  };

  Awaiter Acquire() { return Awaiter{*this}; }

  void Release(int64_t n = 1) {
    while (n > 0 && !waiters_.empty()) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      Engine::current().ScheduleAfter(0, w.h, w.task);
      --n;
    }
    count_ += n;
  }

  int64_t count() const { return count_; }
  const char* name() const { return name_; }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    TaskId task;
  };

  int64_t count_;
  const char* name_;
  RingQueue<Waiter> waiters_;
};

// Tracks a set of spawned tasks; `co_await wg.Wait()` resumes when all
// Done() calls arrive. Reusable after the count hits zero (Add again).
class WaitGroup {
 public:
  void Add(int n = 1) {
    count_ += n;
    if (count_ > 0) event_.Reset();
  }
  void Done() {
    assert(count_ > 0);
    if (--count_ == 0) event_.Set();
  }
  SimEvent::Awaiter Wait() { return event_.Wait(); }
  int count() const { return count_; }

 private:
  int count_ = 0;
  SimEvent event_{"waitgroup"};
};

// Reusable rendezvous barrier for `n` participants.
class SimBarrier {
 public:
  explicit SimBarrier(int n) : n_(n) {}

  struct Awaiter {
    SimBarrier& b;
    bool await_ready() {
      if (++b.arrived_ == b.n_) {
        b.arrived_ = 0;
        b.event_.Pulse();  // releases the n-1 waiting participants
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { b.event_.waiters_push(h); }
    void await_resume() const noexcept {}
  };

  Awaiter Arrive() { return Awaiter{*this}; }
  int waiting() const { return arrived_; }

 private:
  friend struct Awaiter;
  int n_;
  int arrived_ = 0;
  SimEvent event_{"barrier"};
};

// Bounded FIFO channel. Push suspends when full, Pop suspends when empty.
template <typename T>
class Channel {
 public:
  explicit Channel(size_t capacity, const char* name = "channel")
      : capacity_(capacity), name_(name) {}

  Task<> Push(T value) {
    while (items_.size() >= capacity_) {
      PushWaiterAwaiter a{this};
      co_await a;
    }
    items_.push_back(std::move(value));
    WakeOnePopper();
  }

  bool TryPush(T value) {
    if (items_.size() >= capacity_) return false;
    items_.push_back(std::move(value));
    WakeOnePopper();
    return true;
  }

  Task<T> Pop() {
    while (items_.empty()) {
      PopWaiterAwaiter a{this};
      co_await a;
    }
    T v = std::move(items_.front());
    items_.pop_front();
    WakeOnePusher();
    co_return v;
  }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

 private:
  struct Waiter {
    std::coroutine_handle<> h;
    TaskId task;
  };

  struct PushWaiterAwaiter {
    Channel* c;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      Engine& e = Engine::current();
      if (const SimAnalysisHooks* hk = AnalysisHooks()) {
        hk->on_await(hk->ctx, c, c->name_, AwaitKind::kChannel, e.current_task());
      }
      c->push_waiters_.push_back(Waiter{h, e.current_task()});
    }
    void await_resume() const noexcept {}
  };
  struct PopWaiterAwaiter {
    Channel* c;
    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      Engine& e = Engine::current();
      if (const SimAnalysisHooks* hk = AnalysisHooks()) {
        hk->on_await(hk->ctx, c, c->name_, AwaitKind::kChannel, e.current_task());
      }
      c->pop_waiters_.push_back(Waiter{h, e.current_task()});
    }
    void await_resume() const noexcept {}
  };

  void WakeOnePopper() {
    if (!pop_waiters_.empty()) {
      Waiter w = pop_waiters_.front();
      pop_waiters_.pop_front();
      Engine::current().ScheduleAfter(0, w.h, w.task);
    }
  }
  void WakeOnePusher() {
    if (!push_waiters_.empty()) {
      Waiter w = push_waiters_.front();
      push_waiters_.pop_front();
      Engine::current().ScheduleAfter(0, w.h, w.task);
    }
  }

  size_t capacity_;
  const char* name_;
  RingQueue<T> items_;
  RingQueue<Waiter> push_waiters_;
  RingQueue<Waiter> pop_waiters_;
};

}  // namespace magesim

#endif  // MAGESIM_SIM_SYNC_H_
