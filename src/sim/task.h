// Task<T>: the coroutine type used for all simulated activities.
//
// Tasks are lazy: creating one does not run any code. They run either by being
// awaited from another task (`co_await std::move(task)`), or by being handed to
// Engine::Spawn(), which detaches them and schedules their first step at the
// current simulated time.
//
// Ownership rules:
//  * An un-spawned Task owns its coroutine frame and destroys it in ~Task.
//  * A detached (spawned) task's frame destroys itself at final_suspend.
//  * An awaited task resumes its awaiter via symmetric transfer at
//    final_suspend; the awaiting frame's temporary Task then destroys it.
#ifndef MAGESIM_SIM_TASK_H_
#define MAGESIM_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

#include "src/sim/hot_path.h"
#include "src/sim/slab_alloc.h"

namespace magesim {

template <typename T = void>
class Task;

namespace detail {

class TaskPromiseBase {
 public:
  // Coroutine frames are the simulator's hottest allocation (roughly one per
  // simulated activity step); route them through the slab allocator. Frame
  // allocation looks these up in the promise_type's scope, which includes
  // this base in every Task<T>::promise_type.
  MAGESIM_HOT_PATH static void* operator new(std::size_t n) { return SlabAllocator::Allocate(n); }
  MAGESIM_HOT_PATH static void operator delete(void* p, std::size_t) { SlabAllocator::Deallocate(p); }
  MAGESIM_HOT_PATH static void operator delete(void* p) { SlabAllocator::Deallocate(p); }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      TaskPromiseBase& p = h.promise();
      if (p.detached_) {
        if (p.exception_) {
          std::fprintf(stderr, "magesim: unhandled exception escaped a detached Task\n");
          std::abort();
        }
        h.destroy();
        return std::noop_coroutine();
      }
      if (p.continuation_) {
        return p.continuation_;
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception_ = std::current_exception(); }

  void set_continuation(std::coroutine_handle<> c) noexcept { continuation_ = c; }
  void Detach() noexcept { detached_ = true; }
  void RethrowIfException() {
    if (exception_) {
      std::rethrow_exception(exception_);
    }
  }

 private:
  std::coroutine_handle<> continuation_ = nullptr;
  bool detached_ = false;
  std::exception_ptr exception_ = nullptr;
};

// The one difference between Task<T> and Task<void>: a value-returning
// promise stores its co_return value for the awaiter to take.
template <typename T>
class TaskPromise : public TaskPromiseBase {
 public:
  template <typename U>
  void return_value(U&& v) {
    value_ = std::forward<U>(v);
  }
  T TakeValue() { return std::move(value_); }

 private:
  T value_{};
};

template <>
class TaskPromise<void> : public TaskPromiseBase {
 public:
  void return_void() noexcept {}
  void TakeValue() noexcept {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  class promise_type : public detail::TaskPromise<T> {
   public:
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      DestroyFrame();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { DestroyFrame(); }

  bool valid() const { return handle_ != nullptr; }

  // Releases ownership (used by Engine::Spawn); the frame becomes
  // self-destroying at completion.
  std::coroutine_handle<> Detach() {
    assert(handle_);
    handle_.promise().Detach();
    auto h = handle_;
    handle_ = nullptr;
    return h;
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        h.promise().set_continuation(cont);
        return h;  // Symmetric transfer: start the child task now.
      }
      T await_resume() {
        h.promise().RethrowIfException();
        return h.promise().TakeValue();
      }
    };
    return Awaiter{handle_};
  }

  // For hand-written awaiters that embed a Task: arms `cont` as the
  // continuation and returns the handle to resume (symmetric transfer).
  // Ownership stays with this Task.
  std::coroutine_handle<> BeginAwait(std::coroutine_handle<> cont) noexcept {
    assert(handle_);
    handle_.promise().set_continuation(cont);
    return handle_;
  }

  void RethrowIfException() {
    if (handle_) handle_.promise().RethrowIfException();
  }

 private:
  void DestroyFrame() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

}  // namespace magesim

#endif  // MAGESIM_SIM_TASK_H_
