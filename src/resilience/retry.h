// Retry building blocks for the resilient far-memory data path: exponential
// backoff with deterministic jitter, and a circuit breaker guarding each RDMA
// channel. Both draw all randomness from a caller-owned Rng, so same-seed
// runs replay the exact same decisions.
#ifndef MAGESIM_RESILIENCE_RETRY_H_
#define MAGESIM_RESILIENCE_RETRY_H_

#include <coroutine>
#include <cstdint>

#include "src/sim/random.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace magesim {

struct RetryPolicy {
  // An op is declared timed out once it is overdue (past its expected
  // completion, or past post time for a lost completion) by this grace.
  SimTime op_grace_ns = 30 * kMicrosecond;
  // Additional attempts after the first; a page read therefore issues at
  // most 1 + max_retries ops before the terminal policy applies.
  int max_retries = 8;
  SimTime backoff_base_ns = 4 * kMicrosecond;
  double backoff_mult = 2.0;
  SimTime backoff_cap_ns = 512 * kMicrosecond;
  // Each delay is scaled by a uniform factor in [1, 1 + jitter), de-syncing
  // concurrent retriers; the cap applies before jitter.
  double jitter = 0.25;
};

// Yields base, base*mult, base*mult^2, ... capped, each jittered.
class BackoffSequence {
 public:
  explicit BackoffSequence(const RetryPolicy& p)
      : policy_(p), next_(static_cast<double>(p.backoff_base_ns)) {}

  SimTime Next(Rng& rng) {
    double d = next_;
    next_ = d * policy_.backoff_mult;
    double cap = static_cast<double>(policy_.backoff_cap_ns);
    if (next_ > cap) next_ = cap;
    if (policy_.jitter > 0.0) d *= 1.0 + policy_.jitter * rng.NextDouble();
    SimTime v = static_cast<SimTime>(d);
    return v < 1 ? 1 : v;
  }

  void Reset() { next_ = static_cast<double>(policy_.backoff_base_ns); }

 private:
  RetryPolicy policy_;
  double next_;
};

struct BreakerPolicy {
  int failure_threshold = 8;               // consecutive failures to trip
  SimTime open_duration_ns = 200 * kMicrosecond;  // cool-down before a probe
};

// Per-channel circuit breaker: Closed -> (threshold consecutive failures) ->
// Open -> (cool-down elapses) -> HalfOpen, where exactly one caller proceeds
// as the probe; its success closes the breaker, its failure re-opens it.
// State transitions are traced (kBreakerOpen/HalfOpen/Close).
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed, kOpen, kHalfOpen };

  // `channel_id` labels trace events: 0 = read channel, 1 = write channel.
  CircuitBreaker(const BreakerPolicy& policy, int channel_id)
      : policy_(policy), channel_id_(channel_id) {}

  // Waits until the caller may issue an op. Always admits eventually: while
  // open, callers park until the cool-down elapses, then one per cycle goes
  // through as the probe and the rest await its verdict. A closed breaker
  // admits in await_ready, with no coroutine frame.
  // Usage: `co_await breaker.Admit();`
  struct AdmitAwaiter {
    CircuitBreaker& br;
    Task<> slow;

    bool await_ready() const { return br.state_ == State::kClosed; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      slow = br.AdmitSlow();
      return slow.BeginAwait(h);
    }
    void await_resume() {
      if (slow.valid()) slow.RethrowIfException();
    }
  };
  AdmitAwaiter Admit() { return AdmitAwaiter{*this, {}}; }

  void OnSuccess();
  void OnFailure();

  State state() const { return state_; }
  bool degraded() const { return state_ != State::kClosed; }
  SimTime open_until() const { return open_until_; }
  int consecutive_failures() const { return consecutive_failures_; }
  uint64_t opens() const { return opens_; }
  SimTime time_degraded_ns(SimTime now) const {
    return degraded_accum_ + (degraded() ? now - degraded_since_ : 0);
  }

 private:
  // Admit past a breaker that is not closed.
  Task<> AdmitSlow();
  void Open(SimTime now);
  void Close(SimTime now);

  BreakerPolicy policy_;
  int channel_id_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  SimTime open_until_ = 0;
  bool probe_in_flight_ = false;
  SimEvent state_change_;  // pulsed (never latched) on every transition

  uint64_t opens_ = 0;
  SimTime degraded_since_ = 0;
  SimTime degraded_accum_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_RESILIENCE_RETRY_H_
