#include "src/resilience/retry.h"

#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace magesim {

Task<> CircuitBreaker::AdmitSlow() {
  for (;;) {
    if (state_ == State::kClosed) co_return;
    Engine& eng = Engine::current();
    SimTime now = eng.now();
    if (state_ == State::kOpen) {
      if (now < open_until_) {
        co_await Delay{open_until_ - now};
        continue;  // re-check: the breaker may have re-opened meanwhile
      }
      state_ = State::kHalfOpen;
      probe_in_flight_ = false;
      TraceEmit(TraceEventType::kBreakerHalfOpen, channel_id_);
    }
    // Half-open: first caller through becomes the probe, the rest wait for
    // its verdict (Close pulses on success, Open pulses on failure).
    if (!probe_in_flight_) {
      probe_in_flight_ = true;
      co_return;
    }
    co_await state_change_.Wait();
  }
}

void CircuitBreaker::OnSuccess() {
  SimTime now = Engine::current().now();
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      Close(now);
      break;
    case State::kOpen:
      // Late completion from before the trip; the probe decides.
      break;
  }
}

void CircuitBreaker::OnFailure() {
  SimTime now = Engine::current().now();
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= policy_.failure_threshold) Open(now);
      break;
    case State::kHalfOpen:
      Open(now);
      break;
    case State::kOpen:
      break;
  }
}

void CircuitBreaker::Open(SimTime now) {
  if (state_ == State::kClosed) degraded_since_ = now;
  state_ = State::kOpen;
  ++opens_;
  open_until_ = now + policy_.open_duration_ns;
  probe_in_flight_ = false;
  TraceEmit(TraceEventType::kBreakerOpen, channel_id_, kTraceNoPage, kTraceNoFrame,
            static_cast<uint64_t>(consecutive_failures_));
  consecutive_failures_ = 0;
  state_change_.Pulse();
}

void CircuitBreaker::Close(SimTime now) {
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  SimTime degraded = now - degraded_since_;
  degraded_accum_ += degraded;
  TraceEmit(TraceEventType::kBreakerClose, channel_id_, kTraceNoPage, kTraceNoFrame,
            static_cast<uint64_t>(degraded));
  state_change_.Pulse();
}

}  // namespace magesim
