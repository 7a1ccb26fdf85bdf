#include "src/sim/engine.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace magesim {

Engine* Engine::current_ = nullptr;

Engine::Engine() {
  if (current_ != nullptr) {
    std::fprintf(stderr, "magesim: only one Engine may exist at a time\n");
    std::abort();
  }
  current_ = this;
  // Steady-state push/pop must not allocate; 4K events outgrows every
  // workload's standing event population by a wide margin.
  queue_.reserve(4096);
}

Engine::~Engine() { current_ = nullptr; }

uint64_t Engine::Run() {
  uint64_t processed = 0;
  const EventBefore before{};
  for (;;) {
    Event ev;
    // ready_ is (t, seq)-sorted by construction and its front always carries
    // t == now_ while non-empty, so comparing the two fronts yields the
    // global minimum — identical extraction order to a single heap.
    if (!ready_.empty()) {
      if (!queue_.empty() && before(queue_.top(), ready_.front())) {
        ev = queue_.top();
        queue_.pop();
      } else {
        ev = ready_.front();
        ready_.pop_front();
      }
    } else if (!queue_.empty()) {
      ev = queue_.top();
      queue_.pop();
    } else {
      break;
    }
    assert(ev.t >= now_);
    now_ = ev.t;
    current_task_ = ev.task;
    ++processed;
    ev.h.resume();
  }
  current_task_ = kNoTask;
  events_processed_ += processed;
  return processed;
}

}  // namespace magesim
