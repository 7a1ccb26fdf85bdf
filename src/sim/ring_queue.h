// Flat ring-buffer FIFO replacing std::deque in the simulation hot path.
//
// std::deque allocates a map block plus ~512-byte node chunks per queue; the
// sync primitives (mutex/semaphore waiter queues, channels) create
// thousands of them and push/pop on every contended handoff. RingQueue keeps
// elements in one contiguous power-of-two buffer that grows by doubling and
// is reused for the queue's whole lifetime: steady-state push/pop never
// allocates. FIFO semantics (and therefore wakeup order and determinism) are
// identical to the deque it replaces.
#ifndef MAGESIM_SIM_RING_QUEUE_H_
#define MAGESIM_SIM_RING_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/sim/hot_path.h"

namespace magesim {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return count_ == 0; }
  size_t size() const { return count_; }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }

  MAGESIM_HOT_PATH void push_back(T x) {
    if (count_ == buf_.size()) Grow();
    buf_[(head_ + count_) & (buf_.size() - 1)] = std::move(x);
    ++count_;
  }

  MAGESIM_HOT_PATH void pop_front() {
    assert(count_ > 0);
    buf_[head_] = T{};  // release resources held by the slot
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
  }

  // Minimal forward iteration in FIFO order (used by broadcast wakeups).
  class const_iterator {
   public:
    const_iterator(const RingQueue* q, size_t i) : q_(q), i_(i) {}
    const T& operator*() const { return q_->buf_[(q_->head_ + i_) & (q_->buf_.size() - 1)]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const RingQueue* q_;
    size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, count_); }

 private:
  void Grow() {
    size_t cap = buf_.empty() ? 8 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (size_t i = 0; i < count_; ++i) {
      next[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t count_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_SIM_RING_QUEUE_H_
