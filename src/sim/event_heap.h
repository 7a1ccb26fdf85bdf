// Flat 4-ary min-heap for the engine's event queue.
//
// Replaces std::priority_queue<Event, vector, greater<>>: the 4-ary layout
// halves tree depth, keeps each sift step inside one or two cache lines of
// the flat array, and lets us pre-reserve capacity so steady-state push/pop
// never allocates. Ordering is identical to the binary heap's *extraction
// order*: keys (t, seq) are unique per event, so any correct heap pops the
// same total order and determinism is unaffected by the layout change.
//
// Profile note (fig05 sweep, 2026-08): after the slab allocator landed, the
// event heap was the next-largest engine cost; switching binary -> 4-ary
// recovered most of it. Two replacements measured since were dead ends:
// 82% of magebench scan_evict's events pass through this heap, and at 91%
// of its pops it holds only 16-31 entries, so 16-byte (t, seq|slot) keys
// with the handles in a side array ran +4% wall (4 of 5 pairs slower) and a
// radix heap +14% (4 of 4 slower). What is left is fewer heap entries, not
// a new structure (docs/INTERNALS.md §12, ROADMAP "Exact event queue").
#ifndef MAGESIM_SIM_EVENT_HEAP_H_
#define MAGESIM_SIM_EVENT_HEAP_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/sim/hot_path.h"

namespace magesim {

// Min-heap: Less(a, b) means a is extracted before b. Less must be a strict
// total order over the stored values for deterministic extraction.
template <typename T, typename Less>
class DAryHeap {
 public:
  static constexpr size_t kArity = 4;

  void reserve(size_t n) { v_.reserve(n); }
  bool empty() const { return v_.empty(); }
  size_t size() const { return v_.size(); }
  const T& top() const {
    assert(!v_.empty());
    return v_.front();
  }

  MAGESIM_HOT_PATH void push(T x) {
    size_t i = v_.size();
    // magesim-lint: allow(hotpath-alloc): reserve()d to the event-count
    // high-water mark at engine start; steady-state pushes never grow.
    v_.push_back(std::move(x));
    // Sift up.
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!less_(v_[i], v_[parent])) break;
      std::swap(v_[i], v_[parent]);
      i = parent;
    }
  }

  MAGESIM_HOT_PATH void pop() {
    assert(!v_.empty());
    v_.front() = std::move(v_.back());
    v_.pop_back();
    if (v_.empty()) return;
    // Sift down: move the smallest child up until the hole settles.
    size_t i = 0;
    const size_t n = v_.size();
    for (;;) {
      size_t first = i * kArity + 1;
      if (first >= n) break;
      size_t last = first + kArity < n ? first + kArity : n;
      size_t best = first;
      for (size_t c = first + 1; c < last; ++c) {
        if (less_(v_[c], v_[best])) best = c;
      }
      if (!less_(v_[best], v_[i])) break;
      std::swap(v_[i], v_[best]);
      i = best;
    }
  }

 private:
  std::vector<T> v_;
  Less less_;
};

}  // namespace magesim

#endif  // MAGESIM_SIM_EVENT_HEAP_H_
