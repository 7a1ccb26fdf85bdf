// magebench_reference: the fixed yardsticks the driver times next to every
// untraced repetition, in a process of their own.
//
// The host's speed drifts by tens of percent over seconds and minutes: its
// vCPUs share caches, memory bandwidth and cores with other tenants. So a
// host time measured in one run compares badly with one measured in another.
// The benchmark reports its host times scaled by how fast fixed work ran in
// the same run (magebench/aggregate.py): a slow phase of the host stretches
// the yardstick and the simulator alike and cancels, while a change of the
// simulator's own speed moves only the simulator.
//
// The yardsticks run in this separate program, built from this file alone,
// so that nothing in src/ (not even a replaced operator new) can change their
// speed, and so that their memory does not count towards the driver's
// peak_rss_mb. Two kinds, each matched to what the timed phase is made of:
//
//   m  memory: a timed-event heap whose events each load and store
//      pseudo-random words of a 64 MiB table. Like the simulator's Run(), it
//      is bound by cache and memory latency, so it slows down as much under
//      contention for the shared L3 and DRAM.
//   a  allocation: the same event heap, each event freeing and allocating a
//      small block, as constructing a workload and a machine does.
//
// Protocol, one request per line on stdin: "<m|a> <cpu>". The process pins
// itself to <cpu> (the CPU the driver is running on; -1 leaves it) and
// answers with the host seconds the work took, on one line of stdout. It
// exits at end of input. Every request does the same work from the same
// starting state.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

struct Event {
  uint64_t at;
  uint32_t id;
};

struct Later {
  bool operator()(const Event& a, const Event& b) const { return a.at > b.at; }
};

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr size_t kTableWords = size_t{1} << 23;  // 64 MiB
constexpr uint32_t kLiveEvents = 16384;
constexpr size_t kLiveBlocks = 256;
constexpr int kMemoryEvents = 40000;
constexpr int kAllocEvents = 80000;

volatile uint64_t g_sink;

class Yardstick {
 public:
  Yardstick() : table_(kTableWords), blocks_(kLiveBlocks, nullptr) {
    heap_.reserve(kLiveEvents);
  }

  double Seconds(char kind) {
    // The same starting state for every request.
    if (kind == 'm') {
      for (size_t i = 0; i < kTableWords; ++i) table_[i] = i * 0x9e3779b97f4a7c15ULL;
    }
    heap_.clear();
    for (uint32_t i = 0; i < kLiveEvents; ++i) heap_.push_back(Event{Mix(i + 1) >> 44, i});
    std::make_heap(heap_.begin(), heap_.end(), Later());

    double t0 = Now();
    uint64_t x = 1, sink = 0;
    const int events = kind == 'm' ? kMemoryEvents : kAllocEvents;
    for (int n = 0; n < events; ++n) {
      std::pop_heap(heap_.begin(), heap_.end(), Later());
      Event e = heap_.back();
      heap_.pop_back();
      x = Mix(x + e.id);
      if (kind == 'm') {
        uint64_t& slot = table_[x & (kTableWords - 1)];
        slot += e.at;
        sink += (slot & 1) ? table_[(slot >> 9) & (kTableWords - 1)] : slot >> 7;
      } else {
        uint64_t*& block = blocks_[x & (kLiveBlocks - 1)];
        delete[] block;
        block = new uint64_t[2 + (x >> 60)]{x};
        sink += *block;
      }
      heap_.push_back(Event{e.at + 1 + (x >> 52), e.id});
      std::push_heap(heap_.begin(), heap_.end(), Later());
    }
    double secs = Now() - t0;
    for (uint64_t*& block : blocks_) {
      delete[] block;
      block = nullptr;
    }
    g_sink = g_sink + sink;
    return secs;
  }

 private:
  std::vector<uint64_t> table_;
  std::vector<uint64_t*> blocks_;
  std::vector<Event> heap_;
};

}  // namespace

int main() {
  Yardstick yardstick;
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    char kind = line[0];
    if (kind != 'm' && kind != 'a') {
      std::fprintf(stderr, "magebench_reference: bad request '%s'\n", line);
      return 2;
    }
    int cpu = std::atoi(line + 1);
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    std::printf("%.9f\n", yardstick.Seconds(kind));
    std::fflush(stdout);
  }
  return 0;
}
