// Measurement utilities: counters, log-bucketed latency histograms with
// percentile queries, time-attribution breakdowns, and time-series recorders.
#ifndef MAGESIM_SIM_STATS_H_
#define MAGESIM_SIM_STATS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace magesim {

// HDR-style histogram: 64 power-of-two buckets, each split into 16 linear
// sub-buckets (~6% relative error). Records int64 values >= 0.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kNumSlots = 64 * kSubBuckets;

  // Dense index of the sub-bucket `value` records into, in [0, kNumSlots).
  // Slot order is value order, so conditioning aggregates on a latency slot
  // (span tail bands) composes with Percentile on the same histogram.
  static int SlotFor(int64_t value);
  // Smallest value that maps to `slot` (inverse of SlotFor, saturating).
  static int64_t SlotLowerBound(int slot);

  void Record(int64_t value);
  void RecordN(int64_t value, uint64_t count);

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }
  int64_t sum() const { return sum_; }

  // p in [0, 100]; locates the sub-bucket containing the p-th percentile
  // sample and linearly interpolates within it (samples assumed evenly
  // spread), clamped to the observed [min, max]. p<=0 yields min, p>=100
  // yields max.
  int64_t Percentile(double p) const;

  void Merge(const Histogram& other);
  void Reset();

  std::string Summary() const;  // "n=.. mean=.. p50=.. p99=.. p99.9=.. max=.." (µs)

 private:
  static int BucketFor(int64_t value, int* sub);
  static int64_t BucketUpperBound(int bucket, int sub);
  static int64_t BucketLowerBound(int bucket, int sub);

  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  std::array<std::array<uint64_t, kSubBuckets>, 64> buckets_{};
};

// Categories of the fault-latency breakdown (Figs. 6 and 16). Every stage of
// a demand fault maps to exactly one (the Stage table, src/metrics/stage.h),
// so a fault's categories partition its latency.
enum class FaultCategory : uint8_t {
  kEntry,       // trap entry, page-table walk, VMA resolution
  kDedup,       // waiting on an in-flight fault for the same page
  kTenant,      // tenant admission: batch-QoS throttle, hard-limit park
  kAlloc,       // getting a frame: allocator, free-page waits, sync-evict unmap/reclaim
  kRdma,        // RDMA: the page read, the rdma-stack section, sync-evict writeback
  kAccounting,  // page-accounting insert and sync-evict isolation
  kTlb,         // sync-evict shootdowns
  kOther,       // mm-lock section, swap-slot free, PTE install
  kNumCategories,
};

inline constexpr int kNumFaultCategories = static_cast<int>(FaultCategory::kNumCategories);

// Duration accumulators indexed by FaultCategory: Add is a plain array index.
class Breakdown {
 public:
  struct Entry {
    SimTime total_ns = 0;
    uint64_t count = 0;
    bool operator==(const Entry&) const = default;
  };

  void Add(FaultCategory c, SimTime ns) {
    Entry& e = by_category_[static_cast<size_t>(c)];
    e.total_ns += ns;
    ++e.count;
  }
  void Merge(const Breakdown& other);
  const Entry& at(FaultCategory c) const { return by_category_[static_cast<size_t>(c)]; }

  // Mean ns per `per_count` events (e.g. per fault).
  double MeanPer(FaultCategory c, uint64_t per_count) const;

  // View keyed by the categories' snake_case names ("entry", "rdma", ...),
  // materialized for reporting; categories never touched are omitted.
  std::map<std::string, Entry> entries() const;

 private:
  std::array<Entry, kNumFaultCategories> by_category_{};
};

// Fixed-width time-bucketed series (for throughput timelines, Fig. 11).
class TimeSeries {
 public:
  explicit TimeSeries(SimTime bucket_width = 100 * kMillisecond)
      : bucket_width_(bucket_width) {}

  void Add(SimTime t, double value);

  // Value accumulated in each bucket; bucket i covers
  // [i*width, (i+1)*width).
  const std::vector<double>& buckets() const { return buckets_; }
  SimTime bucket_width() const { return bucket_width_; }

  // Rate per second for bucket i.
  double RatePerSec(size_t i) const;

 private:
  SimTime bucket_width_;
  std::vector<double> buckets_;
};

}  // namespace magesim

#endif  // MAGESIM_SIM_STATS_H_
