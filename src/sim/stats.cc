#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <limits>

#include "src/sim/prof_counters.h"

namespace magesim {

int Histogram::BucketFor(int64_t value, int* sub) {
  if (value < 0) value = 0;
  uint64_t v = static_cast<uint64_t>(value);
  if (v < kSubBuckets) {
    *sub = static_cast<int>(v);
    return 0;
  }
  int bucket = 63 - std::countl_zero(v);  // floor(log2(v)), >= 4
  int shift = bucket - 4;                 // map remaining bits into 16 sub-buckets
  *sub = static_cast<int>((v >> shift) & (kSubBuckets - 1));
  return bucket - 3;  // bucket 1 starts at value 16
}

int64_t Histogram::BucketUpperBound(int bucket, int sub) {
  if (bucket == 0) return sub;
  int log2 = bucket + 3;
  // Buckets whose base is >= 2^63 (top of the table, unreachable by Record)
  // would shift out of uint64_t range; saturate instead.
  if (log2 >= 63) return std::numeric_limits<int64_t>::max();
  int shift = log2 - 4;
  uint64_t base = 1ULL << log2;
  // The top bucket's upper bound overflows int64_t (base 2^63); saturate so
  // Percentile never returns a negative value for INT64_MAX-range samples.
  uint64_t bound = base + (static_cast<uint64_t>(sub + 1) << shift) - 1;
  if (bound > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>(bound);
}

int Histogram::SlotFor(int64_t value) {
  int sub = 0;
  int bucket = BucketFor(value, &sub);
  return bucket * kSubBuckets + sub;
}

int64_t Histogram::SlotLowerBound(int slot) {
  if (slot < 0) slot = 0;
  if (slot >= kNumSlots) slot = kNumSlots - 1;
  return BucketLowerBound(slot / kSubBuckets, slot % kSubBuckets);
}

void Histogram::Record(int64_t value) { RecordN(value, 1); }

void Histogram::RecordN(int64_t value, uint64_t n) {
  MAGESIM_PROF_SCOPE(hist_record);
  if (n == 0) return;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  count_ += n;
  // Accumulate in uint64_t: INT64_MAX-range samples would otherwise be
  // signed overflow (UB). Wraparound keeps bit-identical sums for the
  // non-overflowing case.
  sum_ = static_cast<int64_t>(static_cast<uint64_t>(sum_) +
                              static_cast<uint64_t>(value) * n);
  int sub = 0;
  int bucket = BucketFor(value, &sub);
  buckets_[bucket][sub] += n;
}

int64_t Histogram::BucketLowerBound(int bucket, int sub) {
  if (bucket == 0) return sub;
  int log2 = bucket + 3;
  // See BucketUpperBound: the top buckets saturate rather than overflow.
  if (log2 >= 63) return std::numeric_limits<int64_t>::max();
  int shift = log2 - 4;
  uint64_t lower = (1ULL << log2) + (static_cast<uint64_t>(sub) << shift);
  if (lower > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>(lower);
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max_;
  uint64_t target = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_));
  if (target >= count_) target = count_ - 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    for (int s = 0; s < kSubBuckets; ++s) {
      uint64_t k = buckets_[b][s];
      if (k == 0) continue;
      if (seen + k > target) {
        // Interpolate within the sub-bucket: its k samples are assumed evenly
        // spread over [lower, upper]. The result is clamped to the observed
        // range, so a singleton sub-bucket reports the exact sample when it
        // is also the min or max.
        int64_t lower = BucketLowerBound(static_cast<int>(b), s);
        int64_t upper = BucketUpperBound(static_cast<int>(b), s);
        double width = static_cast<double>(upper - lower) + 1.0;
        double frac = (static_cast<double>(target - seen) + 0.5) / static_cast<double>(k);
        int64_t v = lower + static_cast<int64_t>(width * frac);
        return std::clamp(v, min(), max_);
      }
      seen += k;
    }
  }
  return max_;
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    for (int s = 0; s < kSubBuckets; ++s) {
      buckets_[b][s] += other.buckets_[b][s];
    }
  }
}

void Histogram::Reset() { *this = Histogram(); }

std::string Histogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.2fus p50=%.2fus p99=%.2fus p99.9=%.2fus max=%.2fus",
                static_cast<unsigned long long>(count_), mean() / 1000.0,
                Percentile(50) / 1000.0, Percentile(99) / 1000.0,
                Percentile(99.9) / 1000.0, static_cast<double>(max_) / 1000.0);
  return buf;
}

void Breakdown::Merge(const Breakdown& other) {
  for (size_t i = 0; i < by_category_.size(); ++i) {
    by_category_[i].total_ns += other.by_category_[i].total_ns;
    by_category_[i].count += other.by_category_[i].count;
  }
}

double Breakdown::MeanPer(FaultCategory c, uint64_t per_count) const {
  if (per_count == 0) return 0.0;
  return static_cast<double>(at(c).total_ns) / static_cast<double>(per_count);
}

std::map<std::string, Breakdown::Entry> Breakdown::entries() const {
  static constexpr const char* kNames[kNumFaultCategories] = {
      "entry", "dedup", "tenant", "alloc", "rdma", "accounting", "tlb", "other"};
  std::map<std::string, Entry> out;
  for (size_t i = 0; i < by_category_.size(); ++i) {
    const Entry& e = by_category_[i];
    if (e.count == 0 && e.total_ns == 0) continue;
    out.emplace(kNames[i], e);
  }
  return out;
}

void TimeSeries::Add(SimTime t, double value) {
  assert(t >= 0);
  size_t idx = static_cast<size_t>(t / bucket_width_);
  if (idx >= buckets_.size()) {
    buckets_.resize(idx + 1, 0.0);
  }
  buckets_[idx] += value;
}

double TimeSeries::RatePerSec(size_t i) const {
  if (i >= buckets_.size()) return 0.0;
  return buckets_[i] / NsToSec(bucket_width_);
}

}  // namespace magesim
