#include "src/sim/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/sim/random.h"

namespace magesim {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234);
  EXPECT_EQ(h.max(), 1234);
  EXPECT_EQ(h.mean(), 1234.0);
  // Interpolated percentile clamps to [min, max], so a single sample is exact.
  EXPECT_EQ(h.Percentile(50), 1234);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i < 16; ++i) h.Record(i);
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(100), 15);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 15);
}

TEST(HistogramTest, PercentilesOfUniformData) {
  Histogram h;
  for (int64_t v = 1; v <= 100000; ++v) h.Record(v);
  // Sub-bucket interpolation is near-exact on uniform data (the p99 sub-bucket
  // is truncated by the data max, so it keeps a wider bound).
  EXPECT_NEAR(h.Percentile(50), 50000, 50000 * 0.005);
  EXPECT_NEAR(h.Percentile(99), 99000, 99000 * 0.02);
  EXPECT_NEAR(h.mean(), 50000.5, 1.0);
}

TEST(HistogramTest, TailPercentileSeparatesModes) {
  Histogram h;
  for (int i = 0; i < 9900; ++i) h.Record(1000);
  for (int i = 0; i < 100; ++i) h.Record(1000000);
  EXPECT_NEAR(h.Percentile(50), 1000, 20);
  EXPECT_GT(h.Percentile(99.5), 500000);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(10);
  for (int i = 0; i < 100; ++i) b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_NEAR(a.mean(), 505.0, 0.1);
}

TEST(HistogramTest, RecordNEquivalentToLoop) {
  Histogram a, b;
  a.RecordN(77, 1000);
  for (int i = 0; i < 1000; ++i) b.Record(77);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.Percentile(99), b.Percentile(99));
}

TEST(HistogramTest, LargeValuesStayBounded) {
  Histogram h;
  Rng r(1);
  int64_t max_seen = 0;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = static_cast<int64_t>(r.NextU64(1ULL << 40));
    max_seen = std::max(max_seen, v);
    h.Record(v);
  }
  EXPECT_EQ(h.max(), max_seen);
  EXPECT_LE(h.Percentile(100), max_seen);
  // Percentile never exceeds recorded max (clamped).
  EXPECT_GE(h.Percentile(99.99), h.Percentile(50));
}

// --- Property tests -------------------------------------------------------

TEST(HistogramPropertyTest, PercentileMonotoneInP) {
  Rng r(7);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram h;
    int n = 1 + static_cast<int>(r.NextU64(2000));
    for (int i = 0; i < n; ++i) {
      // Mix magnitudes so many buckets are populated.
      int shift = static_cast<int>(r.NextU64(50));
      h.Record(static_cast<int64_t>(r.NextU64(1ULL << shift)));
    }
    int64_t prev = h.Percentile(0);
    for (double p = 0.5; p <= 100.0; p += 0.5) {
      int64_t cur = h.Percentile(p);
      ASSERT_GE(cur, prev) << "trial " << trial << " p=" << p;
      prev = cur;
    }
    EXPECT_LE(h.Percentile(100), h.max());
    EXPECT_GE(h.Percentile(0), 0);
  }
}

TEST(HistogramPropertyTest, MergeEqualsRecordingUnion) {
  Rng r(11);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram a, b, both;
    int na = static_cast<int>(r.NextU64(500));
    int nb = static_cast<int>(r.NextU64(500));
    for (int i = 0; i < na; ++i) {
      int64_t v = static_cast<int64_t>(r.NextU64(1ULL << 44));
      a.Record(v);
      both.Record(v);
    }
    for (int i = 0; i < nb; ++i) {
      int64_t v = static_cast<int64_t>(r.NextU64(1ULL << 20));
      b.Record(v);
      both.Record(v);
    }
    a.Merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    for (double p : {0.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(a.Percentile(p), both.Percentile(p)) << "trial " << trial << " p=" << p;
    }
  }
}

TEST(HistogramPropertyTest, ResetRestoresEmptyState) {
  Histogram h;
  Rng r(13);
  for (int i = 0; i < 1000; ++i) h.Record(static_cast<int64_t>(r.NextU64(1ULL << 30)));
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  // A reset histogram behaves exactly like a fresh one.
  Histogram fresh;
  h.Record(42);
  fresh.Record(42);
  EXPECT_EQ(h.Percentile(100), fresh.Percentile(100));
  EXPECT_EQ(h.min(), fresh.min());
}

TEST(HistogramPropertyTest, BucketBoundaryValues) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(kMax);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), kMax);
  // Percentiles stay within [0, max] and non-negative even for the top bucket,
  // whose raw upper bound would overflow int64_t.
  for (double p : {0.0, 33.0, 50.0, 67.0, 99.0, 100.0}) {
    int64_t v = h.Percentile(p);
    EXPECT_GE(v, 0) << "p=" << p;
    EXPECT_LE(v, kMax) << "p=" << p;
  }
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(100), kMax);

  // Powers of two land on bucket edges; they must round-trip through
  // bucketing without crashing and keep percentiles ordered.
  Histogram edges;
  for (int log2 = 0; log2 < 63; ++log2) edges.Record(int64_t{1} << log2);
  EXPECT_EQ(edges.count(), 63u);
  int64_t prev = -1;
  for (double p = 0; p <= 100.0; p += 1.0) {
    int64_t cur = edges.Percentile(p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(HistogramPropertyTest, InterpolatedPercentileNearSortedExact) {
  // The estimate and the true target-rank sample share a sub-bucket, so the
  // error is bounded by one sub-bucket width (exact/16, +1 for rounding).
  Rng r(17);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram h;
    std::vector<int64_t> vals;
    int n = 50 + static_cast<int>(r.NextU64(2000));
    for (int i = 0; i < n; ++i) {
      int shift = 4 + static_cast<int>(r.NextU64(30));
      int64_t v = static_cast<int64_t>(r.NextU64(1ULL << shift));
      vals.push_back(v);
      h.Record(v);
    }
    std::sort(vals.begin(), vals.end());
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
      size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(n));
      if (rank >= vals.size()) rank = vals.size() - 1;
      int64_t exact = vals[rank];
      int64_t est = h.Percentile(p);
      ASSERT_LE(std::abs(static_cast<double>(est - exact)),
                static_cast<double>(exact) / 16.0 + 1.0)
          << "trial " << trial << " p=" << p << " exact=" << exact << " est=" << est;
    }
  }
}

TEST(BreakdownTest, AccumulatesPerCategory) {
  Breakdown b;
  b.Add(FaultCategory::kRdma, 3900);
  b.Add(FaultCategory::kRdma, 4100);
  b.Add(FaultCategory::kTlb, 500);
  EXPECT_EQ(b.entries().at("rdma").total_ns, 8000);
  EXPECT_EQ(b.entries().at("rdma").count, 2u);
  EXPECT_DOUBLE_EQ(b.MeanPer(FaultCategory::kRdma, 2), 4000.0);
  EXPECT_DOUBLE_EQ(b.MeanPer(FaultCategory::kTlb, 2), 250.0);
  EXPECT_DOUBLE_EQ(b.MeanPer(FaultCategory::kAlloc, 2), 0.0);
  // Untouched categories are omitted from the view; Merge adds entrywise.
  EXPECT_EQ(b.entries().count("alloc"), 0u);
  Breakdown sum;
  sum.Merge(b);
  sum.Merge(b);
  EXPECT_EQ(sum.entries().at("rdma"), (Breakdown::Entry{16000, 4}));
  EXPECT_EQ(sum.entries().size(), 2u);
}

TEST(TimeSeriesTest, BucketsByTime) {
  TimeSeries ts(100 * kMillisecond);
  ts.Add(0, 1);
  ts.Add(50 * kMillisecond, 1);
  ts.Add(150 * kMillisecond, 5);
  ts.Add(999 * kMillisecond, 2);
  ASSERT_EQ(ts.buckets().size(), 10u);
  EXPECT_EQ(ts.buckets()[0], 2);
  EXPECT_EQ(ts.buckets()[1], 5);
  EXPECT_EQ(ts.buckets()[9], 2);
  EXPECT_DOUBLE_EQ(ts.RatePerSec(1), 50.0);  // 5 events / 0.1 s
  EXPECT_DOUBLE_EQ(ts.RatePerSec(42), 0.0);
}

}  // namespace
}  // namespace magesim
