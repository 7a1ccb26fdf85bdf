#include "src/sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace magesim {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(456);
  bool all_equal = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_equal = all_equal && (va == vb);
    any_diff_c = any_diff_c || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(RngTest, NextU64InRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextU64(17), 17u);
  }
}

TEST(RngTest, NextU64RoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[r.NextU64(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng r(5);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    double v = r.NextExponential(250.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 250.0, 10.0);
}

TEST(ZipfTest, ProducesValuesInRange) {
  Rng r(9);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(r), 1000u);
  }
}

TEST(ZipfTest, IsSkewedTowardLowRanks) {
  Rng r(13);
  ZipfGenerator zipf(100000, 0.99);
  constexpr int kSamples = 100000;
  int rank0 = 0, top10 = 0;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = zipf.Next(r);
    if (v == 0) ++rank0;
    if (v < 10) ++top10;
  }
  // With theta=0.99, N=1e5: P(rank 0) ~ 1/zeta ~ 7.8%; top-10 ~ 30%.
  EXPECT_GT(rank0, kSamples * 4 / 100);
  EXPECT_GT(top10, kSamples * 20 / 100);
  EXPECT_LT(top10, kSamples * 45 / 100);
}

TEST(ZipfTest, LowThetaApproachesUniform) {
  Rng r(17);
  ZipfGenerator zipf(100, 0.01);
  constexpr int kSamples = 100000;
  int rank0 = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(r) == 0) ++rank0;
  }
  // Near-uniform: rank 0 close to 1%.
  EXPECT_LT(rank0, kSamples * 4 / 100);
}

TEST(ScrambleTest, StaysInRangeAndIsDeterministic) {
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t a = ScrambleIndex(i, 777);
    uint64_t b = ScrambleIndex(i, 777);
    EXPECT_EQ(a, b);
    EXPECT_LT(a, 777u);
  }
}

TEST(ScrambleTest, SpreadsConsecutiveIndices) {
  // Consecutive inputs should not stay consecutive.
  std::map<uint64_t, int> hist;
  int adjacent = 0;
  uint64_t prev = ScrambleIndex(0, 1 << 20);
  for (uint64_t i = 1; i < 1000; ++i) {
    uint64_t cur = ScrambleIndex(i, 1 << 20);
    if (cur == prev + 1) ++adjacent;
    prev = cur;
  }
  EXPECT_LT(adjacent, 5);
}

// The sampler as it was before the rank-1 bound moved into the
// constructor: 1 + 0.5^theta computed on every sample.
uint64_t OldZipfNext(Rng& rng, uint64_t n, double theta) {
  double zetan = 0, zeta2 = 0;
  for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  for (uint64_t i = 1; i <= 2; ++i) zeta2 += 1.0 / std::pow(static_cast<double>(i), theta);
  double alpha = 1.0 / (1.0 - theta);
  double eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan);
  double u = rng.NextDouble();
  double uz = u * zetan;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta)) return 1;
  uint64_t v =
      static_cast<uint64_t>(static_cast<double>(n) * std::pow(eta * u - eta + 1.0, alpha));
  if (v >= n) v = n - 1;
  return v;
}

TEST(ZipfTest, SamplesEqualThePerSampleFormula) {
  for (uint64_t n : {3ULL, 100ULL, 4097ULL}) {
    for (double theta : {0.0, 0.01, 0.4, 0.6, 0.85, 0.99}) {
      for (uint64_t seed : {1ULL, 77ULL, 2024ULL}) {
        Rng a(seed), b(seed);
        ZipfGenerator zipf(n, theta);
        for (int i = 0; i < 2000; ++i) {
          ASSERT_EQ(zipf.Next(a), OldZipfNext(b, n, theta))
              << "n=" << n << " theta=" << theta << " seed=" << seed << " sample " << i;
        }
      }
    }
  }
}

TEST(ZipfTest, RefusesThetaOutsideZeroToOneByName) {
  for (double theta : {1.0, 1.5, -0.01, std::nan(""), static_cast<double>(INFINITY)}) {
    try {
      ZipfGenerator zipf(100, theta);
      ADD_FAILURE() << "theta=" << theta << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("theta="), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("must be in [0, 1)"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace magesim
