// Deterministic random number generation for simulations: xoshiro256**
// engine plus uniform, exponential, and Zipf distributions. No global state;
// all callers own their generator so runs are reproducible per seed.
#ifndef MAGESIM_SIM_RANDOM_H_
#define MAGESIM_SIM_RANDOM_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace magesim {

// xoshiro256** (Blackman & Vigna). Fast, high-quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed);

  // Inline so tight loops (the Kronecker generator draws `scale` values per
  // edge) keep the state in registers.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, n).
  uint64_t NextU64(uint64_t n) {
    assert(n > 0);
    // Lemire's multiply-shift rejection-free mapping is fine for simulation use.
    return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * n) >> 64);
  }

  // Uniform in [lo, hi).
  int64_t NextRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1): the top 53 bits of Next(), scaled by 2^-53.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Exponentially distributed with the given mean (for Poisson arrivals).
  double NextExponential(double mean);

  bool NextBool(double p_true);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

// Zipf-distributed integers over [0, n) with skew `theta` in [0, 1). Uses
// the Gray et al. quick method: O(n) precompute of zeta(n), O(1) per sample.
class ZipfGenerator {
 public:
  // Throws std::invalid_argument "zipf: theta=<v> must be in [0, 1)" for a
  // theta outside [0, 1) or nan: at 1 the method's alpha = 1/(1 - theta) is
  // infinite, and above it the samples are meaningless.
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Rng& rng);

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2_;
  double rank1_bound_;  // 1 + 0.5^theta: uz below it (and >= 1) draws rank 1
};

// The 64-bit hash behind ScrambleIndex: FNV-1a style, then two murmur-style
// finalizer rounds.
inline uint64_t ScrambleHash(uint64_t index) {
  uint64_t h = index ^ 0xcbf29ce484222325ULL;
  h *= 0x100000001b3ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

// A scrambling permutation so that Zipf rank-0 hotness is scattered across an
// address range instead of clustering at its start (matches YCSB key hashing).
// Collisions are acceptable: this is a hotness-scattering function, not a
// permutation-sensitive index.
inline uint64_t ScrambleIndex(uint64_t index, uint64_t n) { return ScrambleHash(index) % n; }

}  // namespace magesim

#endif  // MAGESIM_SIM_RANDOM_H_
