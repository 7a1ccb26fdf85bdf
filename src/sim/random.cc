#include "src/sim/random.h"

#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace magesim {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
  }
}

int64_t Rng::NextRange(int64_t lo, int64_t hi) {
  assert(hi > lo);
  return lo + static_cast<int64_t>(NextU64(static_cast<uint64_t>(hi - lo)));
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  if (u <= 0.0) u = 1e-18;
  return -mean * std::log(u);
}

bool Rng::NextBool(double p_true) { return NextDouble() < p_true; }

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n > 0);
  if (!(theta >= 0.0 && theta < 1.0)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", theta);
    throw std::invalid_argument(std::string("zipf: theta=") + buf + " must be in [0, 1)");
  }
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2_ / zetan_);
  rank1_bound_ = 1.0 + std::pow(0.5, theta);
}

uint64_t ZipfGenerator::Next(Rng& rng) {
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_bound_) return 1;
  uint64_t v = static_cast<uint64_t>(static_cast<double>(n_) *
                                     std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (v >= n_) v = n_ - 1;
  return v;
}

}  // namespace magesim
