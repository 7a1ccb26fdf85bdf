#include "src/workloads/kronecker.h"

#include <stdexcept>
#include <string>

namespace magesim {

void ValidateKroneckerShape(int scale, int edge_factor) {
  if (scale < kMinKroneckerScale || scale > kMaxKroneckerScale) {
    throw std::invalid_argument("Kronecker graph: scale=" + std::to_string(scale) + " outside [" +
                                std::to_string(kMinKroneckerScale) + ", " +
                                std::to_string(kMaxKroneckerScale) + "]");
  }
  if (edge_factor < 1) {
    throw std::invalid_argument("Kronecker graph: edge_factor=" + std::to_string(edge_factor) +
                                " must be at least 1");
  }
}

CsrGraph GenerateKronecker(int scale, int edge_factor, uint64_t seed) {
  ValidateKroneckerShape(scale, edge_factor);
  const uint64_t n = 1ULL << scale;
  const uint64_t m = n * static_cast<uint64_t>(edge_factor);
  constexpr uint64_t kTa = KroneckerThreshold(kKroneckerA);
  constexpr uint64_t kTab = KroneckerThreshold(kKroneckerA + kKroneckerB);
  constexpr uint64_t kTabc = KroneckerThreshold(kKroneckerA + kKroneckerB + kKroneckerC);
  Rng rng(seed);

  CsrGraph g;
  g.num_vertices = n;
  g.num_edges = m;
  // The graph's arrays are allocated before the temporaries, so the
  // temporaries sit above them in the heap and freeing them leaves no hole
  // under a live graph (repeated generations otherwise fragment the heap
  // and raise peak RSS).
  g.offsets.assign(n + 1, 0);
  g.neighbors.resize(m);
  // Edges in generation order, src in the high half: 8 bytes per edge.
  std::vector<uint64_t> edges(m);
  for (uint64_t e = 0; e < m; ++e) {
    // R-MAT recursive quadrant descent, most significant bit first. With
    // a = x >= Ta, b = x >= Tab, c = x >= Tabc (so a >= b >= c), the
    // quadrants a/b/c/d set no bit / dst / src / both: the src bit is b and
    // the dst bit is a ^ b ^ c. No branch depends on the draw.
    uint64_t src = 0, dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      const uint64_t x = rng.Next() >> 11;
      const uint64_t a = x >= kTa, b = x >= kTab, c = x >= kTabc;
      src = (src << 1) | b;
      dst = (dst << 1) | (a ^ b ^ c);
    }
    // Permute vertex labels so degree correlates with nothing spatial; this
    // is what makes the neighbor reads a *random* far-memory pattern. n is a
    // power of two, so the mask equals ScrambleIndex's `% n`.
    src = ScrambleHash(src) & (n - 1);
    dst = ScrambleHash(dst) & (n - 1);
    ++g.offsets[src + 1];
    edges[e] = (src << 32) | dst;
  }

  // Counting sort by source; a stable scatter keeps each source's neighbors
  // in generation order.
  for (uint64_t v = 0; v < n; ++v) {
    g.offsets[v + 1] += g.offsets[v];
  }
  std::vector<uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (uint64_t edge : edges) {
    g.neighbors[cursor[edge >> 32]++] = static_cast<uint32_t>(edge);
  }
  return g;
}

}  // namespace magesim
