// Kronecker (R-MAT) graph generator in CSR form — the GapBS input (§6.1,
// Graph500 parameters a/b/c = 0.57/0.19/0.19).
#ifndef MAGESIM_WORKLOADS_KRONECKER_H_
#define MAGESIM_WORKLOADS_KRONECKER_H_

#include <cstdint>
#include <vector>

#include "src/sim/random.h"

namespace magesim {

struct CsrGraph {
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;          // directed edges, duplicates kept
  std::vector<uint64_t> offsets;   // size num_vertices + 1
  std::vector<uint32_t> neighbors; // size num_edges

  uint64_t OutDegree(uint64_t v) const { return offsets[v + 1] - offsets[v]; }
};

// Vertex ids are uint32_t, so 2^31 vertices is the largest graph.
inline constexpr int kMinKroneckerScale = 1;
inline constexpr int kMaxKroneckerScale = 31;

// Graph500 R-MAT quadrant probabilities a/b/c (d = 1 - a - b - c).
inline constexpr double kKroneckerA = 0.57, kKroneckerB = 0.19, kKroneckerC = 0.19;

// Integer form of the quadrant test. NextDouble() is (Next() >> 11) * 2^-53
// and scaling by a power of two is exact, so for x = Next() >> 11:
//   NextDouble() < t  <=>  x < t * 2^53  <=>  x < KroneckerThreshold(t).
constexpr uint64_t KroneckerThreshold(double t) {
  const double scaled = t * 0x1.0p53;
  const auto whole = static_cast<uint64_t>(scaled);
  return static_cast<double>(whole) < scaled ? whole + 1 : whole;
}

// Throws std::invalid_argument unless scale is in [kMinKroneckerScale,
// kMaxKroneckerScale] and edge_factor >= 1.
void ValidateKroneckerShape(int scale, int edge_factor);

// Generates a Kronecker graph with 2^scale vertices and edge_factor edges
// per vertex. Deterministic per seed. Self-loops kept (GapBS does not remove
// them for PageRank), duplicate edges kept (they weight the walk, as in the
// generator's raw output). Validates the shape first.
CsrGraph GenerateKronecker(int scale, int edge_factor, uint64_t seed);

}  // namespace magesim

#endif  // MAGESIM_WORKLOADS_KRONECKER_H_
