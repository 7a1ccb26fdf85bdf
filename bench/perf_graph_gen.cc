// perf_graph_gen: Kronecker graph generation speed and output (ns per edge).
//
// Generates the fig09/fig17 PageRank graph shape, GenerateKronecker(17, 16,
// 1), once per rep. The sim group pins the edge count and FNV-1a digests of
// the CSR arrays, so perf_diff.py fails on any change to the generator's
// output; the wall group tracks generation time per edge.
#include <cstdint>
#include <vector>

#include "bench/perf_common.h"
#include "src/workloads/kronecker.h"

namespace magesim {
namespace {

constexpr int kScale = 17;
constexpr int kEdgeFactor = 16;
constexpr uint64_t kSeed = 1;

uint64_t Fnv1a(const void* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  BenchReps reps = BenchRepsFromEnv(/*default_warmup=*/1, /*default_measure=*/8);

  CsrGraph g;
  for (int i = 0; i < reps.warmup; ++i) g = GenerateKronecker(kScale, kEdgeFactor, kSeed);
  std::vector<uint64_t> rep_ns;
  for (int i = 0; i < reps.measure; ++i) {
    uint64_t t0 = WallNowNs();
    g = GenerateKronecker(kScale, kEdgeFactor, kSeed);
    rep_ns.push_back(WallNowNs() - t0);
  }

  PerfReport r("graph_gen", reps);
  r.Sim("scale", kScale);
  r.Sim("edge_factor", kEdgeFactor);
  r.Sim("seed", kSeed);
  r.Sim("edges", g.num_edges);
  r.Sim("offsets_fnv1a", Fnv1a(g.offsets.data(), g.offsets.size() * sizeof(uint64_t)));
  r.Sim("neighbors_fnv1a", Fnv1a(g.neighbors.data(), g.neighbors.size() * sizeof(uint32_t)));
  r.WallTimes(rep_ns, g.num_edges, "edges");
  r.Write();
  return 0;
}
