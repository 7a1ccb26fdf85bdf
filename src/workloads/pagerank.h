// GapBS PageRank over a Kronecker graph (§6.2 "random access patterns").
//
// Real pull-direction PageRank: the algorithm computes actual ranks over the
// generated graph while every array access is mirrored onto the simulated
// address space at page granularity. The neighbor-contribution reads are the
// random far-memory pattern the paper highlights; the CSR edge stream is
// sequential.
//
// The graph is immutable once built and held by shared_ptr: copies of a
// workload, and every workload built over one BuildGraph() result, read the
// same CSR. Each instance owns its rank and contribution arrays, so copies
// run independently.
#ifndef MAGESIM_WORKLOADS_PAGERANK_H_
#define MAGESIM_WORKLOADS_PAGERANK_H_

#include <memory>
#include <vector>

#include "src/workloads/kronecker.h"
#include "src/workloads/workload.h"

namespace magesim {

class PageRankWorkload : public Workload {
 public:
  struct Options {
    int scale = 18;       // 2^18 = 262k vertices (paper: 41.7 M)
    int edge_factor = 16; // ~4.2 M edges (paper: 1.5 B)
    int iterations = 3;
    int threads = 48;
    uint64_t seed = 7;
    SimTime compute_per_edge_ns = 13;
    SimTime compute_per_vertex_ns = 20;
  };

  // Generates the graph for `opt` (a fresh GenerateKronecker call every
  // time). Throws std::invalid_argument on a shape ValidateKroneckerShape
  // refuses or threads < 1.
  explicit PageRankWorkload(Options opt);
  // Runs over an already-built graph, shared with its other holders. The
  // graph must have opt's shape (2^scale vertices, edge_factor edges each);
  // opt.seed is not checked.
  PageRankWorkload(Options opt, std::shared_ptr<const CsrGraph> graph);

  // The graph PageRankWorkload(opt) would generate, for sweeps that build
  // it once and pass it to every point. Validates `opt` as the constructor
  // does.
  static std::shared_ptr<const CsrGraph> BuildGraph(const Options& opt);

  std::string name() const override { return "gapbs-pagerank"; }
  uint64_t wss_pages() const override { return wss_pages_; }
  int num_threads() const override { return opt_.threads; }
  std::string ops_unit() const override { return "edges"; }

  Task<> ThreadBody(AppThread& t, int tid) override;

  // Final ranks (validated by tests: sums to ~1, converges deterministically).
  const std::vector<double>& ranks() const { return rank_src_; }
  const CsrGraph& graph() const { return *graph_; }

  // --- Simulated address-space layout (page numbers) ---
  uint64_t NeighborsVpn(uint64_t edge_index) const;
  uint64_t OffsetsVpn(uint64_t vertex) const;
  uint64_t RankVpn(uint64_t vertex, bool dst) const;
  uint64_t ContribVpn(uint64_t vertex) const;

 private:
  // Where a thread's pull phase, one hit-run body over all its vertices
  // (AppThread::RunHits), stands: the next vertex, its next edge and
  // partial sum, and the last offsets, neighbor-stream and rank pages it
  // touched. The body moves it only past finished accesses.
  struct PullCursor {
    uint64_t v;
    uint64_t e;
    double sum;
    uint64_t last_off_vpn;
    uint64_t last_edge_vpn;
    uint64_t last_dst_vpn;
    bool stopped;  // a shutdown request ended the phase early
  };

  Options opt_;
  std::shared_ptr<const CsrGraph> graph_;
  uint64_t neighbors_base_ = 0;  // vpn of neighbors[] region
  uint64_t offsets_base_;
  uint64_t rank_src_base_;
  uint64_t rank_dst_base_;
  uint64_t contrib_base_;
  uint64_t wss_pages_;

  std::vector<double> rank_src_;
  std::vector<double> rank_dst_;
  std::vector<float> out_contrib_;
  SimBarrier barrier_;
};

}  // namespace magesim

#endif  // MAGESIM_WORKLOADS_PAGERANK_H_
