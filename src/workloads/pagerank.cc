#include "src/workloads/pagerank.h"

#include <stdexcept>
#include <string>

namespace magesim {

namespace {
constexpr double kDamping = 0.85;
constexpr uint64_t kNeighborsPerPage = kPageSize / sizeof(uint32_t);
constexpr uint64_t kOffsetsPerPage = kPageSize / sizeof(uint64_t);
constexpr uint64_t kRanksPerPage = kPageSize / sizeof(double);
constexpr uint64_t kContribPerPage = kPageSize / sizeof(float);

const PageRankWorkload::Options& Validated(const PageRankWorkload::Options& opt) {
  ValidateKroneckerShape(opt.scale, opt.edge_factor);
  if (opt.threads < 1) {
    throw std::invalid_argument("pagerank: threads=" + std::to_string(opt.threads) +
                                " must be at least 1");
  }
  return opt;
}
}  // namespace

std::shared_ptr<const CsrGraph> PageRankWorkload::BuildGraph(const Options& opt) {
  Validated(opt);
  return std::make_shared<const CsrGraph>(
      GenerateKronecker(opt.scale, opt.edge_factor, opt.seed));
}

PageRankWorkload::PageRankWorkload(Options opt) : PageRankWorkload(opt, BuildGraph(opt)) {}

PageRankWorkload::PageRankWorkload(Options opt, std::shared_ptr<const CsrGraph> graph)
    : opt_(Validated(opt)), graph_(std::move(graph)), barrier_(opt.threads) {
  const uint64_t want_vertices = 1ULL << opt_.scale;
  if (graph_ == nullptr || graph_->num_vertices != want_vertices ||
      graph_->num_edges != want_vertices * static_cast<uint64_t>(opt_.edge_factor)) {
    throw std::invalid_argument("pagerank: graph does not have the shape of scale=" +
                                std::to_string(opt_.scale) +
                                ", edge_factor=" + std::to_string(opt_.edge_factor));
  }
  const CsrGraph& g = *graph_;
  uint64_t neighbor_pages = (g.num_edges + kNeighborsPerPage - 1) / kNeighborsPerPage;
  uint64_t offset_pages = (g.num_vertices + kOffsetsPerPage) / kOffsetsPerPage + 1;
  uint64_t rank_pages = (g.num_vertices + kRanksPerPage - 1) / kRanksPerPage;
  uint64_t contrib_pages = (g.num_vertices + kContribPerPage - 1) / kContribPerPage;
  neighbors_base_ = 0;
  offsets_base_ = neighbors_base_ + neighbor_pages;
  rank_src_base_ = offsets_base_ + offset_pages;
  rank_dst_base_ = rank_src_base_ + rank_pages;
  contrib_base_ = rank_dst_base_ + rank_pages;
  wss_pages_ = contrib_base_ + contrib_pages;

  double init = 1.0 / static_cast<double>(g.num_vertices);
  rank_src_.assign(g.num_vertices, init);
  rank_dst_.assign(g.num_vertices, 0.0);
  out_contrib_.assign(g.num_vertices, 0.0);
}

uint64_t PageRankWorkload::NeighborsVpn(uint64_t edge_index) const {
  return neighbors_base_ + edge_index / kNeighborsPerPage;
}
uint64_t PageRankWorkload::OffsetsVpn(uint64_t vertex) const {
  return offsets_base_ + vertex / kOffsetsPerPage;
}
uint64_t PageRankWorkload::RankVpn(uint64_t vertex, bool dst) const {
  return (dst ? rank_dst_base_ : rank_src_base_) + vertex / kRanksPerPage;
}
uint64_t PageRankWorkload::ContribVpn(uint64_t vertex) const {
  return contrib_base_ + vertex / kContribPerPage;
}

Task<> PageRankWorkload::ThreadBody(AppThread& t, int tid) {
  // GapBS pull-direction PageRank. Memory behavior mirrors the real code:
  //  * contributions (4 B/vertex) are read at random per edge — the hot,
  //    random far-memory pattern;
  //  * the CSR offsets/neighbors arrays stream sequentially (the capacity
  //    pressure);
  //  * rank arrays are read/written sequentially per shard.
  Engine& eng = Engine::current();
  const CsrGraph& g = *graph_;
  uint64_t n = g.num_vertices;
  uint64_t chunk = (n + static_cast<uint64_t>(opt_.threads) - 1) /
                   static_cast<uint64_t>(opt_.threads);
  uint64_t begin = chunk * static_cast<uint64_t>(tid);
  uint64_t end = std::min(n, begin + chunk);

  for (int iter = 0; iter < opt_.iterations; ++iter) {
    if (eng.shutdown_requested()) co_return;
    // Phase 1: out-contributions (sequential rank read, sequential contrib
    // write, page-granular), one hit run. Cursor: the next vertex and the
    // last rank and contribution pages touched; a guard moves only once its
    // Touch hit.
    uint64_t next_v = begin, last_rank_vpn = ~0ULL, last_contrib_vpn = ~0ULL;
    co_await t.RunHits([&](AppThread::HitRun& r) {
      uint64_t v = next_v, last_rank = last_rank_vpn, last_contrib = last_contrib_vpn;
      const SimTime per_vertex = opt_.compute_per_vertex_ns;
      for (; v < end; ++v) {
        uint64_t rvpn = RankVpn(v, false);
        if (rvpn != last_rank) {
          if (!r.Touch(rvpn, false)) break;
          last_rank = rvpn;
        }
        uint64_t cvpn = ContribVpn(v);
        if (cvpn != last_contrib) {
          if (!r.Touch(cvpn, true)) break;
          last_contrib = cvpn;
        }
        uint64_t deg = g.OutDegree(v);
        out_contrib_[v] =
            deg == 0 ? 0.0 : static_cast<float>(rank_src_[v] / static_cast<double>(deg));
        r.Compute(per_vertex);
      }
      next_v = v;
      last_rank_vpn = last_rank;
      last_contrib_vpn = last_contrib;
    });
    co_await t.Sync();
    co_await barrier_.Arrive();

    // Phase 2: pull along incoming edges; contribution reads hop randomly.
    // The shutdown check before each vertex: the first here, the rest in
    // the run, after the vertex before it is done.
    if (begin < end) {
      if (eng.shutdown_requested()) co_return;
      PullCursor cur{begin, g.offsets[begin], 0.0, ~0ULL, ~0ULL, ~0ULL, false};
      co_await t.RunHits([&](AppThread::HitRun& r) {
        // Locals: the loop stores only to them, to PTEs and to the rank
        // array. Each page guard moves past a page only once its Touch hit,
        // so a run resumed at a missed access skips every earlier access of
        // the vertex and repeats that one.
        PullCursor c = cur;
        const double base = (1.0 - kDamping) / static_cast<double>(n);
        const SimTime per_edge = opt_.compute_per_edge_ns;
        const SimTime per_vertex = opt_.compute_per_vertex_ns;
        const uint64_t* offsets = g.offsets.data();
        const uint32_t* neighbors = g.neighbors.data();
        const float* contrib = out_contrib_.data();
        while (c.v < end) {
          uint64_t ovpn = OffsetsVpn(c.v);
          if (ovpn != c.last_off_vpn) {
            if (!r.Touch(ovpn, false)) break;
            c.last_off_vpn = ovpn;
          }
          const uint64_t e_end = offsets[c.v + 1];
          for (; c.e < e_end; ++c.e) {
            uint64_t evpn = NeighborsVpn(c.e);
            if (evpn != c.last_edge_vpn) {  // page-granular stream touch
              if (!r.Touch(evpn, false)) break;
              c.last_edge_vpn = evpn;
            }
            uint32_t u = neighbors[c.e];
            if (!r.Touch(ContribVpn(u), false)) break;  // random far access
            c.sum += contrib[u];
            r.Compute(per_edge);
            ++r.ops;
          }
          if (c.e < e_end) break;
          uint64_t dvpn = RankVpn(c.v, true);
          if (dvpn != c.last_dst_vpn) {
            if (!r.Touch(dvpn, true)) break;
            c.last_dst_vpn = dvpn;
          }
          rank_dst_[c.v] = base + kDamping * c.sum;
          r.Compute(per_vertex);
          ++c.v;
          c.e = offsets[c.v];
          c.sum = 0.0;
          if (c.v < end && r.shutdown_requested()) {
            c.stopped = true;
            break;
          }
        }
        cur = c;
      });
      if (cur.stopped) co_return;
    }
    co_await t.Sync();
    co_await barrier_.Arrive();

    if (tid == 0) {
      std::swap(rank_src_, rank_dst_);
    }
    co_await barrier_.Arrive();
  }
}

}  // namespace magesim
