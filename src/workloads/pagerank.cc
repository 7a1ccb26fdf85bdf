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

uint64_t PageRankWorkload::PullHits(AppThread& t, uint64_t e, uint64_t e_end, double* sum,
                                    uint64_t* last_edge_vpn) const {
  const CsrGraph& g = *graph_;
  double s = *sum;
  uint64_t last = *last_edge_vpn;
  for (; e < e_end; ++e) {
    uint64_t evpn = NeighborsVpn(e);
    if (evpn != last) {
      if (!t.TryAccessPage(evpn, false)) break;
      last = evpn;
    }
    uint32_t u = g.neighbors[e];
    if (!t.TryAccessPage(ContribVpn(u), false)) break;
    s += out_contrib_[u];
    t.Compute(opt_.compute_per_edge_ns);
    ++t.ops;
  }
  *sum = s;
  *last_edge_vpn = last;
  return e;
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
    // write, page-granular).
    uint64_t last_rank_vpn = ~0ULL, last_contrib_vpn = ~0ULL;
    for (uint64_t v = begin; v < end; ++v) {
      uint64_t rvpn = RankVpn(v, false);
      if (rvpn != last_rank_vpn) {
        co_await t.AccessPage(rvpn, false);
        last_rank_vpn = rvpn;
      }
      uint64_t cvpn = ContribVpn(v);
      if (cvpn != last_contrib_vpn) {
        co_await t.AccessPage(cvpn, true);
        last_contrib_vpn = cvpn;
      }
      uint64_t deg = g.OutDegree(v);
      out_contrib_[v] =
          deg == 0 ? 0.0 : static_cast<float>(rank_src_[v] / static_cast<double>(deg));
      t.Compute(opt_.compute_per_vertex_ns);
    }
    co_await t.Sync();
    co_await barrier_.Arrive();

    // Phase 2: pull along incoming edges; contribution reads hop randomly.
    uint64_t last_edge_vpn = ~0ULL, last_off_vpn = ~0ULL, last_dst_vpn = ~0ULL;
    for (uint64_t v = begin; v < end; ++v) {
      if (eng.shutdown_requested()) co_return;
      uint64_t ovpn = OffsetsVpn(v);
      if (ovpn != last_off_vpn) {
        co_await t.AccessPage(ovpn, false);
        last_off_vpn = ovpn;
      }
      double sum = 0.0;
      uint64_t e_end = g.offsets[v + 1];
      // Hits run in plain code; only an edge whose access missed is finished
      // here, with the same accesses in the same order, before the plain run
      // resumes at the next edge.
      for (uint64_t e = g.offsets[v]; (e = PullHits(t, e, e_end, &sum, &last_edge_vpn)) < e_end;
           ++e) {
        uint64_t evpn = NeighborsVpn(e);
        if (evpn != last_edge_vpn) {  // page-granular stream touch
          co_await t.AccessPage(evpn, false);
          last_edge_vpn = evpn;
        }
        uint32_t u = g.neighbors[e];
        co_await t.AccessPage(ContribVpn(u), false);  // random far access
        sum += out_contrib_[u];
        t.Compute(opt_.compute_per_edge_ns);
        ++t.ops;
      }
      uint64_t dvpn = RankVpn(v, true);
      if (dvpn != last_dst_vpn) {
        co_await t.AccessPage(dvpn, true);
        last_dst_vpn = dvpn;
      }
      rank_dst_[v] = (1.0 - kDamping) / static_cast<double>(n) + kDamping * sum;
      t.Compute(opt_.compute_per_vertex_ns);
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
