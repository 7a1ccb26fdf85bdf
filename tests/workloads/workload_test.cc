// Tests for the workload implementations: real-algorithm correctness
// (results independent of memory placement) and access-pattern properties.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>

#include "src/core/farmem.h"
#include "src/workloads/gups.h"
#include "src/workloads/kronecker.h"
#include "src/workloads/memcached.h"
#include "src/workloads/metis.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/xsbench.h"

namespace magesim {
namespace {

TEST(KroneckerTest, GeneratesRequestedShape) {
  CsrGraph g = GenerateKronecker(10, 8, 42);
  EXPECT_EQ(g.num_vertices, 1024u);
  EXPECT_EQ(g.num_edges, 8192u);
  EXPECT_EQ(g.offsets.size(), 1025u);
  EXPECT_EQ(g.offsets[0], 0u);
  EXPECT_EQ(g.offsets[1024], g.num_edges);
  // CSR is consistent: offsets monotone, neighbors in range.
  for (uint64_t v = 0; v < g.num_vertices; ++v) {
    EXPECT_LE(g.offsets[v], g.offsets[v + 1]);
  }
  for (uint32_t n : g.neighbors) {
    EXPECT_LT(n, g.num_vertices);
  }
}

TEST(KroneckerTest, DeterministicPerSeedSkewedDegrees) {
  CsrGraph a = GenerateKronecker(10, 8, 1);
  CsrGraph b = GenerateKronecker(10, 8, 1);
  EXPECT_EQ(a.neighbors, b.neighbors);
  CsrGraph c = GenerateKronecker(10, 8, 2);
  EXPECT_NE(a.neighbors, c.neighbors);
  // Power-law-ish: the max degree far exceeds the mean (8).
  uint64_t max_deg = 0;
  for (uint64_t v = 0; v < a.num_vertices; ++v) {
    max_deg = std::max(max_deg, a.OutDegree(v));
  }
  EXPECT_GT(max_deg, 40u);
}

uint64_t Fnv1a(const void* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Digests of the CSR arrays as produced by the original branchy generator
// (an if/else chain over NextDouble() per level, ScrambleIndex labels, CSR
// built after generation). The branch-free generator must match it byte for
// byte: every PageRank figure and golden depends on this graph.
TEST(KroneckerTest, GoldenDigest) {
  struct Golden {
    int scale, edge_factor;
    uint64_t seed;
    uint64_t offsets, neighbors;
  };
  for (const Golden& want : {
           Golden{10, 8, 42, 0xea8dce59a61418d7ULL, 0x81a51f2b46170c20ULL},
           Golden{15, 16, 1, 0xa4ac67b5ca2ffacbULL, 0x41375a64cbdd1087ULL},
           Golden{15, 16, 2, 0xb39ef4edf074b0d0ULL, 0x23f0c9699f5d93ffULL},
           Golden{1, 1, 7, 0xe1d8dd551087bf45ULL, 0x89cd31291d2aefa4ULL},
       }) {
    CsrGraph g = GenerateKronecker(want.scale, want.edge_factor, want.seed);
    SCOPED_TRACE(::testing::Message() << "(" << want.scale << ", " << want.edge_factor << ", "
                                      << want.seed << ")");
    EXPECT_EQ(g.num_edges, (uint64_t{1} << want.scale) * static_cast<uint64_t>(want.edge_factor));
    EXPECT_EQ(Fnv1a(g.offsets.data(), g.offsets.size() * sizeof(uint64_t)), want.offsets);
    EXPECT_EQ(Fnv1a(g.neighbors.data(), g.neighbors.size() * sizeof(uint32_t)), want.neighbors);
  }
}

// The generator compares the 53-bit draw x = Next() >> 11 against integer
// thresholds; at each threshold's edges that must agree with the original
// NextDouble() < t compare.
TEST(KroneckerTest, IntegerThresholdsMatchDoubleCompares) {
  for (double t : {kKroneckerA, kKroneckerA + kKroneckerB, kKroneckerA + kKroneckerB + kKroneckerC}) {
    const uint64_t threshold = KroneckerThreshold(t);
    for (uint64_t x : {threshold - 1, threshold}) {
      const double r = static_cast<double>(x) * 0x1.0p-53;
      EXPECT_EQ(r < t, x < threshold) << "t=" << t << " x=" << x;
    }
  }
}

TEST(KroneckerTest, RejectsShapesOutsideTheIdRange) {
  EXPECT_THROW(GenerateKronecker(0, 8, 1), std::invalid_argument);
  EXPECT_THROW(GenerateKronecker(-1, 8, 1), std::invalid_argument);
  EXPECT_THROW(GenerateKronecker(kMaxKroneckerScale + 1, 8, 1), std::invalid_argument);
  EXPECT_THROW(GenerateKronecker(10, 0, 1), std::invalid_argument);
}

RunResult RunWorkload(Workload& wl, const KernelConfig& cfg, double ratio,
                      SimTime limit = 0) {
  FarMemoryMachine::Options opt;
  opt.kernel = cfg;
  opt.local_mem_ratio = ratio;
  opt.time_limit = limit;
  FarMemoryMachine m(opt, wl);
  return m.Run();
}

TEST(PageRankTest, RankMassConservedAndPlacementIndependent) {
  PageRankWorkload::Options o{.scale = 12, .iterations = 5, .threads = 8};
  PageRankWorkload local(o), far(o);
  RunWorkload(local, MageLibConfig(), 1.0);
  RunWorkload(far, HermitConfig(), 0.4);
  double sum_local = std::accumulate(local.ranks().begin(), local.ranks().end(), 0.0);
  // Kronecker graphs have many dangling vertices, which leak rank mass (the
  // GapBS kernel does not redistribute it); mass stays in (0, 1].
  EXPECT_GT(sum_local, 0.15);
  EXPECT_LE(sum_local, 1.0001);
  // The algorithm's output must not depend on the paging system underneath.
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(local.ranks()[i], far.ranks()[i]);
  }
}

TEST(PageRankTest, CopySharesGraph) {
  PageRankWorkload::Options o{.scale = 12, .iterations = 3, .threads = 4};
  PageRankWorkload a(o);
  PageRankWorkload b(a);
  EXPECT_EQ(&a.graph(), &b.graph());
  const std::vector<double> fresh = a.ranks();

  RunWorkload(b, MageLibConfig(), 1.0);
  EXPECT_EQ(a.ranks(), fresh);  // running the copy leaves the original alone
  EXPECT_NE(b.ranks(), fresh);

  PageRankWorkload c(a);
  RunWorkload(c, HermitConfig(), 0.5);
  ASSERT_EQ(b.ranks().size(), c.ranks().size());
  EXPECT_EQ(std::memcmp(b.ranks().data(), c.ranks().data(), b.ranks().size() * sizeof(double)), 0);

  // A workload built over a prebuilt graph shares it too.
  std::shared_ptr<const CsrGraph> graph = PageRankWorkload::BuildGraph(o);
  PageRankWorkload d(o, graph);
  EXPECT_EQ(&d.graph(), graph.get());
  EXPECT_EQ(d.graph().neighbors, a.graph().neighbors);
}

TEST(PageRankTest, RejectsBadOptionsAndMismatchedGraphs) {
  EXPECT_THROW(PageRankWorkload({.scale = 0}), std::invalid_argument);
  EXPECT_THROW(PageRankWorkload({.scale = 40}), std::invalid_argument);
  EXPECT_THROW(PageRankWorkload({.scale = 10, .edge_factor = 0}), std::invalid_argument);
  EXPECT_THROW(PageRankWorkload({.scale = 10, .threads = 0}), std::invalid_argument);
  EXPECT_THROW(PageRankWorkload::BuildGraph({.scale = -1}), std::invalid_argument);

  PageRankWorkload::Options o{.scale = 10, .edge_factor = 4, .threads = 2};
  std::shared_ptr<const CsrGraph> graph = PageRankWorkload::BuildGraph(o);
  EXPECT_THROW(PageRankWorkload(o, nullptr), std::invalid_argument);
  EXPECT_THROW(PageRankWorkload({.scale = 11, .edge_factor = 4, .threads = 2}, graph),
               std::invalid_argument);
  EXPECT_THROW(PageRankWorkload({.scale = 10, .edge_factor = 8, .threads = 2}, graph),
               std::invalid_argument);
}

TEST(PageRankTest, OffloadingCausesStreamFaults) {
  // Large enough that 50% local is above the machine's minimum pool size.
  PageRankWorkload::Options o{.scale = 16, .iterations = 2, .threads = 8};
  PageRankWorkload wl(o);
  RunResult r = RunWorkload(wl, MageLibConfig(), 0.5);
  EXPECT_GT(r.faults, wl.wss_pages() / 4);
  EXPECT_GT(r.total_ops, 0u);
}

TEST(XsBenchTest, DeterministicResultAcrossPlacements) {
  XsBenchWorkload::Options o{.gridpoints = 1 << 14, .lookups_per_thread = 500, .threads = 4};
  XsBenchWorkload a(o), b(o);
  RunWorkload(a, MageLibConfig(), 1.0);
  RunWorkload(b, DilosConfig(), 0.5);
  EXPECT_EQ(a.result_hash(), b.result_hash());
  EXPECT_NE(a.result_hash(), 0u);
}

TEST(XsBenchTest, BinarySearchTouchesGridAndXsRegions) {
  XsBenchWorkload::Options o{.gridpoints = 1 << 15, .lookups_per_thread = 300, .threads = 4};
  XsBenchWorkload wl(o);
  RunResult r = RunWorkload(wl, MageLibConfig(), 0.5);
  EXPECT_GT(r.faults, 100u);  // random gathers must fault under offloading
}

TEST(GupsTest, PhaseChangeMovesFaultPressure) {
  GupsWorkload wl({.total_pages = 8192,
                   .threads = 8,
                   .phase_change_at = 20 * kMillisecond,
                   .run_for = 40 * kMillisecond});
  RunResult r = RunWorkload(wl, MageLibConfig(), 0.85, 50 * kMillisecond);
  EXPECT_GT(r.total_ops, 1000u);
  // Updates continue after the phase change.
  const TimeSeries& ts = wl.timeline();
  ASSERT_GE(ts.buckets().size(), 1u);
  EXPECT_GT(ts.RatePerSec(0), 0.0);
}

TEST(MetisTest, PhasesCompleteAndResultStable) {
  MetisWorkload::Options o{.input_pages = 2048, .intermediate_pages = 1024, .threads = 8};
  MetisWorkload a(o), b(o);
  RunWorkload(a, MageLibConfig(), 1.0);
  RunWorkload(b, HermitConfig(), 0.5);
  EXPECT_GT(a.map_done_at(), 0);
  EXPECT_GT(a.reduce_done_at(), a.map_done_at());
  EXPECT_EQ(a.result(), b.result());
  EXPECT_NE(a.result(), 0u);
}

TEST(MemcachedTest, RejectsZeroKeys) {
  // Every key hash is reduced modulo num_keys.
  EXPECT_THROW(MemcachedWorkload({.num_keys = 0}), std::invalid_argument);
}

TEST(MemcachedTest, ServesLoadAndRecordsLatency) {
  MemcachedWorkload wl({.num_keys = 1 << 14,
                        .load_ops_per_sec = 50000,
                        .server_threads = 8,
                        .duration = 100 * kMillisecond});
  RunResult r = RunWorkload(wl, MageLibConfig(), 0.7, 150 * kMillisecond);
  EXPECT_GT(wl.completed_requests(), 3000u);
  EXPECT_GT(wl.request_latency().count(), 3000u);
  // Uncongested p50 is service compute + at most one remote read.
  EXPECT_LT(wl.request_latency().Percentile(50), 40 * kMicrosecond);
  (void)r;
}

TEST(MemcachedTest, OffloadingRaisesTailLatency) {
  auto p99 = [](double ratio) {
    MemcachedWorkload wl({.num_keys = 1 << 14,
                          .load_ops_per_sec = 50000,
                          .server_threads = 8,
                          .duration = 100 * kMillisecond});
    RunWorkload(wl, MageLibConfig(), ratio, 150 * kMillisecond);
    return wl.request_latency().Percentile(99);
  };
  EXPECT_GT(p99(0.3), p99(1.0));
}

TEST(MemcachedTest, OverloadDropsInsteadOfUnboundedQueueing) {
  MemcachedWorkload wl({.num_keys = 1 << 14,
                        .load_ops_per_sec = 10e6,  // far beyond capacity
                        .server_threads = 2,
                        .duration = 20 * kMillisecond,
                        .queue_capacity = 64});
  RunWorkload(wl, MageLibConfig(), 1.0, 40 * kMillisecond);
  EXPECT_GT(wl.dropped_requests(), 0u);
}

}  // namespace
}  // namespace magesim
