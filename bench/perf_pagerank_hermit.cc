// perf_pagerank_hermit: host cost of the application hit path (wall ns per
// simulated fault and per edge).
//
// The fig09/fig17 GapBS sweep point: pull-direction PageRank over a
// scale-17 Kronecker graph, 48 threads, on Hermit at 30% local memory. Most
// accesses are page hits between faults, so this harness prices the hit path
// (the pull loop's hit run, AppThread::RunHits, and the PTE update) where
// perf_fault_path prices the fault and eviction path. The graph is built
// once, outside the timed reps; each rep builds a fresh machine and workload
// over it, and only Run() is timed.
//
// The sim group pins faults, engine events, page hits, edges, simulated ns
// and an FNV-1a digest of the final ranks, so perf_diff.py fails on any
// change to what the run computes or how it pages.
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/perf_common.h"
#include "src/workloads/pagerank.h"

namespace magesim {
namespace {

struct Outcome {
  uint64_t faults = 0;
  uint64_t events = 0;
  uint64_t fast_hits = 0;
  uint64_t edges = 0;
  uint64_t sim_ns = 0;
  uint64_t rank_digest = 0;
  uint64_t run_ns = 0;  // wall time of Run()
};

const PageRankWorkload::Options kOpt{
    .scale = 17, .edge_factor = 16, .iterations = 3, .threads = 48, .seed = 1};

uint64_t Fnv1a(const void* data, size_t n) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

Outcome RunOnce(const std::shared_ptr<const CsrGraph>& graph) {
  PageRankWorkload wl(kOpt, graph);
  FarMemoryMachine::Options opt;
  opt.kernel = HermitConfig();
  opt.local_mem_ratio = 0.3;
  opt.seed = 1;
  FarMemoryMachine m(opt, wl);
  uint64_t t0 = WallNowNs();
  RunResult r = m.Run();
  Outcome o;
  o.run_ns = WallNowNs() - t0;
  o.faults = r.faults;
  o.events = m.engine().events_processed();
  o.fast_hits = m.kernel().stats().fast_hits;
  o.edges = r.total_ops;
  o.sim_ns = static_cast<uint64_t>(r.sim_seconds * 1e9 + 0.5);
  o.rank_digest = Fnv1a(wl.ranks().data(), wl.ranks().size() * sizeof(double));
  return o;
}

}  // namespace
}  // namespace magesim

int main() {
  using namespace magesim;
  BenchReps reps = BenchRepsFromEnv(/*default_warmup=*/1, /*default_measure=*/10);

  const std::shared_ptr<const CsrGraph> graph = PageRankWorkload::BuildGraph(kOpt);
  Outcome out;
  for (int i = 0; i < reps.warmup; ++i) out = RunOnce(graph);
  std::vector<uint64_t> rep_ns;
  for (int i = 0; i < reps.measure; ++i) {
    Outcome got = RunOnce(graph);
    rep_ns.push_back(got.run_ns);
    if (out.events != 0 && (got.events != out.events || got.rank_digest != out.rank_digest)) {
      std::fprintf(stderr, "perf_pagerank_hermit: nondeterministic rep\n");
      return 1;
    }
    out = got;
  }

  PerfReport r("pagerank_hermit", reps);
  r.Sim("faults_per_rep", out.faults);
  r.Sim("events_per_rep", out.events);
  r.Sim("fast_hits_per_rep", out.fast_hits);
  r.Sim("edges_per_rep", out.edges);
  r.Sim("sim_ns_per_rep", out.sim_ns);
  r.Sim("rank_digest", out.rank_digest);
  r.WallNsPer(rep_ns, out.faults, "fault");
  r.WallTimes(rep_ns, out.edges, "edges");
  r.Write();
  return 0;
}
