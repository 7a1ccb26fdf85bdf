// Golden-trace regression test: a canonical read scenario, a write scan on
// two kernels and a PageRank run on Hermit, each fingerprinted by the trace
// hash plus per-type event counts and checked against a golden file in the
// source tree. Any behavioral change to the fault path, evictors, allocators,
// fabric or application hit path shows up here as a readable per-counter
// diff.
//
// Intentional behavior changes: regenerate with
//   MAGESIM_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test
// and commit the updated golden alongside the change that caused it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/farmem.h"
#include "src/paging/kernels.h"
#include "src/trace/trace.h"
#include "src/workloads/pagerank.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(MAGESIM_GOLDEN_DIR) + "/" + name + ".golden";
}

// Installs a hashing tracer, runs `wl` on `opt`, and fingerprints the trace
// plus the run's headline counters; `hits` adds the kernel's page-hit counts.
std::map<std::string, uint64_t> RunTraced(const FarMemoryMachine::Options& opt,
                                          Workload& wl, bool hits = false) {
  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();

  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();

  std::map<std::string, uint64_t> fp;
  fp["hash"] = hash.hash();
  fp["total"] = hash.total_events();
  for (int i = 0; i < kNumTraceEventTypes; ++i) {
    TraceEventType t = static_cast<TraceEventType>(i);
    fp[std::string("count.") + TraceEventName(t)] = hash.count(t);
  }
  fp["result.faults"] = r.faults;
  fp["result.evicted_pages"] = r.evicted_pages;
  fp["result.total_ops"] = r.total_ops;
  fp["result.sim_ns"] = static_cast<uint64_t>(r.sim_seconds * 1e9 + 0.5);
  if (hits) {
    fp["kernel.fast_hits"] = m.kernel().stats().fast_hits;
    fp["kernel.prefetch_hits"] = m.kernel().stats().prefetch_hits;
  }
  return fp;
}

// A small sequential scan at 40% far memory. Small enough to run in <1s, rich
// enough to exercise faults, prefetch, eviction and shootdowns; a write scan
// dirties every page, so every evicted page is written back over RDMA.
std::map<std::string, uint64_t> RunScan(const KernelConfig& kernel, bool write) {
  SeqScanWorkload wl(SeqScanWorkload::Options{
      .region_pages = 2048, .threads = 2, .passes = 2, .write = write});
  FarMemoryMachine::Options opt;
  opt.kernel = kernel;
  opt.local_mem_ratio = 0.6;
  opt.seed = 1;
  return RunTraced(opt, wl);
}

// A small GapBS PageRank on Hermit at 70% far memory: the random contribution
// reads make most accesses page hits between faults, so the fingerprint pins
// the hit path (every access, its order, and the compute time between) as
// well as the ranks, bit for bit.
std::map<std::string, uint64_t> RunPageRank() {
  PageRankWorkload wl(PageRankWorkload::Options{
      .scale = 15, .edge_factor = 16, .iterations = 2, .threads = 4, .seed = 3});
  FarMemoryMachine::Options opt;
  opt.kernel = HermitConfig();
  opt.local_mem_ratio = 0.3;
  opt.seed = 1;
  std::map<std::string, uint64_t> fp = RunTraced(opt, wl, /*hits=*/true);
  const std::vector<double>& ranks = wl.ranks();
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a over the rank bytes
  const auto* bytes = reinterpret_cast<const unsigned char*>(ranks.data());
  for (size_t i = 0; i < ranks.size() * sizeof(double); ++i) {
    digest = (digest ^ bytes[i]) * 1099511628211ULL;
  }
  fp["result.rank_digest"] = digest;
  return fp;
}

std::map<std::string, uint64_t> LoadGolden(const std::string& path) {
  std::map<std::string, uint64_t> g;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    g[line.substr(0, eq)] = std::strtoull(line.c_str() + eq + 1, nullptr, 10);
  }
  return g;
}

void SaveGolden(const std::string& path, const std::string& what,
                const std::map<std::string, uint64_t>& fp) {
  std::ofstream out(path);
  out << "# Golden fingerprint for the " << what << " scenario.\n"
      << "# Regenerate: MAGESIM_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test\n";
  for (const auto& [k, v] : fp) out << k << "=" << v << "\n";
}

// Compares `fp` with the golden `name`, or rewrites the golden (and skips)
// under MAGESIM_UPDATE_GOLDEN.
void CheckGolden(const std::string& name, const std::string& what,
                 const std::map<std::string, uint64_t>& fp) {
  const std::string path = GoldenPath(name);
  if (std::getenv("MAGESIM_UPDATE_GOLDEN") != nullptr) {
    SaveGolden(path, what, fp);
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::map<std::string, uint64_t> golden = LoadGolden(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << path << " — generate it with MAGESIM_UPDATE_GOLDEN=1";

  // Per-counter diff: report every divergent key, not just the first, so a
  // behavior change reads as "faults +312, evictions +2 batches" at a glance.
  std::ostringstream diff;
  for (const auto& [k, want] : golden) {
    auto it = fp.find(k);
    uint64_t got = it == fp.end() ? 0 : it->second;
    if (got != want) {
      diff << "  " << k << ": golden=" << want << " got=" << got << " ("
           << (got >= want ? "+" : "-") << (got >= want ? got - want : want - got)
           << ")\n";
    }
  }
  for (const auto& [k, v] : fp) {
    if (golden.find(k) == golden.end() && v != 0) {
      diff << "  " << k << ": golden=<absent> got=" << v << "\n";
    }
  }
  EXPECT_TRUE(diff.str().empty())
      << "trace fingerprint diverged from golden (" << path << "):\n"
      << diff.str()
      << "If this change is intentional, regenerate with MAGESIM_UPDATE_GOLDEN=1 "
         "and commit the new golden.";
}

TEST(GoldenTraceTest, CanonicalScenarioMatchesGolden) {
  CheckGolden("seqscan_magelib", "canonical seqscan/magelib",
              RunScan(MageLibConfig(), /*write=*/false));
}

// Write scans pin the writeback path: MageLib's pipelined evictor posts each
// batch and waits on it later, Hermit's synchronous evictor waits in place.
TEST(GoldenTraceTest, WriteScanMageLibMatchesGolden) {
  CheckGolden("seqscan_write_magelib", "write seqscan/magelib",
              RunScan(MageLibConfig(), /*write=*/true));
}

TEST(GoldenTraceTest, WriteScanHermitMatchesGolden) {
  CheckGolden("seqscan_write_hermit", "write seqscan/hermit",
              RunScan(HermitConfig(), /*write=*/true));
}

TEST(GoldenTraceTest, PageRankHermitMatchesGolden) {
  CheckGolden("pagerank_hermit", "pagerank/hermit", RunPageRank());
}

}  // namespace
}  // namespace magesim
