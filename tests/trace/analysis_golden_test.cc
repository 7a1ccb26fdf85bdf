// Golden-trace guards for the lock-discipline analyzer.
//
// 1. Analyzer-off equivalence: running the canonical scenario WITH the
//    analyzer must reproduce the analyzer-off golden fingerprint exactly —
//    the hooks add no delays, no events and no behavior change on a clean
//    run, so traces stay byte-identical between the default and analysis
//    builds.
// 2. Analysis-stream golden: a synthetic scenario seeded with lock-order and
//    discipline bugs pins the analysis.* event stream (edge and violation
//    events) against its own golden file.
//
// Regenerate intentionally changed goldens with
//   MAGESIM_UPDATE_GOLDEN=1 ./build/tests/analysis_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/analysis/lock_analyzer.h"
#include "src/core/farmem.h"
#include "src/sim/sync.h"
#include "src/trace/trace.h"
#include "src/workloads/seqscan.h"
#include "tests/trace/golden_update.h"

namespace magesim {
namespace {

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

void SaveGolden(const std::string& path, const std::string& header,
                const std::map<std::string, uint64_t>& fp) {
  std::ofstream out(path);
  out << header;
  for (const auto& [k, v] : fp) out << k << "=" << v << "\n";
}

std::string DiffAgainst(const std::map<std::string, uint64_t>& golden,
                        const std::map<std::string, uint64_t>& fp) {
  std::ostringstream diff;
  for (const auto& [k, want] : golden) {
    auto it = fp.find(k);
    uint64_t got = it == fp.end() ? 0 : it->second;
    if (got != want) {
      diff << "  " << k << ": golden=" << want << " got=" << got << "\n";
    }
  }
  for (const auto& [k, v] : fp) {
    if (golden.find(k) == golden.end() && v != 0) {
      diff << "  " << k << ": golden=<absent> got=" << v << "\n";
    }
  }
  return diff.str();
}

// Mirrors golden_trace_test's canonical scenario, with the analyzer on.
std::map<std::string, uint64_t> RunCanonicalAnalyzed() {
  SeqScanWorkload wl(
      SeqScanWorkload::Options{.region_pages = 2048, .threads = 2, .passes = 2});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.6;
  opt.seed = 1;
  opt.analysis.enabled = true;  // abort posture: a violation kills the test

  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();

  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  EXPECT_EQ(r.analysis_violations, 0u);
  EXPECT_GT(r.analysis_locks, 0u);

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
  return fp;
}

TEST(AnalysisGoldenTest, AnalyzedCanonicalRunMatchesAnalyzerOffGolden) {
  std::string path = std::string(MAGESIM_GOLDEN_DIR) + "/seqscan_magelib.golden";
  std::map<std::string, uint64_t> golden = LoadGolden(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << path
      << " — generate with MAGESIM_UPDATE_GOLDEN=1 ./build/tests/golden_trace_test";

  std::map<std::string, uint64_t> fp = RunCanonicalAnalyzed();
  EXPECT_EQ(fp["count.analysis.lock_order_edge"], 0u)
      << "the clean canonical scenario must emit no analysis events";
  EXPECT_EQ(fp["count.analysis.violation"], 0u);

  std::string diff = DiffAgainst(golden, fp);
  EXPECT_TRUE(diff.empty())
      << "analyzer-on trace diverged from the analyzer-off golden (" << path
      << ") — the hooks must not perturb simulation behavior:\n" << diff;
}

// Synthetic discipline-bug scenario: deterministic nested acquisitions that
// grow two order edges and close a cycle, plus a double unlock. Pins the
// analysis.* event stream.
std::map<std::string, uint64_t> RunSyntheticBugs() {
  Engine e;
  AnalysisOptions ao;
  ao.abort_on_violation = false;  // capture: we want the events, not an abort
  LockAnalyzer la(ao);
  la.Install();

  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();

  SimMutex a("alpha"), b("beta");
  auto forward = [](SimMutex& a, SimMutex& b) -> Task<> {
    auto g1 = co_await a.Scoped();
    co_await Delay{10};
    auto g2 = co_await b.Scoped();  // edge alpha -> beta
  };
  auto backward = [](SimMutex& a, SimMutex& b) -> Task<> {
    co_await Delay{100};  // strictly after `forward`: no real deadlock
    auto g1 = co_await b.Scoped();
    auto g2 = co_await a.Scoped();  // edge beta -> alpha: closes the cycle
  };
  auto sloppy = [](SimMutex& a) -> Task<> {
    co_await Delay{200};
    co_await a.Lock();
    a.Unlock();
    a.Unlock();  // double unlock
  };
  e.Spawn(forward(a, b));
  e.Spawn(backward(a, b));
  e.Spawn(sloppy(a));
  e.Run();

  std::map<std::string, uint64_t> fp;
  fp["hash"] = hash.hash();
  fp["total"] = hash.total_events();
  fp["count.analysis.lock_order_edge"] =
      hash.count(TraceEventType::kAnalysisLockOrderEdge);
  fp["count.analysis.violation"] = hash.count(TraceEventType::kAnalysisViolation);
  fp["analyzer.order_edges"] = la.order_edges();
  fp["analyzer.violations"] = la.total_violations();
  fp["analyzer.cycles"] = la.count(AnalysisViolationKind::kLockOrderCycle);
  fp["analyzer.double_unlocks"] = la.count(AnalysisViolationKind::kDoubleUnlock);
  return fp;
}

TEST(AnalysisGoldenTest, SyntheticBugScenarioMatchesGolden) {
  std::string path = std::string(MAGESIM_GOLDEN_DIR) + "/analysis_synthetic.golden";
  std::map<std::string, uint64_t> fp = RunSyntheticBugs();

  if (GoldenUpdateRequested()) {
    SaveGolden(path,
               "# Golden fingerprint for the synthetic lock-discipline bug "
               "scenario (analysis.* stream).\n"
               "# Regenerate: MAGESIM_UPDATE_GOLDEN=1 "
               "./build/tests/analysis_golden_test\n",
               fp);
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::map<std::string, uint64_t> golden = LoadGolden(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << path
      << " — generate it with MAGESIM_UPDATE_GOLDEN=1";
  std::string diff = DiffAgainst(golden, fp);
  EXPECT_TRUE(diff.empty())
      << "analysis event stream diverged from golden (" << path << "):\n"
      << diff
      << "If this change is intentional, regenerate with MAGESIM_UPDATE_GOLDEN=1 "
         "and commit the new golden.";
}

}  // namespace
}  // namespace magesim
