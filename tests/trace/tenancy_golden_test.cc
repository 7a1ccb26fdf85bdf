// Golden-trace regression test for the multi-tenant path: a canonical
// two-tenant scenario (protected latency scanner + batch GUPS-style
// neighbor), fingerprinted by trace hash plus per-type event counts — so any
// behavioral change to charging, QoS-tiered victim selection, hard-limit
// admission, or the per-tenant balance controller shows up as a readable
// per-counter diff.
//
// Intentional behavior changes: regenerate with
//   MAGESIM_UPDATE_GOLDEN=1 ./build/tests/tenancy_golden_test
// and commit the updated golden alongside the change that caused it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "src/core/farmem.h"
#include "src/tenancy/tenant_spec.h"
#include "src/trace/trace.h"
#include "src/workloads/seqscan.h"
#include "tests/trace/golden_update.h"

namespace magesim {
namespace {

std::string GoldenPath() {
  return std::string(MAGESIM_GOLDEN_DIR) + "/tenancy_synthetic.golden";
}

// Canonical scenario: a weight-4 latency scanner with a 40% hard limit next
// to a weight-1 batch scanner allowed 70%, at 50% far memory. Small enough
// to run in about a second, rich enough to exercise charging, tiered victim
// selection, prefetch QoS gating, batch backpressure and soft-limit
// adjustment.
std::map<std::string, uint64_t> RunCanonical() {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = 1;
  std::string err;
  EXPECT_TRUE(ParseTenancyList(
      "lat:4:0.4:latency=seqscan/2,pages=2048,passes=2;"
      "bg:1:0.7:batch=seqscan/2,pages=4096,passes=2",
      &opt.tenancy, &err))
      << err;

  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();

  SeqScanWorkload placeholder(
      SeqScanWorkload::Options{.region_pages = 64, .threads = 1, .passes = 1});
  FarMemoryMachine m(opt, placeholder);
  RunResult r = m.Run();
  tracer.Uninstall();

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
  for (size_t t = 0; t < r.tenants.size(); ++t) {
    const TenantRunResult& tr = r.tenants[t];
    std::string pre = "tenant." + tr.name + ".";
    fp[pre + "ops"] = tr.ops;
    fp[pre + "faults"] = tr.faults;
    fp[pre + "evict_selected"] = tr.evict_selected;
    fp[pre + "hard_limit_waits"] = tr.hard_limit_waits;
    fp[pre + "backpressure_waits"] = tr.backpressure_waits;
    fp[pre + "prefetch_denied"] = tr.prefetch_denied;
    fp[pre + "soft_adjusts"] = tr.soft_adjusts;
  }
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

void SaveGolden(const std::string& path, const std::map<std::string, uint64_t>& fp) {
  std::ofstream out(path);
  out << "# Golden fingerprint for the canonical two-tenant scenario.\n"
      << "# Regenerate: MAGESIM_UPDATE_GOLDEN=1 ./build/tests/tenancy_golden_test\n";
  for (const auto& [k, v] : fp) out << k << "=" << v << "\n";
}

TEST(TenancyGoldenTest, CanonicalTwoTenantScenarioMatchesGolden) {
  std::map<std::string, uint64_t> fp = RunCanonical();

  if (GoldenUpdateRequested()) {
    SaveGolden(GoldenPath(), fp);
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }

  std::map<std::string, uint64_t> golden = LoadGolden(GoldenPath());
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << GoldenPath()
      << " — generate it with MAGESIM_UPDATE_GOLDEN=1";

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
      << "trace fingerprint diverged from golden (" << GoldenPath() << "):\n"
      << diff.str()
      << "If this change is intentional, regenerate with MAGESIM_UPDATE_GOLDEN=1 "
         "and commit the new golden.";
}

}  // namespace
}  // namespace magesim
