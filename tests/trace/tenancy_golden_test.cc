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
#include <string>

#include "src/core/farmem.h"
#include "src/tenancy/tenant_spec.h"
#include "src/trace/trace.h"
#include "src/workloads/seqscan.h"
#include "tests/trace/golden_update.h"

namespace magesim {
namespace {

// Canonical scenario: a weight-4 latency scanner with a 40% hard limit next
// to a weight-1 batch scanner allowed 70%, at 50% far memory. Small enough
// to run in about a second, rich enough to exercise charging, tiered victim
// selection, prefetch QoS gating, batch backpressure and soft-limit
// adjustment.
Fingerprint RunCanonical() {
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

  Fingerprint fp;
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

TEST(TenancyGoldenTest, CanonicalTwoTenantScenarioMatchesGolden) {
  CheckGolden("tenancy_synthetic",
              "# Golden fingerprint for the canonical two-tenant scenario.\n"
              "# Regenerate: MAGESIM_UPDATE_GOLDEN=1 ./build/tests/tenancy_golden_test\n",
              RunCanonical());
}

}  // namespace
}  // namespace magesim
