// Integration tests for span tracing on full machine runs:
//  - spans_synthetic.golden pins the span stream (fingerprint + per-kind
//    counts) of the canonical two-tenant scenario;
//  - spans_sync_evict.golden pins it for a Fastswap write scan under a
//    drop/error window: the sequential evictor's and sync eviction's batches
//    and the retrying inline writeback;
//  - two same-seed runs produce identical span streams (deterministic ids);
//  - enabling spans does not perturb the simulation: the event-trace hash is
//    byte-identical with spans on and off;
//  - a brownout chaos run attributes the latency tenant's p99 band majority
//    to the resilience phases (retry/backoff/breaker), while the p50 band
//    stays dominated by the healthy read path;
//  - the run-report `tail` section carries the attribution end to end.
//
// Intentional behavior changes: regenerate with
//   MAGESIM_UPDATE_GOLDEN=1 ./build/tests/spans_integration_test
// and commit the updated goldens.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/farmem.h"
#include "src/paging/kernels.h"
#include "src/tenancy/tenant_spec.h"
#include "src/trace/trace.h"
#include "src/workloads/seqscan.h"
#include "tests/trace/golden_update.h"

namespace magesim {
namespace {

constexpr const char* kTenants =
    "lat:4:0.4:latency=seqscan/2,pages=2048,passes=2;"
    "bg:1:0.7:batch=seqscan/2,pages=4096,passes=2";

struct SpanRun {
  std::string fingerprint;
  uint64_t trace_hash = 0;
  RunResult result;
  std::string report_json;
  SpanTailSummary fault_tail;
  SpanTailSummary lat_tenant_tail;
};

// The canonical two-tenant scenario from tenancy_golden_test, optionally
// with spans and/or a fault plan. Returns the span fingerprint (empty when
// spans are off) and the full event-trace hash.
SpanRun RunCanonical(bool spans, const std::string& fault_plan = "") {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = 1;
  opt.fault_plan = fault_plan;
  opt.spans.enabled = spans;
  opt.spans.sample_every = 1;   // full fidelity: goldens pin the whole stream
  opt.metrics.enabled = spans;  // exercise the report `tail` section too
  std::string err;
  EXPECT_TRUE(ParseTenancyList(kTenants, &opt.tenancy, &err)) << err;

  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();

  SeqScanWorkload placeholder(
      SeqScanWorkload::Options{.region_pages = 64, .threads = 1, .passes = 1});
  FarMemoryMachine m(opt, placeholder);
  SpanRun out;
  out.result = m.Run();
  tracer.Uninstall();

  out.trace_hash = hash.hash();
  if (m.spans() != nullptr) {
    out.fingerprint = m.spans()->FingerprintSummary();
    out.fault_tail = m.spans()->Tail(SpanKind::kFault);
    out.lat_tenant_tail = m.spans()->TenantTail(0);  // spec order: lat first
    out.report_json = m.run_report_json();
  }
  return out;
}

// Compares `fingerprint` with the golden `name`, or rewrites the golden (and
// skips) under MAGESIM_UPDATE_GOLDEN.
void CheckSpansGolden(const std::string& name, const std::string& what,
                      const std::string& fingerprint) {
  ASSERT_FALSE(fingerprint.empty());
  const std::string path = GoldenPath(name);
  if (GoldenUpdateRequested()) {
    std::ofstream out(path);
    out << "# Span-stream fingerprint for the " << what << " scenario.\n"
        << "# Regenerate: MAGESIM_UPDATE_GOLDEN=1 "
           "./build/tests/spans_integration_test\n"
        << fingerprint << "\n";
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — generate it with MAGESIM_UPDATE_GOLDEN=1";
  std::string line, want;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') want = line;
  }
  EXPECT_EQ(fingerprint, want)
      << "span stream diverged from golden (" << path << ").\n"
      << "If this change is intentional, regenerate with "
         "MAGESIM_UPDATE_GOLDEN=1 and commit the new golden.";
}

TEST(SpansGoldenTest, CanonicalScenarioMatchesGolden) {
  CheckSpansGolden("spans_synthetic", "canonical two-tenant",
                   RunCanonical(/*spans=*/true).fingerprint);
}

// A Fastswap write scan (one sequential evictor, eager sync eviction) under a
// drop window and an error window: the golden pins the span stream of the
// sequential batch, run both by the evictor and inline by faults, and of its
// retrying writeback.
TEST(SpansGoldenTest, SyncEvictionUnderRetriesMatchesGolden) {
  SeqScanWorkload wl(SeqScanWorkload::Options{
      .region_pages = 2048, .threads = 2, .passes = 2, .write = true});
  FarMemoryMachine::Options opt;
  opt.kernel = FastswapConfig();
  opt.local_mem_ratio = 0.6;
  opt.seed = 1;
  opt.fault_plan = "drop@1ms-2ms:p=0.05;error@3ms-4ms:p=0.1";
  opt.spans.enabled = true;
  opt.spans.sample_every = 1;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  ASSERT_GT(r.sync_evictions, 0u) << "no batch ran inline in a fault";
  ASSERT_GT(r.rdma_retries, 0u) << "fault plan injected nothing";
  CheckSpansGolden("spans_sync_evict", "fastswap write scan under drops/errors",
                   m.spans()->FingerprintSummary());
}

TEST(SpansGoldenTest, SameSeedRunsProduceIdenticalSpanStreams) {
  SpanRun a = RunCanonical(/*spans=*/true);
  SpanRun b = RunCanonical(/*spans=*/true);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
}

TEST(SpansGoldenTest, EnablingSpansDoesNotPerturbTheSimulation) {
  SpanRun off = RunCanonical(/*spans=*/false);
  SpanRun on = RunCanonical(/*spans=*/true);
  EXPECT_EQ(off.trace_hash, on.trace_hash)
      << "span instrumentation changed simulation behavior";
  EXPECT_EQ(off.result.faults, on.result.faults);
  EXPECT_EQ(off.result.total_ops, on.result.total_ops);
  EXPECT_DOUBLE_EQ(off.result.sim_seconds, on.result.sim_seconds);
}

// Sum of the resilience-phase share (retry attempts, backoff sleeps,
// breaker-admission parks) in one band.
double ResilienceShare(const SpanTailBand& band) {
  return band.Share(SpanKind::kRdmaRetry) + band.Share(SpanKind::kRetryBackoff) +
         band.Share(SpanKind::kBreakerWait);
}

TEST(SpansChaosTest, BrownoutAttributesLatencyTenantP99ToResiliencePhases) {
  // A heavy drop window covering the middle of the run: most faults stay
  // healthy (p50 dominated by the clean rdma read), but the tail is made of
  // ops that hit the drop window and paid deadline + retry + backoff.
  SpanRun r = RunCanonical(/*spans=*/true, "drop@2ms-8ms:p=0.5");
  ASSERT_GT(r.result.rdma_retries, 0u) << "fault plan injected nothing";

  const SpanTailSummary& lat = r.lat_tenant_tail;
  ASSERT_GT(lat.count, 0u);
  const SpanTailBand& p50 = lat.bands[0];
  const SpanTailBand& p99 = lat.bands[2];
  ASSERT_GT(p99.ops, 0u);

  // The named resilience phases must own the majority of the latency
  // tenant's p99 band and be a strictly larger share than at p50.
  EXPECT_GT(ResilienceShare(p99), 0.5)
      << "p99 band not attributed to retry/backoff/breaker";
  EXPECT_GT(ResilienceShare(p99), ResilienceShare(p50) + 0.25);

  // End-to-end: the run report's `tail` section carries the same story.
  EXPECT_NE(r.report_json.find("\"tail\":"), std::string::npos);
  EXPECT_NE(r.report_json.find("\"retry_backoff\""), std::string::npos);
  EXPECT_NE(r.report_json.find("\"tenants\":"), std::string::npos);
}

TEST(SpansReportTest, TailSectionShapesAndCounters) {
  SpanRun r = RunCanonical(/*spans=*/true);
  EXPECT_EQ(r.fault_tail.count, r.result.faults);
  // Every fault nanosecond is attributed: overall phase sum == latency sum.
  SimTime phase_total = 0;
  for (SimTime v : r.fault_tail.phase_ns) phase_total += v;
  EXPECT_EQ(phase_total, r.fault_tail.latency.sum());
  for (const char* key :
       {"\"tail\":", "\"ops\":", "\"fault\":", "\"bands\":", "\"p999\":",
        "\"slowest\":", "\"lat\":", "\"bg\":"}) {
    EXPECT_NE(r.report_json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace magesim
