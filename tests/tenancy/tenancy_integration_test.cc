// End-to-end wiring tests: the MAGESIM_TENANCY environment override, the
// detached (single-tenant) default, tenancy trace events, and the per-tenant
// sections of the metrics registry and JSON run-report.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "src/core/farmem.h"
#include "src/metrics/metrics.h"
#include "src/metrics/run_report.h"
#include "src/trace/trace.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

SeqScanWorkload SmallScan() {
  return SeqScanWorkload(
      SeqScanWorkload::Options{.region_pages = 1024, .threads = 2, .passes = 1});
}

TEST(TenancyIntegrationTest, DetachedByDefault) {
  SeqScanWorkload wl = SmallScan();
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.6;
  FarMemoryMachine m(opt, wl);
  EXPECT_EQ(m.tenancy(), nullptr);
  RunResult r = m.Run();
  EXPECT_TRUE(r.tenants.empty());
  EXPECT_EQ(&m.workload(), &wl);  // workload not replaced
}

TEST(TenancyIntegrationTest, EnvVarAttachesTenancy) {
  ASSERT_EQ(setenv("MAGESIM_TENANCY",
                   "a:1:0.4:latency=seqscan/2,pages=1024,passes=1;"
                   "b:1:0.6:batch=seqscan/2,pages=1024,passes=1",
                   1),
            0);
  SeqScanWorkload wl = SmallScan();
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  FarMemoryMachine m(opt, wl);
  unsetenv("MAGESIM_TENANCY");

  ASSERT_NE(m.tenancy(), nullptr);
  EXPECT_EQ(m.tenancy()->num_tenants(), 2);
  EXPECT_EQ(m.workload().name(), "multi-tenant");
  EXPECT_NE(&m.workload(), &wl);

  RunResult r = m.Run();
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(r.tenants[0].name, "a");
  EXPECT_EQ(r.tenants[0].qos, QosClass::kLatency);
  EXPECT_EQ(r.tenants[1].name, "b");
  EXPECT_GT(r.tenants[0].ops, 0u);
  EXPECT_GT(r.tenants[1].ops, 0u);
}

TEST(TenancyIntegrationTest, BadEnvSpecThrows) {
  ASSERT_EQ(setenv("MAGESIM_TENANCY", "not-a-spec", 1), 0);
  SeqScanWorkload wl = SmallScan();
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  EXPECT_THROW(FarMemoryMachine(opt, wl), std::invalid_argument);
  unsetenv("MAGESIM_TENANCY");
}

TEST(TenancyIntegrationTest, EmitsTenancyTraceEvents) {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  std::string err;
  ASSERT_TRUE(ParseTenancyList(
      "a:1:0.4:normal=seqscan/2,pages=2048,passes=2;"
      "b:1:0.6:batch=seqscan/2,pages=2048,passes=2",
      &opt.tenancy, &err))
      << err;

  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();
  SeqScanWorkload wl = SmallScan();
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  tracer.Uninstall();

  EXPECT_GT(r.faults, 0u);
  EXPECT_GT(hash.count(TraceEventType::kTenantCharge), 0u);
  EXPECT_GT(hash.count(TraceEventType::kTenantUncharge), 0u);
  EXPECT_GT(hash.count(TraceEventType::kTenantEvictSelect), 0u);
}

TEST(TenancyIntegrationTest, RunReportCarriesPerTenantSection) {
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.metrics.enabled = true;
  std::string err;
  ASSERT_TRUE(ParseTenancyList(
      "lat:2:0.4:latency=seqscan/2,pages=1024,passes=1;"
      "bg:1:0.6:batch=seqscan/2,pages=1024,passes=1",
      &opt.tenancy, &err))
      << err;

  SeqScanWorkload wl = SmallScan();
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  ASSERT_EQ(r.tenants.size(), 2u);

  const std::string& json = m.run_report_json();
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("\"tenancy\""), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
  EXPECT_NE(json.find("\"bg\""), std::string::npos);
  EXPECT_NE(json.find("\"qos\":\"latency\""), std::string::npos);

  ASSERT_NE(m.metrics(), nullptr);
  // Per-tenant counters land in the registry under tenancy.<name>.*.
  EXPECT_TRUE(m.metrics()->Has("tenancy.lat.faults"));
  EXPECT_TRUE(m.metrics()->Has("tenancy.bg.ops"));
}

}  // namespace
}  // namespace magesim
