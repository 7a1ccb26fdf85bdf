// Tests for the by-name workload factory and the multi-tenant composite
// workload built on top of it.
#include <gtest/gtest.h>

#include <string>

#include "src/tenancy/tenant_spec.h"
#include "src/workloads/multi_tenant.h"
#include "src/workloads/registry.h"

namespace magesim {
namespace {

TEST(WorkloadRegistryTest, ListIsSortedAndCoversTheCliNames) {
  const std::vector<WorkloadInfo>& infos = ListWorkloads();
  ASSERT_FALSE(infos.empty());
  for (size_t i = 1; i < infos.size(); ++i) {
    EXPECT_LT(infos[i - 1].name, infos[i].name);
  }
  auto has = [&](const std::string& name) {
    for (const WorkloadInfo& w : infos) {
      if (w.name == name) return true;
    }
    return false;
  };
  for (const char* name : {"pagerank", "xsbench", "seqscan", "gups", "metis", "memcached",
                           "zipf-trace", "mixed-trace", "trace", "dataframe"}) {
    EXPECT_TRUE(has(name)) << name;
  }
}

TEST(WorkloadRegistryTest, BuildsWithDefaultsAndThreadCount) {
  WorkloadParams params;
  params.threads = 3;
  std::string err;
  std::unique_ptr<Workload> wl = MakeWorkload("seqscan", params, &err);
  ASSERT_NE(wl, nullptr) << err;
  EXPECT_EQ(wl->name(), "seqscan");
  EXPECT_EQ(wl->num_threads(), 3);
  EXPECT_EQ(wl->wss_pages(), 32u * 1024u);  // historical CLI default
}

TEST(WorkloadRegistryTest, AppliesOptionOverrides) {
  WorkloadParams params;
  params.threads = 2;
  params.opts = {{"pages", "4096"}, {"passes", "8"}};
  std::string err;
  std::unique_ptr<Workload> wl = MakeWorkload("seqscan", params, &err);
  ASSERT_NE(wl, nullptr) << err;
  EXPECT_EQ(wl->wss_pages(), 4096u);
}

TEST(WorkloadRegistryTest, RejectsUnknownNamesKeysAndValues) {
  WorkloadParams params;
  std::string err;
  EXPECT_EQ(MakeWorkload("frobnicate", params, &err), nullptr);
  EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;

  params.opts = {{"pagez", "4096"}};  // typo'd key must not run silently
  EXPECT_EQ(MakeWorkload("seqscan", params, &err), nullptr);
  EXPECT_NE(err.find("pagez"), std::string::npos) << err;

  params.opts = {{"pages", "many"}};
  EXPECT_EQ(MakeWorkload("seqscan", params, &err), nullptr);
  EXPECT_NE(err.find("many"), std::string::npos) << err;
}

TEST(WorkloadRegistryTest, RejectsSignedOrOversizedNumbers) {
  WorkloadParams params;
  std::string err;
  // strtoull alone would wrap "-1" to 2^64 - 1, and an int option would
  // truncate anything above INT_MAX.
  params.opts = {{"scale", "-1"}};
  EXPECT_EQ(MakeWorkload("pagerank", params, &err), nullptr);
  EXPECT_NE(err.find("option 'scale'"), std::string::npos) << err;

  params.opts = {{"scale", "4294967306"}};
  EXPECT_EQ(MakeWorkload("pagerank", params, &err), nullptr);
  EXPECT_NE(err.find("option 'scale'"), std::string::npos) << err;

  params.opts = {{"pages", "+5"}};
  EXPECT_EQ(MakeWorkload("seqscan", params, &err), nullptr);
  EXPECT_NE(err.find("option 'pages'"), std::string::npos) << err;
}

TEST(WorkloadRegistryTest, ConstructorRejectionsBecomeErrors) {
  WorkloadParams params;
  params.threads = 2;
  std::string err;
  params.opts = {{"scale", "40"}};
  EXPECT_EQ(MakeWorkload("pagerank", params, &err), nullptr);
  EXPECT_NE(err.find("scale=40"), std::string::npos) << err;

  params.opts = {{"keys", "0"}};
  EXPECT_EQ(MakeWorkload("memcached", params, &err), nullptr);
  EXPECT_NE(err.find("num_keys=0"), std::string::npos) << err;
}

TEST(WorkloadRegistryTest, TraceRequiresAFile) {
  WorkloadParams params;
  std::string err;
  EXPECT_EQ(MakeWorkload("trace", params, &err), nullptr);
  EXPECT_FALSE(err.empty());
}

std::vector<TenantSpec> TwoSpecs() {
  TenancyOptions opts;
  std::string err;
  EXPECT_TRUE(ParseTenancyList(
      "lat:4:0.4:latency=seqscan/2,pages=1024,passes=1;"
      "bg:1:0.8:batch=seqscan/3,pages=2048,passes=1",
      &opts, &err))
      << err;
  return opts.tenants;
}

TEST(MultiTenantWorkloadTest, ResolvesDisjointPlacement) {
  std::vector<TenantSpec> specs = TwoSpecs();
  std::string err;
  std::unique_ptr<MultiTenantWorkload> wl = MultiTenantWorkload::Build(&specs, &err);
  ASSERT_NE(wl, nullptr) << err;

  EXPECT_EQ(wl->num_tenants(), 2);
  EXPECT_EQ(wl->wss_pages(), 1024u + 2048u);
  EXPECT_EQ(wl->num_threads(), 5);

  // Tenant 0 owns the first vpn window and the first thread block; tenant 1
  // follows contiguously (prefix sums).
  EXPECT_EQ(specs[0].vpn_base, 0u);
  EXPECT_EQ(specs[0].vpn_pages, 1024u);
  EXPECT_EQ(specs[0].thread_begin, 0);
  EXPECT_EQ(specs[0].thread_end, 2);
  EXPECT_EQ(specs[1].vpn_base, 1024u);
  EXPECT_EQ(specs[1].vpn_pages, 2048u);
  EXPECT_EQ(specs[1].thread_begin, 2);
  EXPECT_EQ(specs[1].thread_end, 5);
  EXPECT_TRUE(specs[0].resolved());
  EXPECT_TRUE(specs[1].resolved());
}

TEST(MultiTenantWorkloadTest, PropagatesRegistryErrors) {
  std::vector<TenantSpec> specs = TwoSpecs();
  specs[1].workload = "frobnicate";
  std::string err;
  EXPECT_EQ(MultiTenantWorkload::Build(&specs, &err), nullptr);
  EXPECT_NE(err.find("bg"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;
}

TEST(MultiTenantWorkloadTest, RejectsEmptyTenantList) {
  std::vector<TenantSpec> none;
  std::string err;
  EXPECT_EQ(MultiTenantWorkload::Build(&none, &err), nullptr);
}

}  // namespace
}  // namespace magesim
