// Unit tests for the memory-cgroup layer: spec parsing, hierarchical
// charge/uncharge accounting, limits, watermark hysteresis, and the
// vpn -> tenant mapping.
#include <gtest/gtest.h>

#include <string>

#include "src/mem/frame_pool.h"
#include "src/tenancy/memcg.h"
#include "src/tenancy/tenant_spec.h"

namespace magesim {
namespace {

TEST(TenantSpecTest, ParsesFullGrammar) {
  TenantSpec s;
  std::string err;
  ASSERT_TRUE(ParseTenantSpec("lat:4:0.4:0.3:latency=seqscan/2,pages=4096,passes=64", &s, &err))
      << err;
  EXPECT_EQ(s.name, "lat");
  EXPECT_EQ(s.weight, 4u);
  EXPECT_DOUBLE_EQ(s.hard_frac, 0.4);
  EXPECT_DOUBLE_EQ(s.soft_frac, 0.3);
  EXPECT_EQ(s.qos, QosClass::kLatency);
  EXPECT_EQ(s.workload, "seqscan");
  EXPECT_EQ(s.threads, 2);
  EXPECT_EQ(s.workload_opts.at("pages"), "4096");
  EXPECT_EQ(s.workload_opts.at("passes"), "64");
}

TEST(TenantSpecTest, SoftLimitIsOptionalAndPercentagesWork) {
  TenantSpec s;
  std::string err;
  ASSERT_TRUE(ParseTenantSpec("bg:1:80:batch=gups", &s, &err)) << err;
  EXPECT_EQ(s.name, "bg");
  EXPECT_DOUBLE_EQ(s.hard_frac, 0.8);  // "80" parses as a percentage
  EXPECT_DOUBLE_EQ(s.soft_frac, 0);    // derived later as 0.9 * hard
  EXPECT_EQ(s.qos, QosClass::kBatch);
  EXPECT_EQ(s.threads, 0);  // workload default
}

TEST(TenantSpecTest, RejectsMalformedSpecs) {
  TenantSpec s;
  std::string err;
  EXPECT_FALSE(ParseTenantSpec("", &s, &err));
  EXPECT_FALSE(ParseTenantSpec("noworkload:1:0.5:normal", &s, &err));
  EXPECT_FALSE(ParseTenantSpec("x:0:0.5:normal=gups", &s, &err));     // zero weight
  EXPECT_FALSE(ParseTenantSpec("x:1:0.5:fancy=gups", &s, &err));      // bad qos
  EXPECT_FALSE(ParseTenantSpec("x:1:nope:normal=gups", &s, &err));    // bad limit
  // Weight and thread count are whole numbers, refused by name otherwise.
  for (const char* bad : {"x:3x:0.5:normal=gups", "x:-2:0.5:normal=gups",
                          "x:4294967296:0.5:normal=gups", "x:1:0.5:normal=gups/2x",
                          "x:1:0.5:normal=gups/0", "x:1:0.5:normal=gups/"}) {
    EXPECT_FALSE(ParseTenantSpec(bad, &s, &err)) << bad;
    EXPECT_NE(err.find("tenant 'x'"), std::string::npos) << err;
  }
}

TEST(TenantSpecTest, ListParsingValidatesUniqueNames) {
  TenancyOptions opts;
  std::string err;
  ASSERT_TRUE(ParseTenancyList("a:1:0.4:normal=gups;b:2:0.5:batch=seqscan", &opts, &err)) << err;
  EXPECT_TRUE(opts.enabled);
  ASSERT_EQ(opts.tenants.size(), 2u);
  EXPECT_EQ(opts.tenants[1].name, "b");

  TenancyOptions dup;
  EXPECT_FALSE(ParseTenancyList("a:1:0.4:normal=gups;a:2:0.5:batch=seqscan", &dup, &err));
}

TEST(MemCgroupTest, ChargesPropagateToRoot) {
  MemCgroup root(-1, "root", nullptr);
  MemCgroup a(0, "a", &root);
  MemCgroup b(1, "b", &root);
  root.Configure(0, 0, 1, QosClass::kNormal, 0, 0);
  a.Configure(100, 90, 1, QosClass::kNormal, 0, 0);
  b.Configure(100, 90, 1, QosClass::kNormal, 0, 0);

  a.Charge(10);
  b.Charge(5);
  EXPECT_EQ(a.usage(), 10u);
  EXPECT_EQ(b.usage(), 5u);
  EXPECT_EQ(root.usage(), 15u);

  a.Uncharge(4);
  EXPECT_EQ(a.usage(), 6u);
  EXPECT_EQ(root.usage(), 11u);
  EXPECT_EQ(a.peak_usage(), 10u);
  EXPECT_EQ(root.peak_usage(), 15u);
}

TEST(MemCgroupTest, HardLimitAndOverageTracking) {
  MemCgroup cg(0, "t", nullptr);
  cg.Configure(10, 8, 1, QosClass::kNormal, 0, 0);
  EXPECT_FALSE(cg.OverHard());
  cg.Charge(10);
  EXPECT_TRUE(cg.OverHard());  // at the limit blocks admission
  cg.Charge(3);                // in-flight faults may still land
  EXPECT_EQ(cg.max_overage(), 3u);
  cg.Uncharge(4);
  EXPECT_FALSE(cg.OverHard());
  EXPECT_EQ(cg.max_overage(), 3u);  // high-water mark sticks
}

TEST(MemCgroupTest, WatermarkHysteresis) {
  MemCgroup cg(0, "t", nullptr);
  // hard=100, low_wm=10, high_wm=20: pressured under 90 pages of headroom...
  cg.Configure(100, 0, 1, QosClass::kNormal, 10, 20);
  cg.Charge(85);
  EXPECT_FALSE(cg.pressured());
  cg.Charge(10);  // headroom 5 < low_wm
  EXPECT_TRUE(cg.pressured());
  EXPECT_TRUE(cg.NeedsEviction());
  cg.Uncharge(10);  // headroom 15: still inside the hysteresis band
  EXPECT_TRUE(cg.pressured());
  cg.Uncharge(10);  // headroom 25 >= high_wm clears it
  EXPECT_FALSE(cg.pressured());
}

TEST(MemCgroupTest, EffectiveSoftLimitClampsToConfigured) {
  MemCgroup cg(0, "t", nullptr);
  cg.Configure(100, 80, 1, QosClass::kNormal, 0, 0);
  EXPECT_EQ(cg.effective_soft_limit(), 80u);
  EXPECT_TRUE(cg.SetEffectiveSoftLimit(50));
  EXPECT_EQ(cg.effective_soft_limit(), 50u);
  EXPECT_TRUE(cg.SetEffectiveSoftLimit(200));  // relax clamps at soft
  EXPECT_EQ(cg.effective_soft_limit(), 80u);
  EXPECT_FALSE(cg.SetEffectiveSoftLimit(80));  // no-op change reports false
  EXPECT_EQ(cg.soft_adjusts(), 2u);

  cg.Charge(60);
  EXPECT_FALSE(cg.NeedsEviction());
  cg.SetEffectiveSoftLimit(40);
  EXPECT_TRUE(cg.NeedsEviction());
}

TenancyOptions ThreeTenants() {
  TenancyOptions opts;
  std::string err;
  // Resolved placement is normally filled by MultiTenantWorkload::Build; the
  // manager only needs vpn_base/vpn_pages here.
  EXPECT_TRUE(ParseTenancyList(
      "a:1:0.25:latency=seqscan;b:2:0.25:normal=seqscan;c:1:0.5:batch=gups", &opts, &err))
      << err;
  uint64_t base = 0;
  for (TenantSpec& s : opts.tenants) {
    s.vpn_base = base;
    s.vpn_pages = 100;
    s.thread_begin = 0;
    s.thread_end = 1;
    base += 100;
  }
  return opts;
}

TEST(TenancyManagerTest, TenantOfMapsVpnWindows) {
  TenancyOptions opts = ThreeTenants();
  TenancyManager mgr(opts, 400, 300, 0.1, 0.2);
  ASSERT_EQ(mgr.num_tenants(), 3);
  EXPECT_EQ(mgr.TenantOf(0), 0);
  EXPECT_EQ(mgr.TenantOf(99), 0);
  EXPECT_EQ(mgr.TenantOf(100), 1);
  EXPECT_EQ(mgr.TenantOf(199), 1);
  EXPECT_EQ(mgr.TenantOf(200), 2);
  EXPECT_EQ(mgr.TenantOf(299), 2);
}

TEST(TenancyManagerTest, ChargeStampsFrameAndTracksBijection) {
  TenancyOptions opts = ThreeTenants();
  TenancyManager mgr(opts, 400, 300, 0.1, 0.2);
  PageFrame f;
  f.pfn = 7;

  EXPECT_EQ(mgr.charged_tenant(150), -1);
  EXPECT_EQ(mgr.Charge(150, &f), 1);
  EXPECT_EQ(f.tenant, 1);
  EXPECT_EQ(mgr.charged_tenant(150), 1);
  EXPECT_EQ(mgr.cgroup(1).usage(), 1u);
  EXPECT_EQ(mgr.root().usage(), 1u);

  // A double charge is tolerated (usage stays sane) but counted for the
  // invariant checker.
  mgr.Charge(150, &f);
  EXPECT_EQ(mgr.double_charges(), 1u);
  EXPECT_EQ(mgr.cgroup(1).usage(), 1u);

  EXPECT_EQ(mgr.Uncharge(150, &f), 1);
  EXPECT_EQ(mgr.charged_tenant(150), -1);
  EXPECT_EQ(mgr.root().usage(), 0u);

  mgr.Uncharge(150, &f);
  EXPECT_EQ(mgr.missing_uncharges(), 1u);
}

TEST(TenancyManagerTest, PrefetchQosGate) {
  TenancyOptions opts = ThreeTenants();
  TenancyManager mgr(opts, 400, 300, 0.1, 0.2);
  // a: latency, hard=100; b: normal; c: batch.
  EXPECT_TRUE(mgr.AllowPrefetch(0, /*global_pressure=*/true));   // latency priority
  EXPECT_TRUE(mgr.AllowPrefetch(2, /*global_pressure=*/false));  // idle batch ok
  EXPECT_FALSE(mgr.AllowPrefetch(2, /*global_pressure=*/true));  // batch yields first

  // Push the latency tenant to its hard limit: even priority stops there.
  for (int i = 0; i < 100; ++i) mgr.Charge(static_cast<uint64_t>(i), nullptr);
  EXPECT_TRUE(mgr.cgroup(0).OverHard());
  EXPECT_FALSE(mgr.AllowPrefetch(0, false));
  EXPECT_GE(mgr.cgroup(0).prefetch_denied(), 1u);

  // Normal tenants are denied once over their effective soft limit.
  for (int i = 100; i < 195; ++i) mgr.Charge(static_cast<uint64_t>(i), nullptr);
  EXPECT_TRUE(mgr.cgroup(1).NeedsEviction());
  EXPECT_FALSE(mgr.AllowPrefetch(1, false));
}

TEST(TenancyManagerTest, EvictionPressureFollowsWaitersAndWatermarks) {
  TenancyOptions opts = ThreeTenants();
  TenancyManager mgr(opts, 400, 300, 0.1, 0.2);
  EXPECT_FALSE(mgr.EvictionPressure());
  mgr.NoteHardWaiter(2, +1);
  EXPECT_TRUE(mgr.EvictionPressure());
  EXPECT_TRUE(mgr.HasHardWaiters());
  mgr.NoteHardWaiter(2, -1);
  EXPECT_FALSE(mgr.EvictionPressure());

  // Fill tenant 0 into its watermark band (hard=100, low_wm=10).
  for (int i = 0; i < 95; ++i) mgr.Charge(static_cast<uint64_t>(i), nullptr);
  EXPECT_TRUE(mgr.EvictionPressure());
}

}  // namespace
}  // namespace magesim
