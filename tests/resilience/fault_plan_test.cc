// FaultPlan parsing: the compact spec must accept the documented grammar,
// reject malformed plans with a useful error, and round-trip losslessly
// through ToSpec() — the run-report embeds it precisely so a logged plan can
// reproduce the run.
#include "src/resilience/fault_plan.h"

#include <gtest/gtest.h>

namespace magesim {
namespace {

TEST(FaultPlanTest, ParsesCompactSpecWithDefaults) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::Parse(
      "brownout@2ms-6ms:bw=0.2,lat=20us;drop@3ms-4ms:p=0.05,ch=read", &plan, &err))
      << err;
  ASSERT_EQ(plan.windows().size(), 2u);
  const FaultWindow& b = plan.windows()[0];
  EXPECT_EQ(b.kind, FaultKind::kBrownout);
  EXPECT_EQ(b.from, 2 * kMillisecond);
  EXPECT_EQ(b.until, 6 * kMillisecond);
  EXPECT_DOUBLE_EQ(b.bandwidth_factor, 0.2);
  EXPECT_EQ(b.extra_latency_ns, 20 * kMicrosecond);
  const FaultWindow& d = plan.windows()[1];
  EXPECT_EQ(d.kind, FaultKind::kDrop);
  EXPECT_DOUBLE_EQ(d.probability, 0.05);
  EXPECT_EQ(d.channel, FaultChannel::kRead);
  EXPECT_EQ(plan.end_time(), 6 * kMillisecond);
}

TEST(FaultPlanTest, KindDefaultsApply) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(FaultPlan::Parse("brownout@0-1ms;degrade@0-1ms;drop@0-1ms;spike@0-1ms",
                               &plan, &err))
      << err;
  ASSERT_EQ(plan.windows().size(), 4u);
  EXPECT_DOUBLE_EQ(plan.windows()[0].bandwidth_factor, 0.25);  // brownout default
  EXPECT_DOUBLE_EQ(plan.windows()[1].bandwidth_factor, 0.5);   // degrade default
  EXPECT_DOUBLE_EQ(plan.windows()[1].probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.windows()[2].probability, 0.01);       // drop default
  EXPECT_EQ(plan.windows()[3].extra_latency_ns, 20 * kMicrosecond);  // spike default
}

TEST(FaultPlanTest, SpecRoundTripsLosslessly) {
  const char* specs[] = {
      "brownout@2ms-6ms:bw=0.2,lat=20us;drop@3ms-4ms:p=0.05,ch=read",
      "crash@10ms-12ms",
      "degrade@1us-2us:p=0.5,bw=0.125,lat=7ns",
      "spike@0-1s:p=0.001,lat=123us;ipidelay@500ms-800ms:lat=10us",
      // Values equal to kind defaults and "irrelevant" keys must survive too.
      "drop@1ms-2ms:p=0.01,lat=5us",
      "error@1ms-2ms:ch=write",
  };
  for (const char* spec : specs) {
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(FaultPlan::Parse(spec, &plan, &err)) << spec << ": " << err;
    FaultPlan again;
    ASSERT_TRUE(FaultPlan::Parse(plan.ToSpec(), &again, &err))
        << plan.ToSpec() << ": " << err;
    EXPECT_EQ(plan, again) << spec << " -> " << plan.ToSpec();
  }
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  const char* bad[] = {
      "meltdown@1ms-2ms",          // unknown kind
      "drop@2ms-1ms",              // until <= from
      "drop@1ms-1ms",              // empty window
      "drop@1ms-2ms:p=1.5",        // probability out of range
      "drop@1ms-2ms:p=nan",        // nan passes every range check
      "drop@1ms-2ms:p=0x1p-2",     // hex float
      "brownout@1ms-2ms:bw=inf",   // infinite bandwidth factor
      "drop@nan-2ms",              // nan time
      "brownout@1ms-2ms:bw=0",     // zero bandwidth
      "brownout@1ms-2ms:bw=-1",    // negative bandwidth
      "drop@1ms-2ms:ch=sideways",  // unknown channel
      "drop@1ms",                  // missing until
      "drop@abc-2ms",              // bad time
      "drop@1ms-2ms:p",            // missing value
      "@1ms-2ms",                  // missing kind
      "[{\"kind\":\"drop\"}]",     // JSON is not a plan syntax
      "[{\"kind\":\"drop\",\"from\":0,\"until\":\"1ms\"",  // nor truncated JSON
  };
  for (const char* spec : bad) {
    FaultPlan plan;
    std::string err;
    EXPECT_FALSE(FaultPlan::Parse(spec, &plan, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
  // JSON is not a plan syntax: it reads as one spec event with no '@'.
  FaultPlan plan;
  std::string err;
  EXPECT_FALSE(FaultPlan::Parse(R"([{"kind":"drop","from":"1ms","until":"2ms"}])", &plan,
                                &err));
  EXPECT_NE(err.find("missing '@'"), std::string::npos) << err;
}

TEST(FaultPlanTest, TimeUnitsParseAndFormat) {
  SimTime t = 0;
  EXPECT_TRUE(ParseTimeNs("250", &t));
  EXPECT_EQ(t, 250);
  EXPECT_TRUE(ParseTimeNs("12us", &t));
  EXPECT_EQ(t, 12 * kMicrosecond);
  EXPECT_TRUE(ParseTimeNs("3ms", &t));
  EXPECT_EQ(t, 3 * kMillisecond);
  EXPECT_TRUE(ParseTimeNs("2s", &t));
  EXPECT_EQ(t, 2 * kSecond);
  EXPECT_TRUE(ParseTimeNs("1500us", &t));
  EXPECT_EQ(t, 1500 * kMicrosecond);
  EXPECT_FALSE(ParseTimeNs("", &t));
  EXPECT_FALSE(ParseTimeNs("ms", &t));
  EXPECT_FALSE(ParseTimeNs("-5us", &t));
  EXPECT_FALSE(ParseTimeNs("nanus", &t));
  EXPECT_FALSE(ParseTimeNs("infms", &t));
  EXPECT_FALSE(ParseTimeNs("0x10us", &t));
  EXPECT_TRUE(ParseTimeNs(" 1.5 ms ", &t));
  EXPECT_EQ(t, 1500 * kMicrosecond);

  EXPECT_EQ(FormatTimeNs(3 * kMillisecond), "3ms");
  EXPECT_EQ(FormatTimeNs(1500 * kMicrosecond), "1500us");
  EXPECT_EQ(FormatTimeNs(42), "42ns");
  EXPECT_EQ(FormatTimeNs(2 * kSecond), "2s");
  EXPECT_EQ(FormatTimeNs(0), "0ns");
}

TEST(FaultPlanTest, AddKeepsWindowsSortedByStart) {
  FaultPlan plan;
  plan.Add(FaultWindow{.kind = FaultKind::kDrop, .from = 5000, .until = 6000});
  plan.Add(FaultWindow{.kind = FaultKind::kSpike, .from = 1000, .until = 2000});
  plan.Add(FaultWindow{.kind = FaultKind::kCrash, .from = 3000, .until = 9000});
  ASSERT_EQ(plan.windows().size(), 3u);
  EXPECT_EQ(plan.windows()[0].from, 1000);
  EXPECT_EQ(plan.windows()[1].from, 3000);
  EXPECT_EQ(plan.windows()[2].from, 5000);
  EXPECT_EQ(plan.end_time(), 9000);
}

}  // namespace
}  // namespace magesim
