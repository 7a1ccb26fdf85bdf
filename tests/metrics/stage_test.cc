// The stage table's views agree (src/metrics/stage.h):
//  - a demand fault's breakdown categories partition its latency, so the
//    breakdown sums to fault_latency.sum() exactly on every system variant,
//    with sync eviction, dedup waits, prefetch and tenant admission;
//  - with spans at sample_every=1, each category equals the fault tail's
//    critical-path time of the span kinds the table maps to it, and no fault
//    time sits in a kind the table does not map;
//  - turning spans on leaves the breakdown untouched.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "src/core/farmem.h"
#include "src/metrics/stage.h"
#include "src/tenancy/tenant_spec.h"
#include "src/workloads/gups.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

struct StageRun {
  RunResult result;
  KernelStats stats;
  SpanTailSummary fault_tail;
};

// One named configuration; the two-tenant case is the canonical scenario of
// the tenancy and spans goldens.
StageRun RunCase(const std::string& name, bool spans) {
  FarMemoryMachine::Options opt;
  opt.local_mem_ratio = 0.5;
  opt.stats_warmup = 0;  // the breakdown and the histogram see the same faults
  opt.spans.enabled = spans;
  opt.spans.sample_every = 1;
  std::unique_ptr<Workload> wl;
  if (name == "gups_magelib") {
    opt.kernel = MageLibConfig();
    wl = std::make_unique<GupsWorkload>(GupsWorkload::Options{.total_pages = 8192,
                                                              .threads = 8,
                                                              .phase_change_at = 3 * kMillisecond,
                                                              .run_for = 6 * kMillisecond});
  } else if (name == "two_tenant") {
    opt.kernel = MageLibConfig();
    opt.seed = 1;
    std::string err;
    EXPECT_TRUE(ParseTenancyList("lat:4:0.4:latency=seqscan/2,pages=2048,passes=2;"
                                 "bg:1:0.7:batch=seqscan/2,pages=4096,passes=2",
                                 &opt.tenancy, &err))
        << err;
    wl = std::make_unique<SeqScanWorkload>(
        SeqScanWorkload::Options{.region_pages = 64, .threads = 1, .passes = 1});
  } else {
    opt.kernel = ConfigByName(name == "hermit_prefetch" ? "hermit" : name);
    opt.kernel.prefetch = name == "hermit_prefetch";
    wl = std::make_unique<SeqScanWorkload>(SeqScanWorkload::Options{
        .region_pages = 8192, .threads = 16, .passes = 2, .compute_per_page_ns = 100});
  }
  FarMemoryMachine m(opt, *wl);
  StageRun out;
  out.result = m.Run();
  out.stats = m.kernel().stats();
  if (m.spans() != nullptr) out.fault_tail = m.spans()->Tail(SpanKind::kFault);
  return out;
}

SimTime BreakdownSum(const Breakdown& b) {
  SimTime sum = 0;
  for (const auto& [name, e] : b.entries()) sum += e.total_ns;
  return sum;
}

class StagePartitionTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StagePartitionTest, BreakdownSumsToFaultLatency) {
  StageRun r = RunCase(GetParam(), /*spans=*/false);
  const std::string name = GetParam();
  ASSERT_GT(r.result.faults, 0u);
  EXPECT_EQ(BreakdownSum(r.result.fault_breakdown), r.result.fault_latency.sum());
  // Each case exercises the stage it is here for.
  if (name == "hermit" || name == "fastswap") {
    EXPECT_GT(r.stats.sync_evictions, 0u);
  } else if (name == "gups_magelib") {
    EXPECT_GT(r.stats.dedup_waits, 0u);
  } else if (name == "hermit_prefetch") {
    EXPECT_GT(r.stats.prefetched_pages, 0u);
  } else if (name == "two_tenant") {
    EXPECT_EQ(r.result.fault_breakdown.entries().count("tenant"), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Systems, StagePartitionTest,
                         ::testing::Values("ideal", "magelib", "hermit", "fastswap",
                                           "gups_magelib", "hermit_prefetch", "two_tenant"));

class StageViewsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(StageViewsTest, CategoriesEqualSpanCriticalPath) {
  StageRun r = RunCase(GetParam(), /*spans=*/true);
  ASSERT_GT(r.fault_tail.count, 0u);
  EXPECT_EQ(r.fault_tail.latency.sum(), r.result.fault_latency.sum());

  // Span kind -> category, read off the stage table. A kind may back several
  // stages (accounting insert and isolation), but only ever one category.
  std::array<int, kNumSpanKinds> category_of;
  category_of.fill(-1);
  for (const StageInfo& info : kStageTable) {
    if (info.span == kNoSpan) continue;
    int& c = category_of[static_cast<size_t>(info.span)];
    ASSERT_TRUE(c == -1 || c == static_cast<int>(info.category)) << info.name;
    c = static_cast<int>(info.category);
  }
  std::array<SimTime, kNumFaultCategories> from_spans{};
  for (int k = 0; k < kNumSpanKinds; ++k) {
    SimTime ns = r.fault_tail.phase_ns[static_cast<size_t>(k)];
    if (category_of[static_cast<size_t>(k)] < 0) {
      EXPECT_EQ(ns, 0) << SpanKindName(static_cast<SpanKind>(k)) << " is in no category";
      continue;
    }
    from_spans[static_cast<size_t>(category_of[static_cast<size_t>(k)])] += ns;
  }
  for (int c = 0; c < kNumFaultCategories; ++c) {
    EXPECT_EQ(from_spans[static_cast<size_t>(c)],
              r.result.fault_breakdown.at(static_cast<FaultCategory>(c)).total_ns)
        << "category " << c;
  }

  // The breakdown is always on and never depends on the span tracer.
  StageRun plain = RunCase(GetParam(), /*spans=*/false);
  EXPECT_EQ(plain.result.fault_breakdown.entries(), r.result.fault_breakdown.entries());
}

INSTANTIATE_TEST_SUITE_P(Systems, StageViewsTest, ::testing::Values("hermit", "two_tenant"));

}  // namespace
}  // namespace magesim
