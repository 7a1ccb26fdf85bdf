// Unit tests for the span tracer: critical-path attribution on hand-built
// span trees, Histogram latency-slot helpers, tracer mechanics (root ops,
// leaves, open-root accounting, causal registries), band aggregation, and
// the exemplar reservoir. Tree tests run without an engine; tests that need
// real latencies drive a small Engine with Delays.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "src/sim/engine.h"
#include "src/sim/slab_alloc.h"
#include "src/sim/stats.h"
#include "src/sim/task.h"
#include "src/spans/spans.h"

namespace magesim {
namespace {

SimTime Phase(const std::array<SimTime, kNumSpanKinds>& p, SpanKind k) {
  return p[static_cast<size_t>(k)];
}

// Convenience: stack-built span node.
SpanRecord Node(uint64_t id, SpanKind kind, SimTime t0, SimTime t1) {
  SpanRecord r;
  r.id = id;
  r.kind = kind;
  r.t0 = t0;
  r.t1 = t1;
  return r;
}

void Attach(SpanRecord* parent, SpanRecord* child) {
  child->parent = parent;
  if (parent->last_child == nullptr) {
    parent->first_child = parent->last_child = child;
  } else {
    parent->last_child->next_sibling = child;
    parent->last_child = child;
  }
}

TEST(CriticalPathTest, LeafOnlyChargesOwnKind) {
  SpanRecord root = Node(1, SpanKind::kFault, 100, 400);
  std::array<SimTime, kNumSpanKinds> out{};
  ComputeCriticalPath(&root, out.data());
  EXPECT_EQ(Phase(out, SpanKind::kFault), 300);
}

TEST(CriticalPathTest, GapsAndTailGoToParent) {
  // fault [0,100]: entry [0,10], rdma_read [30,80]. Gap 10-30 and tail
  // 80-100 belong to the fault itself.
  SpanRecord root = Node(1, SpanKind::kFault, 0, 100);
  SpanRecord entry = Node(2, SpanKind::kEntry, 0, 10);
  SpanRecord read = Node(3, SpanKind::kRdmaRead, 30, 80);
  Attach(&root, &entry);
  Attach(&root, &read);
  std::array<SimTime, kNumSpanKinds> out{};
  ComputeCriticalPath(&root, out.data());
  EXPECT_EQ(Phase(out, SpanKind::kEntry), 10);
  EXPECT_EQ(Phase(out, SpanKind::kRdmaRead), 50);
  EXPECT_EQ(Phase(out, SpanKind::kFault), 40);
}

TEST(CriticalPathTest, EveryNanosecondAttributedExactlyOnce) {
  SpanRecord root = Node(1, SpanKind::kFault, 17, 1234);
  SpanRecord a = Node(2, SpanKind::kAlloc, 20, 300);
  SpanRecord b = Node(3, SpanKind::kRdmaRead, 300, 900);
  SpanRecord c = Node(4, SpanKind::kAccounting, 905, 1200);
  Attach(&root, &a);
  Attach(&root, &b);
  Attach(&root, &c);
  std::array<SimTime, kNumSpanKinds> out{};
  ComputeCriticalPath(&root, out.data());
  SimTime total = 0;
  for (SimTime v : out) total += v;
  EXPECT_EQ(total, root.t1 - root.t0);
}

TEST(CriticalPathTest, ConcurrentSiblingSkippedAndOverlapClipped) {
  // parent [0,100]: c1 [10,50]; c2 [20,40] fully covered by c1 (skipped);
  // c3 [30,80] overlaps the cursor — only its remainder [50,80] counts,
  // charged to c3's kind without recursing into its children.
  SpanRecord root = Node(1, SpanKind::kEvictBatch, 0, 100);
  SpanRecord c1 = Node(2, SpanKind::kUnmapVictims, 10, 50);
  SpanRecord c2 = Node(3, SpanKind::kAccounting, 20, 40);
  SpanRecord c3 = Node(4, SpanKind::kShootdownWait, 30, 80);
  SpanRecord c3kid = Node(5, SpanKind::kIpiDeliver, 35, 75);
  Attach(&root, &c1);
  Attach(&root, &c2);
  Attach(&root, &c3);
  Attach(&c3, &c3kid);
  std::array<SimTime, kNumSpanKinds> out{};
  ComputeCriticalPath(&root, out.data());
  EXPECT_EQ(Phase(out, SpanKind::kUnmapVictims), 40);
  EXPECT_EQ(Phase(out, SpanKind::kAccounting), 0);      // concurrent: skipped
  EXPECT_EQ(Phase(out, SpanKind::kShootdownWait), 30);  // clipped [50,80]
  EXPECT_EQ(Phase(out, SpanKind::kIpiDeliver), 0);      // no recursion when clipped
  EXPECT_EQ(Phase(out, SpanKind::kEvictBatch), 30);     // gap [0,10] + tail [80,100]
}

TEST(CriticalPathTest, RecursesIntoNonOverlappedChild) {
  SpanRecord root = Node(1, SpanKind::kFault, 0, 100);
  SpanRecord batch = Node(2, SpanKind::kEvictBatch, 10, 90);
  SpanRecord write = Node(3, SpanKind::kRdmaWrite, 20, 80);
  Attach(&root, &batch);
  Attach(&batch, &write);
  std::array<SimTime, kNumSpanKinds> out{};
  ComputeCriticalPath(&root, out.data());
  EXPECT_EQ(Phase(out, SpanKind::kFault), 20);
  EXPECT_EQ(Phase(out, SpanKind::kEvictBatch), 20);
  EXPECT_EQ(Phase(out, SpanKind::kRdmaWrite), 60);
}

TEST(CriticalPathTest, BlockedOnEvictionShape) {
  // The headline causal shape: a fault parks in free_wait until an eviction
  // batch publishes headroom. The wait carries the link; the attribution
  // charges the park to free_wait on the fault's own critical path.
  SpanRecord root = Node(10, SpanKind::kFault, 0, 200);
  SpanRecord entry = Node(11, SpanKind::kEntry, 0, 5);
  SpanRecord wait = Node(12, SpanKind::kFreeWait, 5, 120);
  wait.link = 99;  // the eviction batch's span id
  wait.link_t = 118;
  SpanRecord alloc = Node(13, SpanKind::kAlloc, 120, 130);
  SpanRecord read = Node(14, SpanKind::kRdmaRead, 130, 190);
  Attach(&root, &entry);
  Attach(&root, &wait);
  Attach(&root, &alloc);
  Attach(&root, &read);
  std::array<SimTime, kNumSpanKinds> out{};
  ComputeCriticalPath(&root, out.data());
  EXPECT_EQ(Phase(out, SpanKind::kFreeWait), 115);
  EXPECT_EQ(Phase(out, SpanKind::kRdmaRead), 60);
  EXPECT_EQ(Phase(out, SpanKind::kFault), 10);  // tail [190,200]
  EXPECT_EQ(wait.link, 99u);
}

TEST(CriticalPathTest, ChildrenSortedByStartNotInsertionOrder) {
  SpanRecord root = Node(1, SpanKind::kFault, 0, 100);
  SpanRecord late = Node(2, SpanKind::kAccounting, 60, 90);
  SpanRecord early = Node(3, SpanKind::kEntry, 0, 50);
  Attach(&root, &late);  // inserted out of order
  Attach(&root, &early);
  std::array<SimTime, kNumSpanKinds> out{};
  ComputeCriticalPath(&root, out.data());
  EXPECT_EQ(Phase(out, SpanKind::kEntry), 50);
  EXPECT_EQ(Phase(out, SpanKind::kAccounting), 30);
  EXPECT_EQ(Phase(out, SpanKind::kFault), 20);
}

TEST(HistogramSlotTest, SlotForAndLowerBoundRoundTrip) {
  for (int64_t v : {0LL, 1LL, 100LL, 4096LL, 70000LL, 1000000LL, 123456789LL}) {
    int slot = Histogram::SlotFor(v);
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, Histogram::kNumSlots);
    EXPECT_LE(Histogram::SlotLowerBound(slot), v);
    if (slot + 1 < Histogram::kNumSlots) {
      EXPECT_GT(Histogram::SlotLowerBound(slot + 1), v);
    }
  }
}

TEST(HistogramSlotTest, SlotsAreMonotonic) {
  int64_t prev = Histogram::SlotLowerBound(0);
  for (int s = 1; s < Histogram::kNumSlots; ++s) {
    int64_t b = Histogram::SlotLowerBound(s);
    EXPECT_GE(b, prev) << "slot " << s;
    prev = b;
  }
}

TEST(HistogramSlotTest, P999AndSummary) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<uint64_t>(i) * 1000);
  double p999 = h.Percentile(99.9);
  EXPECT_GE(p999, 990000.0);
  EXPECT_LE(p999, 1000000.0);
  EXPECT_NE(h.Summary().find("p99.9="), std::string::npos);
}

TEST(SpanTracerTest, DisabledHooksAreNoOps) {
  ASSERT_EQ(SpanTracer::Get(), nullptr);
  SpanEndDetached(SpanHandle{});
  EXPECT_EQ(SpanLeafUnder(SpanHandle{}, SpanKind::kAlloc, 0, 1, 0, 1), 0u);
}

Task<> OneFault(SpanTracer& st, uint64_t page, SimTime read_ns, SimTime tail_ns) {
  SpanHandle root = st.BeginDetached(SpanKind::kFault, /*actor=*/0, page);
  SimTime r0 = Engine::current().now();
  co_await Delay{read_ns};
  st.LeafUnder(root, SpanKind::kRdmaRead, r0, Engine::current().now(), 0, page);
  co_await Delay{tail_ns};
  st.EndDetached(root);
}

TEST(SpanTracerTest, RootOpFinalizesIntoAggregates) {
  SpanTracer st(SpanTracer::Options{});
  st.Install();
  Engine eng;
  eng.Spawn(OneFault(st, 42, /*read_ns=*/70, /*tail_ns=*/30));
  eng.Run();
  st.Uninstall();

  EXPECT_EQ(st.ops(SpanKind::kFault), 1u);
  EXPECT_EQ(st.spans_total(), 2u);
  EXPECT_EQ(st.open_spans(), 0u);
  SpanTailSummary tail = st.Tail(SpanKind::kFault);
  EXPECT_EQ(tail.count, 1u);
  EXPECT_EQ(Phase(tail.phase_ns, SpanKind::kRdmaRead), 70);
  EXPECT_EQ(Phase(tail.phase_ns, SpanKind::kFault), 30);
  EXPECT_EQ(tail.latency.max(), 100);
}

Task<> BackpressurePause(SpanTracer& st) {
  SimTime b0 = Engine::current().now();
  co_await Delay{25};
  // The wait is the operation: the leaf becomes its own root op.
  st.Leaf(SpanKind::kBackpressure, b0, /*actor=*/1, kTraceNoPage);
}

TEST(SpanTracerTest, LeafWithNoOpenSpanBecomesItsOwnRoot) {
  SpanTracer st(SpanTracer::Options{});
  st.Install();
  Engine eng;
  eng.Spawn(BackpressurePause(st));
  eng.Run();
  st.Uninstall();
  EXPECT_EQ(st.ops(SpanKind::kBackpressure), 1u);
  EXPECT_EQ(st.open_spans(), 0u);
  EXPECT_EQ(st.Tail(SpanKind::kBackpressure).latency.max(), 25);
}

TEST(SpanTracerTest, ZeroDurationLeavesSkipped) {
  // No engine: now == 0, so a leaf "ending now" at t0=0 has zero duration.
  SpanTracer st(SpanTracer::Options{});
  st.Install();
  SpanHandle root = st.BeginDetached(SpanKind::kFault, 0, 7);
  EXPECT_EQ(st.Leaf(SpanKind::kBackpressure, 0, 0, 7), 0u);
  EXPECT_EQ(st.LeafUnder(root, SpanKind::kAlloc, 20, 20, 0, 7), 0u);
  st.EndDetached(root);
  st.Uninstall();
  EXPECT_EQ(st.spans_total(), 1u);  // just the root
}

TEST(SpanTracerTest, OpenRootsAreCountedAndFreedAtTeardown) {
  auto live_blocks = [] {
    const SlabStats& s = SlabAllocator::stats();
    return s.allocs - s.frees;
  };
  const uint64_t baseline = live_blocks();
  {
    SpanTracer st(SpanTracer::Options{});
    st.Install();
    SpanHandle a = st.BeginDetached(SpanKind::kFault, 0, 1);
    SpanHandle b = st.BeginDetached(SpanKind::kEvictBatch, 1, kTraceNoPage);
    SpanHandle c = st.BeginDetached(SpanKind::kPrefetch, 2, 3);
    SpanHandle child = st.BeginChild(b, SpanKind::kRdmaWrite, 1, kTraceNoPage);
    // Enough leaves to spill the batch past its first arena block.
    for (SimTime t = 0; t < 64; ++t) {
      st.LeafUnder(b, SpanKind::kUnmapVictims, t, t + 1, 1, kTraceNoPage);
    }
    EXPECT_EQ(st.open_spans(), 3u);
    st.EndDetached(child);  // a child closing leaves its op open
    EXPECT_EQ(st.open_spans(), 3u);
    st.EndDetached(a);  // swap-removes: c takes a's slot
    st.EndDetached(c);
    EXPECT_EQ(st.open_spans(), 1u);
    EXPECT_EQ(st.ops(SpanKind::kFault), 1u);
    EXPECT_EQ(st.ops(SpanKind::kEvictBatch), 0u);
    EXPECT_GT(live_blocks(), baseline);  // the open batch's arena chain
    st.Uninstall();
  }
  EXPECT_EQ(live_blocks(), baseline);
}

TEST(SpanTracerTest, CausalRegistriesCaptureAndLink) {
  SpanTracer st(SpanTracer::Options{});
  st.Install();
  SpanHandle batch = st.BeginDetached(SpanKind::kEvictBatch, 2, kTraceNoPage);
  uint64_t batch_id = batch.rec->id;
  st.NoteHeadroomPublisher(batch);
  st.NoteTenantRelease(5, batch);
  EXPECT_EQ(st.headroom_publisher().id, batch_id);
  EXPECT_EQ(st.tenant_release(5).id, batch_id);
  EXPECT_EQ(st.tenant_release(4).id, 0u);  // untouched tenant: no link
  st.EndDetached(batch);

  SpanHandle fault = st.BeginDetached(SpanKind::kFault, 0, 11);
  uint64_t leaf = st.LeafUnder(fault, SpanKind::kFreeWait, 0, 30, 0, 11,
                               st.headroom_publisher());
  EXPECT_NE(leaf, 0u);
  EXPECT_EQ(fault.rec->last_child->link, batch_id);
  st.EndDetached(fault);
  st.Uninstall();
  EXPECT_EQ(st.links_total(), 1u);
}

TEST(SpanTracerTest, PageSpanRegistryTracksInFlightFaults) {
  SpanTracer st(SpanTracer::Options{});
  st.Install();
  SpanHandle fault = st.BeginDetached(SpanKind::kFault, 0, 77);
  st.NotePageSpan(77, fault);
  EXPECT_EQ(st.page_span(77).id, fault.rec->id);
  st.ErasePageSpan(77);
  EXPECT_EQ(st.page_span(77).id, 0u);
  st.EndDetached(fault);
  st.Uninstall();
}

TEST(SpanTracerTest, BreakerRegistryPerChannel) {
  SpanTracer st(SpanTracer::Options{});
  st.Install();
  SpanHandle op = st.BeginDetached(SpanKind::kFault, 1, 3);
  st.NoteBreakerOpen(1, op);
  EXPECT_EQ(st.breaker_open(1).id, op.rec->id);
  EXPECT_EQ(st.breaker_open(0).id, 0u);
  st.EndDetached(op);
  st.Uninstall();
}

Task<> TimedFaults(SpanTracer& st, std::vector<SimTime> latencies) {
  for (SimTime lat : latencies) {
    SpanHandle h = st.BeginDetached(SpanKind::kFault, 0, 1);
    co_await Delay{lat};
    st.EndDetached(h);
  }
}

TEST(SpanTracerTest, ExemplarReservoirKeepsWorstK) {
  SpanTracer st(SpanTracer::Options{.out_path = "", .top_k = 2});
  st.Install();
  Engine eng;
  eng.Spawn(TimedFaults(st, {50, 300, 100, 700, 20}));
  eng.Run();
  st.Uninstall();
  const std::vector<SpanExemplar>& ex = st.Exemplars(SpanKind::kFault);
  ASSERT_EQ(ex.size(), 2u);
  EXPECT_EQ(ex[0].latency_ns, 700);
  EXPECT_EQ(ex[1].latency_ns, 300);
}

TEST(SpanTracerTest, DeterministicIdsAndFingerprint) {
  auto run = [] {
    SpanTracer st(SpanTracer::Options{});
    st.Install();
    Engine eng;
    eng.Spawn(TimedFaults(st, {40, 41, 42}));
    eng.Run();
    st.Uninstall();
    return st.FingerprintSummary();
  };
  std::string a = run();
  std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("hash="), std::string::npos);
  EXPECT_NE(a.find("ops.fault=3"), std::string::npos);
}

Task<> BandedFaults(SpanTracer& st) {
  // 1000 fast ops (4-8us, read-dominated) + 12 slow ops (100-188us,
  // backoff-dominated). The latencies are spread so p50/p90/p99 land in
  // distinct histogram slots: the p50 band is made of fast ops, the p99
  // band of slow ones.
  for (int i = 0; i < 1000; ++i) {
    SpanHandle h = st.BeginDetached(SpanKind::kFault, 0, 1);
    SimTime r0 = Engine::current().now();
    co_await Delay{3000 + i * 4};
    st.LeafUnder(h, SpanKind::kRdmaRead, r0, Engine::current().now(), 0, 1);
    co_await Delay{1000};
    st.EndDetached(h);
  }
  for (int i = 0; i < 12; ++i) {
    SpanHandle h = st.BeginDetached(SpanKind::kFault, 0, 2);
    SimTime r0 = Engine::current().now();
    co_await Delay{4000};
    st.LeafUnder(h, SpanKind::kRdmaRead, r0, Engine::current().now(), 0, 2);
    SimTime b0 = Engine::current().now();
    co_await Delay{88000 + i * 8000};
    st.LeafUnder(h, SpanKind::kRetryBackoff, b0, Engine::current().now(), 0, 2);
    co_await Delay{8000};
    st.EndDetached(h);
  }
}

TEST(SpanTracerTest, BandsConditionOnLatency) {
  // The p50 band must attribute to the read; the p99 band to the backoff
  // that only the slow ops contain.
  SpanTracer st(SpanTracer::Options{});
  st.Install();
  Engine eng;
  eng.Spawn(BandedFaults(st));
  eng.Run();
  st.Uninstall();
  SpanTailSummary tail = st.Tail(SpanKind::kFault);
  EXPECT_EQ(tail.count, 1012u);
  const SpanTailBand& p50 = tail.bands[0];
  const SpanTailBand& p99 = tail.bands[2];
  ASSERT_GT(p50.ops, 0u);
  ASSERT_GT(p99.ops, 0u);
  EXPECT_GT(p50.Share(SpanKind::kRdmaRead), 0.5);
  EXPECT_GT(p99.Share(SpanKind::kRetryBackoff), 0.5);
  EXPECT_GT(p99.threshold_ns, p50.threshold_ns);
}

}  // namespace
}  // namespace magesim
