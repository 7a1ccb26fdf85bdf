// Negative tests for the sim-time lock-discipline analyzer: each seeded bug
// class must produce a deterministic diagnostic naming the offending locks
// and tasks. All tests run the analyzer in capture mode (abort_on_violation =
// false) except the death test, which verifies the default abort posture.
#include "src/analysis/lock_analyzer.h"

#include <gtest/gtest.h>

#include <string>

#include "src/analysis/guarded.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace magesim {
namespace {

AnalysisOptions CaptureMode() {
  AnalysisOptions o;
  o.abort_on_violation = false;
  return o;
}

TEST(LockAnalyzerTest, CleanRunReportsNothing) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("m");
  auto worker = [](SimMutex& m) -> Task<> {
    auto g = co_await m.Scoped();
    co_await Delay{10};  // Delay under a lock is the modeled CS cost: legal
  };
  e.Spawn(worker(m));
  e.Run();
  EXPECT_EQ(la.total_violations(), 0u);
  EXPECT_EQ(la.locks_registered(), 1u);
  EXPECT_TRUE(la.QuiescenceReport().empty());
}

TEST(LockAnalyzerTest, UnlockByNonOwnerIsReported) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("victim");
  auto owner = [](LockAnalyzer& la, SimMutex& m) -> Task<> {
    la.NameCurrentTask("owner");
    co_await m.Lock();
    co_await Delay{100};
    m.Unlock();
  };
  auto thief = [](LockAnalyzer& la, SimMutex& m) -> Task<> {
    la.NameCurrentTask("thief");
    co_await Delay{50};
    m.Unlock();  // seeded bug: not the owner
  };
  e.Spawn(owner(la, m));
  e.Spawn(thief(la, m));
  e.Run();
  EXPECT_GE(la.count(AnalysisViolationKind::kUnlockNotOwner), 1u);
  ASSERT_FALSE(la.violations().empty());
  const std::string& msg = la.violations().front().message;
  EXPECT_NE(msg.find("'victim'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(thief)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(owner)"), std::string::npos) << msg;
}

TEST(LockAnalyzerTest, DoubleUnlockIsReported) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("once");
  auto worker = [](SimMutex& m) -> Task<> {
    co_await m.Lock();
    m.Unlock();
    m.Unlock();  // seeded bug
    co_return;
  };
  e.Spawn(worker(m));
  e.Run();
  EXPECT_EQ(la.count(AnalysisViolationKind::kDoubleUnlock), 1u);
  ASSERT_FALSE(la.violations().empty());
  EXPECT_NE(la.violations().front().message.find("'once'"), std::string::npos);
  // The capture-mode hook keeps the primitive's state sane.
  EXPECT_FALSE(m.locked());
}

TEST(LockAnalyzerTest, GuardedAccessWithoutLockIsReported) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("counter-lock");
  GuardedBy<int> counter(m);
  auto lawful = [](SimMutex& m, GuardedBy<int>& c) -> Task<> {
    auto g = co_await m.Scoped();
    c.Locked("counter") = 1;
  };
  auto rogue = [](GuardedBy<int>& c) -> Task<> {
    co_await Delay{10};
    c.Locked("counter") = 2;  // seeded bug: no lock held
  };
  e.Spawn(lawful(m, counter));
  e.Spawn(rogue(counter));
  e.Run();
  EXPECT_EQ(la.count(AnalysisViolationKind::kGuardedAccess), 1u);
  ASSERT_FALSE(la.violations().empty());
  const std::string& msg = la.violations().front().message;
  EXPECT_NE(msg.find("counter"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'counter-lock'"), std::string::npos) << msg;
}

TEST(LockAnalyzerTest, LockOrderCycleDetectedWithoutDeadlock) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex a("A"), b("B"), c("C");
  // One task takes A->B, B->C, C->A strictly sequentially: no deadlock ever
  // manifests, but the class digraph closes a 3-cycle on the last pair.
  auto worker = [](SimMutex& a, SimMutex& b, SimMutex& c) -> Task<> {
    {
      auto g1 = co_await a.Scoped();
      auto g2 = co_await b.Scoped();
    }
    {
      auto g1 = co_await b.Scoped();
      auto g2 = co_await c.Scoped();
    }
    {
      auto g1 = co_await c.Scoped();
      auto g2 = co_await a.Scoped();  // seeded bug: closes A->B->C->A
    }
  };
  e.Spawn(worker(a, b, c));
  e.Run();
  EXPECT_EQ(la.count(AnalysisViolationKind::kLockOrderCycle), 1u);
  EXPECT_EQ(la.order_edges(), 3u);
  ASSERT_FALSE(la.violations().empty());
  const std::string& msg = la.violations().front().message;
  // The backtrail names every lock class on the cycle.
  EXPECT_NE(msg.find("'A'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'B'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'C'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("lock-order cycle"), std::string::npos) << msg;
}

TEST(LockAnalyzerTest, SameClassLocksDoNotFormEdges) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  // Two partitions of one striped structure share a class name: classic
  // lockdep treats them as one class and tracks no self-edge.
  SimMutex p0("part"), p1("part");
  auto worker = [](SimMutex& p0, SimMutex& p1) -> Task<> {
    auto g1 = co_await p0.Scoped();
    auto g2 = co_await p1.Scoped();
  };
  e.Spawn(worker(p0, p1));
  e.Run();
  EXPECT_EQ(la.order_edges(), 0u);
  EXPECT_EQ(la.total_violations(), 0u);
  EXPECT_EQ(la.lock_classes(), 1u);
  EXPECT_EQ(la.locks_registered(), 2u);
}

TEST(LockAnalyzerTest, HeldAcrossAwaitIsReported) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("held-lock");
  SimEvent ev("slow-io");
  auto holder = [](SimMutex& m, SimEvent& ev) -> Task<> {
    auto g = co_await m.Scoped();
    co_await ev.Wait();  // seeded bug: event wait while holding the lock
  };
  auto setter = [](SimEvent& ev) -> Task<> {
    co_await Delay{100};
    ev.Set();
  };
  e.Spawn(holder(m, ev));
  e.Spawn(setter(ev));
  e.Run();
  EXPECT_EQ(la.count(AnalysisViolationKind::kHeldAcrossAwait), 1u);
  ASSERT_FALSE(la.violations().empty());
  const std::string& msg = la.violations().front().message;
  EXPECT_NE(msg.find("'held-lock'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'slow-io'"), std::string::npos) << msg;
}

TEST(LockAnalyzerTest, AllowlistSuppressesHeldAcrossAwait) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  la.AllowHeldAcrossAwait("held-lock", "slow-io");
  SimMutex m("held-lock");
  SimMutex other("other-lock");
  SimEvent ev("slow-io");
  auto holder = [](SimMutex& m, SimEvent& ev) -> Task<> {
    auto g = co_await m.Scoped();
    co_await ev.Wait();  // allowlisted (lock class x site)
  };
  auto other_holder = [](SimMutex& m, SimEvent& ev) -> Task<> {
    co_await Delay{10};
    auto g = co_await m.Scoped();
    co_await ev.Wait();  // NOT allowlisted: different lock class
  };
  auto setter = [](SimEvent& ev) -> Task<> {
    co_await Delay{100};
    ev.Set();
  };
  e.Spawn(holder(m, ev));
  e.Spawn(other_holder(other, ev));
  e.Spawn(setter(ev));
  e.Run();
  EXPECT_EQ(la.count(AnalysisViolationKind::kHeldAcrossAwait), 1u);
  ASSERT_FALSE(la.violations().empty());
  EXPECT_NE(la.violations().front().message.find("'other-lock'"), std::string::npos);
}

TEST(LockAnalyzerTest, WildcardAllowlistCoversAnySite) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  la.AllowHeldAcrossAwait("held-lock");  // site defaults to "*"
  SimMutex m("held-lock");
  SimEvent ev("anything");
  auto holder = [](SimMutex& m, SimEvent& ev) -> Task<> {
    auto g = co_await m.Scoped();
    co_await ev.Wait();
  };
  auto setter = [](SimEvent& ev) -> Task<> {
    co_await Delay{100};
    ev.Set();
  };
  e.Spawn(holder(m, ev));
  e.Spawn(setter(ev));
  e.Run();
  EXPECT_EQ(la.total_violations(), 0u);
}

TEST(LockAnalyzerTest, DelayUnderLockOnlyFlaggedOnOptIn) {
  auto run = [](bool flag_delays) {
    Engine e;
    AnalysisOptions o = CaptureMode();
    o.flag_delay_awaits = flag_delays;
    LockAnalyzer la(o);
    la.Install();
    SimMutex m("cs");
    auto worker = [](SimMutex& m) -> Task<> {
      auto g = co_await m.Scoped();
      co_await Delay{25};  // modeled critical-section cost
    };
    e.Spawn(worker(m));
    e.Run();
    return la.count(AnalysisViolationKind::kHeldAcrossAwait);
  };
  EXPECT_EQ(run(false), 0u);
  EXPECT_EQ(run(true), 1u);
}

TEST(LockAnalyzerTest, CoreAffinityViolationIsReported) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  auto worker = [](LockAnalyzer& la) -> Task<> {
    la.NameCurrentTask("app-0", /*core=*/0);
    la.CheckCoreAffinity(0, "pcp cache fill");  // own core: fine
    la.CheckCoreAffinity(3, "pcp cache fill");  // seeded bug: core 3's cache
    co_return;
  };
  e.Spawn(worker(la));
  e.Run();
  EXPECT_EQ(la.count(AnalysisViolationKind::kCoreAffinity), 1u);
  ASSERT_FALSE(la.violations().empty());
  const std::string& msg = la.violations().front().message;
  EXPECT_NE(msg.find("core 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(app-0)"), std::string::npos) << msg;
}

TEST(LockAnalyzerTest, UnboundTasksPassCoreAffinity) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  auto evictor = [](LockAnalyzer& la) -> Task<> {
    la.NameCurrentTask("evictor-0");  // unbound: touches every core's caches
    la.CheckCoreAffinity(5, "pcp cache spill");
    co_return;
  };
  e.Spawn(evictor(la));
  e.Run();
  EXPECT_EQ(la.total_violations(), 0u);
}

TEST(LockAnalyzerTest, FaultOwnershipProtocolIsEnforced) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  auto faulter = [](LockAnalyzer& la) -> Task<> {
    la.NameCurrentTask("faulter");
    la.OnFaultBegin(42);
    co_await Delay{100};
    la.OnFaultEnd(42);  // owner finishing its own fault: fine
  };
  auto meddler = [](LockAnalyzer& la) -> Task<> {
    la.NameCurrentTask("meddler");
    co_await Delay{50};
    la.CheckFaultOwner(42, "Map");  // seeded bug: someone else's fault
  };
  e.Spawn(faulter(la));
  e.Spawn(meddler(la));
  e.Run();
  EXPECT_EQ(la.count(AnalysisViolationKind::kFaultProtocol), 1u);
  ASSERT_FALSE(la.violations().empty());
  const std::string& msg = la.violations().front().message;
  EXPECT_NE(msg.find("vpn 42"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(meddler)"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(faulter)"), std::string::npos) << msg;
}

TEST(LockAnalyzerTest, UnisolatedUnmapIsReported) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  // Setup code (outside any task) passes; a task unmapping a frame that was
  // never isolated from the accounting lists is the seeded bug.
  la.CheckFrameIsolated(false, 7, "Unmap");
  EXPECT_EQ(la.total_violations(), 0u);
  auto worker = [](LockAnalyzer& la) -> Task<> {
    la.CheckFrameIsolated(true, 7, "Unmap");   // isolated: fine
    la.CheckFrameIsolated(false, 7, "Unmap");  // seeded bug
    co_return;
  };
  e.Spawn(worker(la));
  e.Run();
  EXPECT_EQ(la.count(AnalysisViolationKind::kFaultProtocol), 1u);
  EXPECT_NE(la.violations().front().message.find("not isolated"), std::string::npos);
}

TEST(LockAnalyzerTest, ExemptScopeSilencesAnalysis) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("shortcut");
  GuardedBy<int> state(m);
  auto worker = [](GuardedBy<int>& state) -> Task<> {
    AnalysisExemptScope exempt;  // deliberate modeling shortcut
    EXPECT_EQ(LockAnalyzer::Active(), nullptr);
    state.Locked("state") = 1;  // would violate outside the scope
    co_return;
  };
  e.Spawn(worker(state));
  e.Run();
  EXPECT_NE(LockAnalyzer::Active(), nullptr);  // scope ended
  EXPECT_EQ(la.total_violations(), 0u);
}

TEST(LockAnalyzerTest, QuiescenceReportNamesHeldLocks) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("leaked-lock");
  SimEvent never("never-set");
  auto parked = [](LockAnalyzer& la, SimMutex& m, SimEvent& never) -> Task<> {
    la.NameCurrentTask("parker");
    co_await m.Lock();
    co_await never.Wait();  // parks forever holding the lock
    m.Unlock();
  };
  la.AllowHeldAcrossAwait("leaked-lock");  // isolate the quiescence rule
  e.Spawn(parked(la, m, never));
  e.Run();  // drains with the task parked
  std::vector<std::string> held = la.QuiescenceReport();
  ASSERT_EQ(held.size(), 1u);
  EXPECT_NE(held[0].find("'leaked-lock'"), std::string::npos) << held[0];
  EXPECT_NE(held[0].find("(parker)"), std::string::npos) << held[0];
}

TEST(LockAnalyzerTest, TryLockAcquisitionsAreTracked) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("trylock");
  auto worker = [](SimMutex& m) -> Task<> {
    EXPECT_TRUE(m.TryLock());
    m.AssertHeld("trylocked state");  // must pass: TryLock routes the hook
    m.Unlock();
    co_return;
  };
  e.Spawn(worker(m));
  e.Run();
  EXPECT_EQ(la.total_violations(), 0u);
  EXPECT_EQ(la.locks_registered(), 1u);
}

TEST(LockAnalyzerTest, ReportSummarizesPerKindCounts) {
  Engine e;
  LockAnalyzer la(CaptureMode());
  la.Install();
  SimMutex m("m");
  auto worker = [](SimMutex& m) -> Task<> {
    co_await m.Lock();
    m.Unlock();
    m.Unlock();
    co_return;
  };
  e.Spawn(worker(m));
  e.Run();
  std::string report = la.Report();
  EXPECT_NE(report.find("double_unlock: 1"), std::string::npos) << report;
  EXPECT_NE(report.find("1 violations"), std::string::npos) << report;
}

TEST(LockAnalyzerDeathTest, AbortsWithNamedDiagnosticByDefault) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Engine e;
        LockAnalyzer la;  // default: abort_on_violation = true
        la.Install();
        SimMutex m("fatal-lock");
        auto worker = [](SimMutex& m) -> Task<> {
          co_await m.Lock();
          m.Unlock();
          m.Unlock();
          co_return;
        };
        e.Spawn(worker(m));
        e.Run();
      },
      "magesim-analysis: FATAL double_unlock.*'fatal-lock'");
}

}  // namespace
}  // namespace magesim
