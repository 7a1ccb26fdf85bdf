// DeadlineWait against the watcher-based deadline wait it replaced. The old
// wait spawned a completion watcher and a deadline watcher per pending op and
// parked its caller on an event that the first of them set; the new one makes
// the same engine hops itself. Both run the same script on identical engines
// -- every case of the wait (already done, armed and due later, armed and due
// at this very instant, dropped, errored) with tickers that wake and yield at
// each completion time, deadline and wait start -- and every resumption must
// come in the same order at the same simulated time.
#include "src/resilience/resilient_rdma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/fault_hooks.h"
#include "src/hw/machine_params.h"
#include "src/hw/rdma.h"
#include "src/sim/engine.h"
#include "src/sim/sync.h"

namespace magesim {
namespace {

// The wait before DeadlineWait, verbatim but for the timeout bookkeeping.
struct OpWait {
  SimEvent ev;
};

Task<> CompletionWatcher(std::shared_ptr<RdmaCompletion> c, std::shared_ptr<OpWait> w) {
  co_await c->Wait();
  w->ev.Set();
}

Task<> DeadlineWatcher(SimTime delay, std::shared_ptr<OpWait> w) {
  co_await Delay{delay};
  w->ev.Set();
}

Task<OpOutcome> WatcherWait(std::shared_ptr<RdmaCompletion> c, SimTime grace) {
  Engine& eng = Engine::current();
  SimTime now = eng.now();
  SimTime deadline = std::max(now, c->completes_at()) + grace;
  if (!c->done()) {
    auto w = std::make_shared<OpWait>();
    eng.Spawn(CompletionWatcher(c, w));
    eng.Spawn(DeadlineWatcher(deadline - now, w));
    co_await w->ev.Wait();
  }
  if (!c->done()) co_return OpOutcome::kTimeout;
  co_return c->ok() ? OpOutcome::kOk : OpOutcome::kError;
}

// Fates by post order.
class ScriptedFaults : public HwFaultModel {
 public:
  explicit ScriptedFaults(std::vector<RdmaOpFate> fates) : fates_(std::move(fates)) {}
  RdmaOpFate OnRdmaPost(bool, SimTime, int) override {
    return next_ < fates_.size() ? fates_[next_++] : RdmaOpFate{};
  }
  SimTime ExtraIpiDelayNs(SimTime) override { return 0; }

 private:
  std::vector<RdmaOpFate> fates_;
  size_t next_ = 0;
};

// The script's ops, in post order, all posted at t = 0 on one read channel.
enum Op { kDoneOp, kLaterOp, kNowOp, kLostOp, kErrorOp, kLostLateOp, kNumOps };

std::vector<RdmaOpFate> Fates() {
  std::vector<RdmaOpFate> f(kNumOps);
  f[kLostOp].drop = true;
  f[kErrorOp].error = true;
  f[kLostLateOp].drop = true;
  return f;
}

constexpr SimTime kLateStart = 1000;  // the late lost op is awaited this long after it was due

struct Script {
  std::vector<std::shared_ptr<RdmaCompletion>> ops;
  std::vector<std::string> log;
  std::vector<OpOutcome> outcome = std::vector<OpOutcome>(kNumOps, OpOutcome::kOk);
  uint64_t events = 0;
};

void Log(Script& s, const std::string& what) {
  s.log.push_back(std::to_string(Engine::current().now()) + " " + what);
}

// Wakes at `at` (absolute), then yields three times, logging each step: a
// same-time competitor whose interleaving exposes every hop of a wait.
Task<> Ticker(Script& s, std::string name, SimTime at) {
  co_await Delay{at - Engine::current().now()};
  for (int k = 0; k < 4; ++k) {
    Log(s, name + "#" + std::to_string(k));
    co_await YieldNow{};
  }
}

// Awaits op `i` after sleeping until `start`, with the implementation under
// test, and logs the resumption.
Task<> Waiter(Script& s, bool watchers, int i, SimTime start, SimTime grace) {
  if (start > Engine::current().now()) co_await Delay{start - Engine::current().now()};
  std::shared_ptr<RdmaCompletion> c = s.ops[static_cast<size_t>(i)];
  Log(s, "waiter" + std::to_string(i) + " waits, done " + std::to_string(c->done()));
  OpOutcome out;
  if (watchers) {
    out = co_await WatcherWait(c, grace);
  } else {
    out = co_await DeadlineWait(c, grace);
  }
  s.outcome[static_cast<size_t>(i)] = out;
  Log(s, "waiter" + std::to_string(i) + " resumed, outcome " +
             std::to_string(static_cast<int>(out)));
}

// Completion time of every op when all are posted at t = 0.
std::vector<SimTime> DueTimes() {
  Engine e;
  MachineParams p;
  RdmaNic nic(p);
  ScriptedFaults faults(Fates());
  nic.SetFaultModel(&faults);
  std::vector<SimTime> due;
  for (int i = 0; i < kNumOps; ++i) due.push_back(nic.PostRead(kPageSize)->completes_at());
  e.Run();
  return due;
}

Script RunScript(bool watchers, SimTime grace) {
  const std::vector<SimTime> due = DueTimes();
  const SimTime done_start = due[kDoneOp] + 5;
  const SimTime late_start = due[kLostLateOp] + kLateStart;
  std::vector<SimTime> marks = {done_start, late_start, due[kLostOp] + grace,
                                late_start + grace};
  marks.insert(marks.end(), due.begin(), due.end());

  Script s;
  Engine e;
  MachineParams p;
  RdmaNic nic(p);
  ScriptedFaults faults(Fates());
  nic.SetFaultModel(&faults);
  // Wake-ups queued before the ops are posted run ahead of every completion
  // signal at their time (an armed op's signal is queued at its post); those
  // the poster spawns after posting run behind. The due-now waiter's wake-up
  // at its op's due time is one of the former, so it finds the op due but
  // unsignaled; the "mid" tickers queue theirs between it and the signal.
  for (SimTime t : marks) e.Spawn(Ticker(s, "early@" + std::to_string(t), t));
  e.Spawn(Waiter(s, watchers, kNowOp, due[kNowOp], grace));
  for (SimTime t : marks) e.Spawn(Ticker(s, "mid@" + std::to_string(t), t));
  e.Spawn([](Script& s, RdmaNic& nic, bool watchers, SimTime grace,
             std::vector<SimTime> marks, SimTime done_start,
             SimTime late_start) -> Task<> {
    Engine& eng = Engine::current();
    for (int i = 0; i < kNumOps; ++i) s.ops.push_back(nic.PostRead(kPageSize));
    eng.Spawn(Waiter(s, watchers, kDoneOp, done_start, grace));
    eng.Spawn(Waiter(s, watchers, kLaterOp, 0, grace));
    eng.Spawn(Waiter(s, watchers, kLostOp, 0, grace));
    eng.Spawn(Waiter(s, watchers, kErrorOp, 0, grace));
    eng.Spawn(Waiter(s, watchers, kLostLateOp, late_start, grace));
    for (SimTime t : marks) eng.Spawn(Ticker(s, "late@" + std::to_string(t), t));
    co_return;
  }(s, nic, watchers, grace, marks, done_start, late_start));
  s.events = e.Run();
  return s;
}

TEST(DeadlineWaitTest, ResumesInTheWatchersOrder) {
  for (SimTime grace : {SimTime{30 * kMicrosecond}, SimTime{1}, SimTime{7}}) {
    Script old_wait = RunScript(/*watchers=*/true, grace);
    Script new_wait = RunScript(/*watchers=*/false, grace);
    ASSERT_EQ(old_wait.log.size(), new_wait.log.size()) << "grace " << grace;
    for (size_t i = 0; i < old_wait.log.size(); ++i) {
      ASSERT_EQ(old_wait.log[i], new_wait.log[i]) << "grace " << grace << " entry " << i;
    }
    EXPECT_EQ(new_wait.outcome[kDoneOp], OpOutcome::kOk);
    EXPECT_EQ(new_wait.outcome[kLaterOp], OpOutcome::kOk);
    EXPECT_EQ(new_wait.outcome[kNowOp], OpOutcome::kOk);
    EXPECT_EQ(new_wait.outcome[kLostOp], OpOutcome::kTimeout);
    EXPECT_EQ(new_wait.outcome[kErrorOp], OpOutcome::kError);
    EXPECT_EQ(new_wait.outcome[kLostLateOp], OpOutcome::kTimeout);
    // Only the watchers' own events go.
    EXPECT_LT(new_wait.events, old_wait.events);
  }
}

// The script reaches each case: the due-now waiter really finds its op due
// and unsignaled, and the already-done waiter finds it signaled.
TEST(DeadlineWaitTest, ScriptCoversEveryCase) {
  Script s = RunScript(/*watchers=*/false, 30 * kMicrosecond);
  const std::vector<SimTime> due = DueTimes();
  auto find = [&s](const std::string& what) -> std::string {
    for (const std::string& line : s.log) {
      if (line.find(what) != std::string::npos) return line;
    }
    return "-1 (missing)";
  };
  auto resumed = [&find](int i) -> SimTime {
    return std::stoll(find("waiter" + std::to_string(i) + " resumed"));
  };
  EXPECT_EQ(find("waiter" + std::to_string(kNowOp) + " waits"),
            std::to_string(due[kNowOp]) + " waiter2 waits, done 0");
  EXPECT_EQ(find("waiter" + std::to_string(kDoneOp) + " waits"),
            std::to_string(due[kDoneOp] + 5) + " waiter0 waits, done 1");
  EXPECT_EQ(resumed(kDoneOp), due[kDoneOp] + 5);
  EXPECT_EQ(resumed(kLaterOp), due[kLaterOp]);
  EXPECT_EQ(resumed(kNowOp), due[kNowOp]);
  EXPECT_EQ(resumed(kErrorOp), due[kErrorOp]);
  EXPECT_EQ(resumed(kLostOp), due[kLostOp] + 30 * kMicrosecond);
  EXPECT_EQ(resumed(kLostLateOp), due[kLostLateOp] + kLateStart + 30 * kMicrosecond);
}

}  // namespace
}  // namespace magesim
