#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/sim/analysis_hooks.h"
#include "src/sim/task.h"

namespace magesim {
namespace {

TEST(EngineTest, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
}

TEST(EngineTest, RunOnEmptyQueueReturnsZero) {
  Engine e;
  EXPECT_EQ(e.Run(), 0u);
}

Task<> RecordTimes(Engine& e, std::vector<SimTime>& out) {
  out.push_back(e.now());
  co_await Delay{100};
  out.push_back(e.now());
  co_await Delay{250};
  out.push_back(e.now());
}

TEST(EngineTest, DelayAdvancesTime) {
  Engine e;
  std::vector<SimTime> times;
  e.Spawn(RecordTimes(e, times));
  e.Run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], 100);
  EXPECT_EQ(times[2], 350);
}

TEST(EngineTest, ZeroDelayDoesNotSuspend) {
  Engine e;
  int steps = 0;
  auto body = [](int& steps) -> Task<> {
    co_await Delay{0};
    ++steps;
    co_await Delay{-5};
    ++steps;
  };
  e.Spawn(body(steps));
  e.Run();
  EXPECT_EQ(steps, 2);
}

Task<> Ticker(Engine& e, SimTime period, int count, std::vector<std::pair<int, SimTime>>& log,
              int id) {
  for (int i = 0; i < count; ++i) {
    co_await Delay{period};
    log.emplace_back(id, e.now());
  }
}

TEST(EngineTest, InterleavesTasksInTimeOrder) {
  Engine e;
  std::vector<std::pair<int, SimTime>> log;
  e.Spawn(Ticker(e, 30, 3, log, 1));  // fires at 30, 60, 90
  e.Spawn(Ticker(e, 20, 3, log, 2));  // fires at 20, 40, 60
  e.Run();
  ASSERT_EQ(log.size(), 6u);
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].second, log[i].second);
  }
  // Equal timestamps (60) preserve scheduling order: task 1 was scheduled
  // for t=60 before task 2 re-armed for t=60.
  EXPECT_EQ(log[0], (std::pair<int, SimTime>{2, 20}));
}

Task<int> Inner() {
  co_await Delay{10};
  co_return 42;
}

Task<> Outer(Engine& e, int& result, SimTime& when) {
  result = co_await Inner();
  when = e.now();
}

TEST(EngineTest, AwaitingTaskPropagatesValueAndTime) {
  Engine e;
  int result = 0;
  SimTime when = -1;
  e.Spawn(Outer(e, result, when));
  e.Run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(when, 10);
}

Task<> Thrower() {
  co_await Delay{5};
  throw std::runtime_error("boom");
}

Task<> Catcher(bool& caught) {
  try {
    co_await Thrower();
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(EngineTest, ExceptionPropagatesToAwaiter) {
  Engine e;
  bool caught = false;
  e.Spawn(Catcher(caught));
  e.Run();
  EXPECT_TRUE(caught);
}

TEST(EngineTest, ShutdownFlagIsObservable) {
  Engine e;
  int iterations = 0;
  auto loop = [](Engine& e, int& iterations) -> Task<> {
    while (!e.shutdown_requested()) {
      co_await Delay{100};
      ++iterations;
    }
  };
  auto stopper = [](Engine& e) -> Task<> {
    co_await Delay{1000};
    e.RequestShutdown();
  };
  e.Spawn(loop(e, iterations));
  e.Spawn(stopper(e));
  e.Run();
  EXPECT_EQ(iterations, 10);
}

TEST(EngineTest, DeterministicEventCount) {
  auto run_once = []() {
    Engine e;
    std::vector<std::pair<int, SimTime>> log;
    e.Spawn(Ticker(e, 7, 100, log, 1));
    e.Spawn(Ticker(e, 11, 100, log, 2));
    e.Run();
    return e.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EngineTest, YieldNowRunsOtherSameTimeEventsFirst) {
  Engine e;
  std::vector<int> order;
  auto a = [](std::vector<int>& order) -> Task<> {
    order.push_back(1);
    co_await YieldNow{};
    order.push_back(3);
  };
  auto b = [](std::vector<int>& order) -> Task<> {
    order.push_back(2);
    co_return;
  };
  e.Spawn(a(order));
  e.Spawn(b(order));
  e.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A Delay whose wake-up would be the very next extraction continues in place:
// now() advances and no event is dispatched for it.
TEST(EngineTest, DelayContinuesInPlaceWhenNothingElseIsDue) {
  Engine e;
  std::vector<SimTime> times;
  e.Spawn(RecordTimes(e, times));
  EXPECT_EQ(e.Run(), 1u);  // the spawn only; both Delays ran in place
  EXPECT_EQ(times, (std::vector<SimTime>{0, 100, 350}));
  EXPECT_EQ(e.now(), 350);
}

Task<> LogAfter(Engine& e, SimTime d, std::string name,
                std::vector<std::pair<std::string, SimTime>>& log) {
  co_await Delay{d};
  log.emplace_back(std::move(name), e.now());
}

// An event already queued at exactly now()+d is older, so it runs first and
// the Delay must suspend behind it.
TEST(EngineTest, DelaySuspendsBehindHeapEventAtSameWakeup) {
  Engine e;
  std::vector<std::pair<std::string, SimTime>> log;
  e.Spawn(LogAfter(e, 100, "first", log));
  e.Spawn(LogAfter(e, 100, "second", log));
  EXPECT_EQ(e.Run(), 4u);  // two spawns, two wake-ups
  EXPECT_EQ(log, (std::vector<std::pair<std::string, SimTime>>{{"first", 100},
                                                                {"second", 100}}));
}

// A same-time ready event runs before any later wake-up, so the Delay must
// suspend even though the heap is empty.
TEST(EngineTest, DelaySuspendsWhileSameTimeEventIsReady) {
  Engine e;
  std::vector<std::pair<std::string, SimTime>> log;
  e.Spawn(LogAfter(e, 10, "delayed", log));
  e.Spawn(LogAfter(e, 0, "ready", log));
  EXPECT_EQ(e.Run(), 3u);
  EXPECT_EQ(log, (std::vector<std::pair<std::string, SimTime>>{{"ready", 0},
                                                                {"delayed", 10}}));
}

// The analysis hooks see every Delay await, including one that continues in
// place (the lock analyzer flags a Delay under a lock through this hook).
TEST(EngineTest, DelayInPlaceStillReportsTheAwait) {
  struct Counter {
    int delays = 0;
  } counter;
  SimAnalysisHooks hooks;
  hooks.ctx = &counter;
  hooks.on_await = [](void* ctx, const void*, const char*, AwaitKind kind, TaskId) {
    if (kind == AwaitKind::kDelay) ++static_cast<Counter*>(ctx)->delays;
  };
  SetAnalysisHooks(&hooks);
  Engine e;
  std::vector<SimTime> times;
  e.Spawn(RecordTimes(e, times));
  EXPECT_EQ(e.Run(), 1u);
  SetAnalysisHooks(nullptr);
  EXPECT_EQ(counter.delays, 2);
}

Task<> LogNow(Engine& e, std::string name, std::vector<std::pair<std::string, SimTime>>& log) {
  log.emplace_back(std::move(name), e.now());
  co_return;
}

// A task spawned for a future time takes its first step there, in one event.
TEST(EngineTest, SpawnAtStartsAtAFutureTime) {
  Engine e;
  std::vector<std::pair<std::string, SimTime>> log;
  e.SpawnAt(250, LogNow(e, "late", log));
  e.SpawnAt(100, LogNow(e, "early", log));
  EXPECT_EQ(e.Run(), 2u);
  EXPECT_EQ(log, (std::vector<std::pair<std::string, SimTime>>{{"early", 100},
                                                                {"late", 250}}));
  EXPECT_EQ(e.now(), 250);
}

// SpawnAt(now()) is Spawn: both go to the ready ring in call order.
TEST(EngineTest, SpawnAtNowIsSpawn) {
  Engine e;
  std::vector<std::pair<std::string, SimTime>> log;
  e.Spawn(LogNow(e, "a", log));
  e.SpawnAt(e.now(), LogNow(e, "b", log));
  e.Spawn(LogNow(e, "c", log));
  EXPECT_EQ(e.Run(), 3u);
  EXPECT_EQ(log, (std::vector<std::pair<std::string, SimTime>>{{"a", 0}, {"b", 0}, {"c", 0}}));
}

// A time in the past clamps to now(): the task starts behind the spawner's
// current step, as Spawn would start it.
TEST(EngineTest, SpawnAtClampsAPastTimeToNow) {
  Engine e;
  std::vector<std::pair<std::string, SimTime>> log;
  auto spawner = [](Engine& e, std::vector<std::pair<std::string, SimTime>>& log) -> Task<> {
    co_await Delay{500};
    e.SpawnAt(100, LogNow(e, "past", log));
    e.SpawnAt(-1, LogNow(e, "negative", log));
    log.emplace_back("spawner", e.now());
  };
  e.Spawn(spawner(e, log));
  e.Run();
  EXPECT_EQ(log, (std::vector<std::pair<std::string, SimTime>>{
                     {"spawner", 500}, {"past", 500}, {"negative", 500}}));
}

// Each spawn, either form, takes the next task id, and the task runs under it.
TEST(EngineTest, SpawnAtReturnsTheTasksId) {
  Engine e;
  std::vector<TaskId> ran;
  auto body = [](Engine& e, std::vector<TaskId>& ran) -> Task<> {
    ran.push_back(e.current_task());
    co_return;
  };
  const TaskId a = e.Spawn(body(e, ran));
  const TaskId b = e.SpawnAt(40, body(e, ran));
  const TaskId c = e.SpawnAt(10, body(e, ran));
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, b + 1);
  e.Run();
  EXPECT_EQ(ran, (std::vector<TaskId>{a, c, b}));
}

}  // namespace
}  // namespace magesim
