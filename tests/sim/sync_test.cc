#include "src/sim/sync.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/engine.h"
#include "src/sim/task.h"

namespace magesim {
namespace {

Task<> HoldLock(Engine& e, SimMutex& m, SimTime hold_ns, std::vector<std::pair<int, SimTime>>& log,
                int id, WaitGroup& wg) {
  co_await m.Lock();
  log.emplace_back(id, e.now());
  co_await Delay{hold_ns};
  m.Unlock();
  wg.Done();
}

TEST(SimMutexTest, FifoOrderingAndSerialization) {
  Engine e;
  SimMutex m;
  WaitGroup wg;
  std::vector<std::pair<int, SimTime>> log;
  for (int i = 0; i < 4; ++i) {
    wg.Add();
    e.Spawn(HoldLock(e, m, 100, log, i, wg));
  }
  e.Run();
  ASSERT_EQ(log.size(), 4u);
  // Acquisitions serialize: t = 0, 100, 200, 300, in spawn (FIFO) order.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(log[i].first, i);
    EXPECT_EQ(log[i].second, 100 * i);
  }
  EXPECT_FALSE(m.locked());
  EXPECT_EQ(m.stats().acquisitions, 4u);
  EXPECT_EQ(m.stats().contended, 3u);
  EXPECT_EQ(m.stats().total_wait_ns, 100 + 200 + 300);
  EXPECT_EQ(m.stats().max_wait_ns, 300);
}

TEST(SimMutexTest, TryLockRespectsState) {
  Engine e;
  SimMutex m;
  EXPECT_TRUE(m.TryLock());
  EXPECT_TRUE(m.locked());
  EXPECT_FALSE(m.TryLock());
  m.Unlock();
  EXPECT_FALSE(m.locked());
}

TEST(SimMutexTest, TryLockCountsInStats) {
  // Regression: TryLock acquisitions must land in stats() exactly like
  // Lock() ones (both route through DoAcquire).
  Engine e;
  SimMutex m;
  EXPECT_TRUE(m.TryLock());
  m.Unlock();
  EXPECT_TRUE(m.TryLock());
  m.Unlock();
  EXPECT_FALSE(m.TryLock() && m.TryLock());  // second attempt fails, no count
  m.Unlock();
  EXPECT_EQ(m.stats().acquisitions, 3u);
  EXPECT_EQ(m.stats().contended, 0u);
}

Task<> TrackOwner(Engine& e, SimMutex& m, TaskId& observed) {
  co_await m.Lock();
  observed = m.owner();
  co_await Delay{10};
  m.Unlock();
}

TEST(SimMutexTest, OwnerTracksLogicalTask) {
  Engine e;
  SimMutex m;
  TaskId observed = kNoTask;
  e.Spawn(TrackOwner(e, m, observed));
  e.Run();
  EXPECT_NE(observed, kNoTask);  // task ids start at 1; kNoTask means setup
  EXPECT_EQ(m.owner(), kNoTask);  // released at end of run
  // Setup-code acquisition (outside any task) is owned by kNoTask.
  EXPECT_TRUE(m.TryLock());
  EXPECT_EQ(m.owner(), kNoTask);
  m.Unlock();
}

Task<> ScopedUser(SimMutex& m, int& critical, bool& ok, WaitGroup& wg) {
  {
    auto g = co_await m.Scoped();
    ++critical;
    ok = ok && (critical == 1);
    co_await Delay{50};
    --critical;
  }
  wg.Done();
}

TEST(SimMutexTest, ScopedGuardEnforcesMutualExclusion) {
  Engine e;
  SimMutex m;
  WaitGroup wg;
  int critical = 0;
  bool ok = true;
  for (int i = 0; i < 5; ++i) {
    wg.Add();
    e.Spawn(ScopedUser(m, critical, ok, wg));
  }
  e.Run();
  EXPECT_TRUE(ok);
  EXPECT_FALSE(m.locked());
}

TEST(SimEventTest, SetReleasesAllWaiters) {
  Engine e;
  SimEvent ev;
  int released = 0;
  auto waiter = [](SimEvent& ev, int& released) -> Task<> {
    co_await ev.Wait();
    ++released;
  };
  for (int i = 0; i < 3; ++i) e.Spawn(waiter(ev, released));
  auto setter = [](SimEvent& ev) -> Task<> {
    co_await Delay{10};
    ev.Set();
  };
  e.Spawn(setter(ev));
  e.Run();
  EXPECT_EQ(released, 3);
  EXPECT_TRUE(ev.is_set());
}

TEST(SimEventTest, SetEventDoesNotBlock) {
  Engine e;
  SimEvent ev;
  ev.Set();
  SimTime when = -1;
  auto waiter = [](Engine& e, SimEvent& ev, SimTime& when) -> Task<> {
    co_await ev.Wait();
    when = e.now();
  };
  e.Spawn(waiter(e, ev, when));
  e.Run();
  EXPECT_EQ(when, 0);
}

TEST(CountdownLatchTest, ReleasesAtZero) {
  Engine e;
  CountdownLatch latch(3);
  SimTime released_at = -1;
  auto waiter = [](Engine& e, CountdownLatch& l, SimTime& t) -> Task<> {
    co_await l.Wait();
    t = e.now();
  };
  auto counter = [](CountdownLatch& l) -> Task<> {
    co_await Delay{100};
    l.CountDown();
    co_await Delay{100};
    l.CountDown();
    co_await Delay{100};
    l.CountDown();
  };
  e.Spawn(waiter(e, latch, released_at));
  e.Spawn(counter(latch));
  e.Run();
  EXPECT_EQ(released_at, 300);
}

TEST(ChannelTest, BoundedPushPop) {
  Engine e;
  Channel<int> ch(2);
  std::vector<int> received;
  std::vector<SimTime> push_times;
  auto producer = [](Engine& e, Channel<int>& ch, std::vector<SimTime>& t) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await ch.Push(i);
      t.push_back(e.now());
    }
  };
  auto consumer = [](Channel<int>& ch, std::vector<int>& out) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      co_await Delay{100};
      out.push_back(co_await ch.Pop());
    }
  };
  e.Spawn(producer(e, ch, push_times));
  e.Spawn(consumer(ch, received));
  e.Run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3}));
  // First two pushes complete immediately; the rest block on capacity.
  EXPECT_EQ(push_times[0], 0);
  EXPECT_EQ(push_times[1], 0);
  EXPECT_GE(push_times[2], 100);
}

TEST(WaitGroupTest, WaitsForAll) {
  Engine e;
  WaitGroup wg;
  SimTime done_at = -1;
  auto worker = [](WaitGroup& wg, SimTime d) -> Task<> {
    co_await Delay{d};
    wg.Done();
  };
  wg.Add(3);
  e.Spawn(worker(wg, 50));
  e.Spawn(worker(wg, 500));
  e.Spawn(worker(wg, 200));
  auto waiter = [](Engine& e, WaitGroup& wg, SimTime& t) -> Task<> {
    co_await wg.Wait();
    t = e.now();
  };
  e.Spawn(waiter(e, wg, done_at));
  e.Run();
  EXPECT_EQ(done_at, 500);
}

}  // namespace
}  // namespace magesim
