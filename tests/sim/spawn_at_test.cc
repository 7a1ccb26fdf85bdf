// Engine::SpawnAt against the form it replaced: Spawn a task whose first
// action is a Delay to the start time. Both run the same random scripts of
// delayed starts among same-instant competitors. Every start must wake at the
// same simulated time. The dispatch order may differ only where the old form
// let an event for the start's instant be queued between the spawn and the
// task's first step (its Delay then queued behind that event); the scripts
// track that window, and a hand-built case shows the order really differs.
#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/task.h"

namespace magesim {
namespace {

struct Script {
  bool spawn_at = false;
  // Every step of every task, in dispatch order: "<name> @<time>".
  std::vector<std::string> log;
  // Wake time of each delayed start, by name.
  std::map<std::string, SimTime> woke;
  // Reference form only: every wake-up queued, in the order it was queued,
  // with the time it is due and, for a start's first step, that start's
  // window; and for each start, the position in that list at its spawn and
  // at its first step.
  struct Queued {
    SimTime at;
    size_t window;
  };
  static constexpr size_t kNoWindow = ~size_t{0};
  std::vector<Queued> queued;
  struct Window {
    size_t spawned;
    size_t first_step;
    SimTime from;
    SimTime at;
  };
  std::vector<Window> windows;
};

void Log(Script& r, const std::string& name) {
  r.log.push_back(name + " @" + std::to_string(Engine::current().now()));
}

// A sleep that the run notes as a queued wake-up (a yield is one at now).
Task<> Sleep(Script& r, SimTime d) {
  r.queued.push_back({Engine::current().now() + (d > 0 ? d : 0), Script::kNoWindow});
  if (d > 0) {
    co_await Delay{d};
  } else {
    co_await YieldNow{};
  }
}

// The started task: logs its wake-up, then one competing step.
Task<> Started(Script& r, std::string name, SimTime tail) {
  r.woke[name] = Engine::current().now();
  Log(r, name);
  co_await Sleep(r, tail);
  Log(r, name + " tail");
}

// The old form: spawned now, its first step sleeps until the start.
Task<> SpawnedThenDelayed(Script& r, size_t window, std::string name, SimTime d, SimTime tail) {
  r.windows[window].first_step = r.queued.size();
  r.queued.push_back({Engine::current().now() + d, window});
  co_await Delay{d};
  co_await Started(r, std::move(name), tail);
}

// Starts `name` after `d` in the run's form.
void StartAfter(Script& r, std::string name, SimTime d, SimTime tail) {
  Engine& e = Engine::current();
  if (r.spawn_at) {
    e.SpawnAt(e.now() + d, Started(r, std::move(name), tail));
    return;
  }
  r.windows.push_back({r.queued.size(), 0, e.now(), e.now() + d});
  e.Spawn(SpawnedThenDelayed(r, r.windows.size() - 1, std::move(name), d, tail));
}

// One competitor: random sleeps, yields and delayed starts, drawn from its
// own stream so both forms see the same script.
Task<> Actor(Script& r, int id, uint64_t seed) {
  Rng rng(seed * 131 + static_cast<uint64_t>(id));
  for (int step = 0; step < 8; ++step) {
    const std::string name = "a" + std::to_string(id) + "." + std::to_string(step);
    Log(r, name);
    // Small times, so that many events share an instant.
    const SimTime d = static_cast<SimTime>(rng.NextU64(12));
    switch (rng.NextU64(3)) {
      case 0:
        co_await Sleep(r, d);
        break;
      case 1:
        co_await Sleep(r, 0);
        break;
      default:
        StartAfter(r, name + ">", d, static_cast<SimTime>(rng.NextU64(3)));
        break;
    }
  }
}

Script RunScript(bool spawn_at, uint64_t seed) {
  Script r;
  r.spawn_at = spawn_at;
  Engine e;
  for (int id = 0; id < 4; ++id) e.Spawn(Actor(r, id, seed));
  e.Run();
  return r;
}

// True when some wake-up for a start's instant was queued between its spawn
// and its first step in the reference form. Exempt: a start at its spawn's
// instant (both forms queue it in the ready ring at the spawn), and the
// first step of a start spawned earlier (SpawnAt queues that one at its own,
// earlier spawn, so it stays ahead).
bool SameInstantQueuedInWindow(const Script& ref) {
  for (const Script::Window& w : ref.windows) {
    if (w.at == w.from) continue;
    for (size_t i = w.spawned; i < w.first_step; ++i) {
      const Script::Queued& q = ref.queued[i];
      const bool earlier_start =
          q.window != Script::kNoWindow && ref.windows[q.window].spawned < w.spawned;
      if (q.at == w.at && !earlier_start) return true;
    }
  }
  return false;
}

TEST(SpawnAtTest, RandomStartsWakeWhenTheSpawnThenDelayFormDid) {
  int exact_scripts = 0;
  int reordered_scripts = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const Script ref = RunScript(/*spawn_at=*/false, seed);
    const Script got = RunScript(/*spawn_at=*/true, seed);
    ASSERT_FALSE(ref.woke.empty()) << "seed " << seed;
    EXPECT_EQ(got.woke, ref.woke) << "seed " << seed;
    ASSERT_EQ(got.log.size(), ref.log.size()) << "seed " << seed;
    if (got.log != ref.log) ++reordered_scripts;
    if (!SameInstantQueuedInWindow(ref)) {
      ++exact_scripts;
      EXPECT_EQ(got.log, ref.log) << "seed " << seed;
    }
  }
  // Neither side of the order check is vacuous: many scripts have no such
  // window, and the others do reorder.
  EXPECT_GT(exact_scripts, 50);
  EXPECT_GT(reordered_scripts, 50);
}

// The one case where the order moves: the spawner itself sleeps until the
// start's instant right after the spawn. The old form queued the started
// task's wake-up behind that sleep; SpawnAt queues it at the spawn, ahead.
TEST(SpawnAtTest, SameInstantEventQueuedBeforeTheOldFirstStepRunsBehindSpawnAt) {
  auto run = [](bool spawn_at) {
    Script r;
    r.spawn_at = spawn_at;
    Engine e;
    e.Spawn([](Script& r) -> Task<> {
      StartAfter(r, "start", 10, 0);
      co_await Sleep(r, 10);
      Log(r, "spawner");
    }(r));
    e.Run();
    return r;
  };
  const Script ref = run(false);
  const Script got = run(true);
  EXPECT_TRUE(SameInstantQueuedInWindow(ref));
  EXPECT_EQ(got.woke, ref.woke);
  EXPECT_EQ(ref.log, (std::vector<std::string>{"spawner @10", "start @10", "start tail @10"}));
  EXPECT_EQ(got.log, (std::vector<std::string>{"start @10", "spawner @10", "start tail @10"}));
}

}  // namespace
}  // namespace magesim
