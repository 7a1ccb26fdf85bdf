// No-fault writeback batches: only the write a batch waits on (the one that
// completes last) arms a completion event. The others' completions are seen
// by nothing but a Tracer, so they are armed only while one is installed,
// and the batch ends at the same simulated time either way.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/hw/machine_params.h"
#include "src/hw/rdma.h"
#include "src/resilience/resilient_rdma.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace magesim {
namespace {

constexpr uint64_t kSlots = 256;

struct Rig {
  Engine engine;
  MachineParams params = BareMetalParams();
  FleetManager fleet{params, FleetManager::Options{}};
  ResilienceManager resilience{fleet, ResilienceOptions{}};

  Rig() { fleet.Prepopulate(kSlots); }
};

struct Outcome {
  uint64_t events = 0;
  SimTime end = 0;            // when the batch's writer resumed
  SimTime latest_write = 0;   // the latest write's completion time
  uint64_t write_done_records = 0;
};

// Writes `pages` slots back in one batch, through the pipelined evictor's
// Start/FinishWriteback pair or the synchronous WriteBack.
Outcome RunBatch(int pages, bool pipelined, bool traced) {
  Tracer tracer;
  TraceHashSink hash;
  if (traced) {
    tracer.AddSink(&hash);
    tracer.Install();
  }
  Outcome out;
  {
    Rig rig;
    std::vector<uint64_t> slots(static_cast<size_t>(pages));
    std::iota(slots.begin(), slots.end(), 0);
    auto writer = [](Rig& rig, std::vector<uint64_t> slots, bool pipelined,
                     SimTime& end) -> Task<> {
      if (pipelined) {
        Writeback wb = rig.resilience.StartWriteback(/*evictor_id=*/0, std::move(slots));
        co_await rig.resilience.FinishWriteback(std::move(wb), /*evictor_id=*/0);
      } else {
        co_await rig.resilience.WriteBack(/*evictor_id=*/0, std::move(slots));
      }
      end = Engine::current().now();
    };
    rig.engine.Spawn(writer(rig, std::move(slots), pipelined, out.end));
    rig.engine.Run();
    out.events = rig.engine.events_processed();
    // Every write was posted at time 0, so the largest latency is the latest
    // completion time.
    out.latest_write = static_cast<SimTime>(rig.fleet.nic(0).write_latency().max());
    EXPECT_EQ(rig.fleet.nic(0).writes_posted(), static_cast<uint64_t>(pages));
  }
  tracer.Uninstall();
  out.write_done_records = hash.count(TraceEventType::kRdmaWriteDone);
  return out;
}

TEST(WritebackTest, BatchArmsOnlyItsLatestCompletion) {
  for (bool pipelined : {true, false}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "synchronous");
    Outcome one = RunBatch(1, pipelined, /*traced=*/false);
    Outcome many = RunBatch(64, pipelined, /*traced=*/false);
    // 63 more writes, not one more event: only one completion was armed...
    EXPECT_EQ(many.events, one.events);
    // ...and it is the latest, which the writer waited for.
    EXPECT_GT(many.latest_write, one.latest_write);
    EXPECT_EQ(many.end, many.latest_write);
    EXPECT_EQ(one.end, one.latest_write);
  }
}

TEST(WritebackTest, TracerStillSeesEveryWriteCompleteAtTheSameTime) {
  for (bool pipelined : {true, false}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "synchronous");
    Outcome plain = RunBatch(64, pipelined, /*traced=*/false);
    Outcome traced = RunBatch(64, pipelined, /*traced=*/true);
    EXPECT_EQ(traced.write_done_records, 64u);
    EXPECT_EQ(plain.write_done_records, 0u);
    EXPECT_EQ(traced.end, plain.end);
    EXPECT_GT(traced.events, plain.events);  // the other 63 completions ran
  }
}

}  // namespace
}  // namespace magesim
