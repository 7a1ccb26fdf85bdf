#include "src/hw/rdma.h"

#include <gtest/gtest.h>

#include "src/resilience/fault_injector.h"
#include "src/resilience/fault_plan.h"
#include "src/sim/engine.h"

namespace magesim {
namespace {

TEST(RdmaTest, UnloadedReadLatencyMatchesPaperL) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  SimTime done = -1;
  auto body = [](Engine& e, RdmaNic& nic, SimTime& done) -> Task<> {
    co_await nic.Read(kPageSize);
    done = e.now();
  };
  e.Spawn(body(e, nic, done));
  e.Run();
  // Paper: L = 3.9 us best-case 4 KB access.
  EXPECT_NEAR(static_cast<double>(done), 3900.0, 50.0);
}

TEST(RdmaTest, ReadsSerializeOnTheWire) {
  Engine e;
  MachineParams p = BareMetalParams();
  RdmaNic nic(p);
  std::vector<SimTime> completions;
  auto body = [](Engine& e, RdmaNic& nic, std::vector<SimTime>& out) -> Task<> {
    std::vector<std::shared_ptr<RdmaCompletion>> cs;
    for (int i = 0; i < 10; ++i) cs.push_back(nic.PostRead(kPageSize));
    for (auto& c : cs) {
      co_await c->Wait();
      out.push_back(c->completes_at());
    }
  };
  e.Spawn(body(e, nic, completions));
  e.Run();
  ASSERT_EQ(completions.size(), 10u);
  SimTime wire = p.PageWireTime();
  for (size_t i = 1; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i] - completions[i - 1], wire);
  }
}

TEST(RdmaTest, ReadAndWriteChannelsAreIndependent) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  SimTime read_done = -1, write_done = -1;
  auto body = [](Engine& e, RdmaNic& nic, SimTime& r, SimTime& w) -> Task<> {
    auto rc = nic.PostRead(kPageSize);
    auto wc = nic.PostWrite(kPageSize);
    co_await rc->Wait();
    r = e.now();
    co_await wc->Wait();
    w = e.now();
  };
  e.Spawn(body(e, nic, read_done, write_done));
  e.Run();
  // Full duplex: the write does not queue behind the read.
  EXPECT_EQ(read_done, write_done);
}

TEST(RdmaTest, ThroughputCapsAtConfiguredBandwidth) {
  Engine e;
  MachineParams p = BareMetalParams();
  RdmaNic nic(p);
  constexpr int kOps = 20000;
  SimTime done = -1;
  auto body = [](Engine& e, RdmaNic& nic, SimTime& done) -> Task<> {
    std::shared_ptr<RdmaCompletion> last;
    for (int i = 0; i < kOps; ++i) last = nic.PostRead(kPageSize);
    co_await last->Wait();
    done = e.now();
  };
  e.Spawn(body(e, nic, done));
  e.Run();
  double achieved_mops = kOps / (NsToSec(done) * 1e6);
  // Ideal limit from the paper: 5.83 M pages/s at 192 Gbps.
  EXPECT_NEAR(achieved_mops, 5.83, 0.1);
  EXPECT_GT(static_cast<double>(nic.read_busy_ns()) / static_cast<double>(done), 0.95);
}

TEST(RdmaTest, CongestionShowsUpInQueueingHistogram) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  auto body = [](RdmaNic& nic) -> Task<> {
    std::shared_ptr<RdmaCompletion> last;
    for (int i = 0; i < 1000; ++i) last = nic.PostRead(kPageSize);
    co_await last->Wait();
  };
  e.Spawn(body(nic));
  e.Run();
  // The 1000th op queued behind ~999 wire slots.
  EXPECT_GT(nic.read_queueing().max(), 900 * BareMetalParams().PageWireTime());
  EXPECT_EQ(nic.read_queueing().count(), 1000u);
}

TEST(RdmaTest, StatsTrackBytesAndOps) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  auto body = [](RdmaNic& nic) -> Task<> {
    co_await nic.Read(kPageSize);
    co_await nic.Write(kPageSize);
    co_await nic.Write(kPageSize);
  };
  e.Spawn(body(nic));
  e.Run();
  EXPECT_EQ(nic.reads_posted(), 1u);
  EXPECT_EQ(nic.writes_posted(), 2u);
  EXPECT_EQ(nic.bytes_read(), kPageSize);
  EXPECT_EQ(nic.bytes_written(), 2 * kPageSize);
}

// Brownouts come from the fault plan: the NIC asks its fault model for each
// op's fate at post time.
FaultWindow Brownout(SimTime from, SimTime until, double bw, SimTime lat) {
  FaultWindow w;
  w.kind = FaultKind::kBrownout;
  w.from = from;
  w.until = until;
  w.bandwidth_factor = bw;
  w.extra_latency_ns = lat;
  return w;
}

SimTime WireAt(double factor) {
  return static_cast<SimTime>(kPageSize * 8.0 / (BareMetalParams().nic_gbps * factor));
}

TEST(RdmaTest, OverlappingBrownoutsCompose) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  FaultPlan plan;
  plan.Add(Brownout(10 * kMicrosecond, 50 * kMicrosecond, 0.5, 100));
  plan.Add(Brownout(30 * kMicrosecond, 80 * kMicrosecond, 0.5, 50));  // overlaps the first
  FaultInjector inj(plan, /*seed=*/1);
  nic.SetFaultModel(&inj);
  std::vector<SimTime> lat;
  auto body = [](RdmaNic& nic, std::vector<SimTime>& lat) -> Task<> {
    // One read each: in the first window only, in the overlap, in the second
    // only, and after both (each read finishes well before the next probe).
    for (SimTime at : {20, 40, 60, 100}) {
      Engine& eng = Engine::current();
      co_await Delay{at * kMicrosecond - eng.now()};
      SimTime t0 = eng.now();
      co_await nic.Read(kPageSize);
      lat.push_back(eng.now() - t0);
    }
  };
  e.Spawn(body(nic, lat));
  e.Run();
  MachineParams p = BareMetalParams();
  ASSERT_EQ(lat.size(), 4u);
  EXPECT_EQ(lat[0], WireAt(0.5) + p.rdma_base_ns + 100);
  // Overlap: bandwidth factors multiply, extra latencies add.
  EXPECT_EQ(lat[1], WireAt(0.25) + p.rdma_base_ns + 150);
  EXPECT_EQ(lat[2], WireAt(0.5) + p.rdma_base_ns + 50);
  EXPECT_EQ(lat[3], p.PageWireTime() + p.rdma_base_ns);
}

TEST(RdmaTest, BrownoutCursorHandlesManySequentialWindows) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  // Many disjoint windows; posts at increasing times must pick the right one.
  FaultPlan plan;
  for (int i = 0; i < 64; ++i) {
    plan.Add(Brownout(i * 100000, i * 100000 + 50000, 0.5, i));
  }
  ASSERT_EQ(plan.windows().size(), 64u);
  FaultInjector inj(plan, /*seed=*/1);
  nic.SetFaultModel(&inj);
  std::vector<SimTime> lat;
  auto body = [](RdmaNic& nic, std::vector<SimTime>& lat) -> Task<> {
    for (int i = 0; i < 64; ++i) {
      // Land inside window i, then in the gap after it.
      Engine& eng = Engine::current();
      SimTime in_window = i * 100000 + 10000;
      co_await Delay{in_window - eng.now()};
      SimTime t0 = eng.now();
      co_await nic.Read(kPageSize);
      lat.push_back(eng.now() - t0);
    }
  };
  e.Spawn(body(nic, lat));
  e.Run();
  MachineParams p = BareMetalParams();
  ASSERT_EQ(lat.size(), 64u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(lat[static_cast<size_t>(i)], WireAt(0.5) + p.rdma_base_ns + i)
        << "window " << i;
  }
}

namespace {
// Scripted per-op fate for the fault-model hook tests.
struct ScriptedFaultModel : HwFaultModel {
  std::vector<RdmaOpFate> fates;
  size_t next = 0;
  RdmaOpFate OnRdmaPost(bool, SimTime, int) override {
    return next < fates.size() ? fates[next++] : RdmaOpFate{};
  }
  SimTime ExtraIpiDelayNs(SimTime) override { return 0; }
};
}  // namespace

TEST(RdmaTest, FaultModelDropLosesCompletionAndCounts) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  ScriptedFaultModel fm;
  fm.fates.push_back({.error = false, .drop = true});
  fm.fates.push_back({});
  nic.SetFaultModel(&fm);
  std::shared_ptr<RdmaCompletion> dropped, ok;
  auto body = [](RdmaNic& nic, std::shared_ptr<RdmaCompletion>& dropped,
                 std::shared_ptr<RdmaCompletion>& ok) -> Task<> {
    dropped = nic.PostRead(kPageSize);
    ok = nic.PostRead(kPageSize);
    co_await ok->Wait();
  };
  e.Spawn(body(nic, dropped, ok));
  e.Run();
  EXPECT_FALSE(dropped->done());  // the event never fires
  EXPECT_EQ(dropped->status(), RdmaCompletion::Status::kLost);
  EXPECT_TRUE(ok->done());
  EXPECT_TRUE(ok->ok());
  EXPECT_EQ(nic.reads_dropped(), 1u);
  EXPECT_EQ(nic.read_latency().count(), 1u);  // dropped op records no latency
}

TEST(RdmaTest, FaultModelErrorSignalsFailedCompletion) {
  Engine e;
  RdmaNic nic(BareMetalParams());
  ScriptedFaultModel fm;
  fm.fates.push_back({.error = true, .drop = false});
  nic.SetFaultModel(&fm);
  std::shared_ptr<RdmaCompletion> c;
  auto body = [](RdmaNic& nic, std::shared_ptr<RdmaCompletion>& c) -> Task<> {
    c = nic.PostWrite(kPageSize);
    co_await c->Wait();
  };
  e.Spawn(body(nic, c));
  e.Run();
  EXPECT_TRUE(c->done());
  EXPECT_FALSE(c->ok());
  EXPECT_EQ(c->status(), RdmaCompletion::Status::kError);
  EXPECT_EQ(nic.writes_errored(), 1u);
}

}  // namespace
}  // namespace magesim
