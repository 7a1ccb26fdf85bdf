// Per-layer host-cost replays. After Run() returns, the machine's engine is
// idle but alive, so each driver spawns coroutines that call one layer's
// public functions on the machine's own objects (its allocator, accounting
// policy, NIC and shootdown fabric) and times the engine until it drains.
// The page table is replayed on a fresh table of the workload's size: the
// replay then needs no free frames and leaves the machine's mappings alone.
#include <vector>

#include "magebench/driver/bench.h"
#include "src/mem/page_table.h"

namespace magebench {

using magesim::CoreId;
using magesim::Engine;
using magesim::PageFrame;
using magesim::Task;

namespace {

constexpr uint64_t kAllocRounds = 1500;  // x (up to) 2 x kBatch ops
constexpr uint64_t kPtCycles = 400000;   // x 4 calls
constexpr uint64_t kAcctRounds = 1000;   // x (up to) 4 x kBatch ops
constexpr uint64_t kNicPairs = 20000;    // x 2 ops
constexpr uint64_t kShootdowns = 4000;
constexpr size_t kBatch = 32;

Task<> DelayLoop(uint64_t n, magesim::SimTime step) {
  for (uint64_t i = 0; i < n; ++i) {
    co_await magesim::Delay{step + static_cast<magesim::SimTime>(i % 7)};
  }
}

Task<> AllocLoop(magesim::PageAllocator* alloc, int cores, uint64_t* ops) {
  std::vector<PageFrame*> frames;
  for (uint64_t r = 0; r < kAllocRounds; ++r) {
    CoreId core = static_cast<CoreId>(r % static_cast<uint64_t>(cores));
    frames.clear();
    for (size_t b = 0; b < kBatch; ++b) {
      PageFrame* f = co_await alloc->Alloc(core);
      if (f == nullptr) break;
      frames.push_back(f);
    }
    *ops += 2 * frames.size();
    co_await alloc->FreeBatch(core, frames);
  }
}

Task<> AccountingLoop(magesim::PageAccounting* acct, int cores, uint64_t* ops) {
  std::vector<PageFrame*> out;
  int empty_rounds = 0;
  for (uint64_t r = 0; r < kAcctRounds && empty_rounds < 8; ++r) {
    CoreId core = static_cast<CoreId>(r % static_cast<uint64_t>(cores));
    out.clear();
    size_t got = co_await acct->IsolateBatch(0, core, kBatch, &out);
    empty_rounds = got == 0 ? empty_rounds + 1 : 0;
    *ops += got;
    // Isolated victims go straight back (no unmap happened), then each is
    // unlinked and inserted once more.
    for (PageFrame* f : out) {
      f->state = PageFrame::State::kMapped;
      co_await acct->Insert(core, f);
    }
    for (PageFrame* f : out) {
      acct->Unlink(f);
      co_await acct->Insert(core, f);
    }
    *ops += 3 * out.size();
  }
}

Task<> NicLoop(magesim::RdmaNic* nic) {
  for (uint64_t i = 0; i < kNicPairs; ++i) {
    co_await nic->Read(magesim::kPageSize);
    co_await nic->Write(magesim::kPageSize);
  }
}

Task<> TlbLoop(magesim::TlbShootdownManager* tlb, CoreId initiator) {
  for (uint64_t i = 0; i < kShootdowns; ++i) co_await tlb->Shootdown(initiator, 1);
}

// Runs the engine over the tasks spawned by `spawn` and prices each of the
// `*ops` operations they performed.
template <typename SpawnFn>
LayerCost TimeEngine(Engine& eng, const uint64_t* ops, SpawnFn spawn) {
  uint64_t e0 = eng.events_processed();
  double t0 = WallNow();
  spawn();
  eng.Run();
  double secs = WallNow() - t0;
  LayerCost c;
  c.ops = *ops;
  if (c.ops > 0) {
    c.ns_per_op = secs * 1e9 / static_cast<double>(c.ops);
    c.events_per_op =
        static_cast<double>(eng.events_processed() - e0) / static_cast<double>(c.ops);
  }
  return c;
}

}  // namespace

ReplayCosts ReplayLayers(magesim::FarMemoryMachine& m, uint64_t events, int tasks,
                         SpanLog* spans) {
  Engine& eng = m.engine();
  magesim::Kernel& k = m.kernel();
  int app_cores = m.workload().num_threads();
  ReplayCosts c;

  if (spans != nullptr) spans->Mark("replay.sim");
  {
    uint64_t per_task = events / static_cast<uint64_t>(tasks) + 1;
    uint64_t ops = per_task * static_cast<uint64_t>(tasks);
    c.sim = TimeEngine(eng, &ops, [&] {
      for (int t = 0; t < tasks; ++t) eng.Spawn(DelayLoop(per_task, 1 + t));
    });
    c.sim.events_per_op = 1;
  }

  if (spans != nullptr) spans->Mark("replay.mem_alloc");
  {
    uint64_t ops = 0;
    c.mem_alloc = TimeEngine(eng, &ops, [&] {
      eng.Spawn(AllocLoop(&k.allocator(), app_cores, &ops));
    });
  }

  if (spans != nullptr) spans->Mark("replay.mem_pt");
  {
    magesim::PageTable pt(k.wss_pages());
    std::vector<PageFrame> frames(kBatch);
    uint64_t wss = k.wss_pages();
    double t0 = WallNow();
    for (uint64_t i = 0; i < kPtCycles; ++i) {
      uint64_t vpn = i % wss;
      PageFrame* f = &frames[i % kBatch];
      pt.TryBeginFault(vpn);
      pt.Map(vpn, f);
      pt.EndFault(vpn);
      pt.Unmap(vpn);
    }
    double secs = WallNow() - t0;
    c.mem_pt.ops = 4 * kPtCycles;
    c.mem_pt.ns_per_op = secs * 1e9 / static_cast<double>(c.mem_pt.ops);
    c.mem_pt.events_per_op = 0;
  }

  if (spans != nullptr) spans->Mark("replay.accounting");
  {
    uint64_t ops = 0;
    c.accounting = TimeEngine(eng, &ops, [&] {
      eng.Spawn(AccountingLoop(&k.accounting(), app_cores, &ops));
    });
  }

  if (spans != nullptr) spans->Mark("replay.hw_nic");
  {
    uint64_t ops = 2 * kNicPairs;
    c.hw_nic = TimeEngine(eng, &ops, [&] { eng.Spawn(NicLoop(&m.nic())); });
  }

  if (spans != nullptr) spans->Mark("replay.hw_tlb");
  {
    uint64_t ops = kShootdowns;
    CoreId initiator = static_cast<CoreId>(k.topology().num_cores() - 1);
    c.hw_tlb = TimeEngine(eng, &ops, [&] { eng.Spawn(TlbLoop(&k.tlb(), initiator)); });
  }
  return c;
}

}  // namespace magebench
