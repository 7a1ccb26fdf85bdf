// AppThread's one access form, the hit run (AppThread::RunHits): a
// HitRun::Touch either performs exactly one access's hit or refuses with no
// side effect, and a hit run is the awaited access loop, event for event:
// the differential tests below run that loop, written here on
// Kernel::TryFastAccess, Kernel::Fault and AppThread::Sync as the
// reference, beside the hit run on identical machines.
#include "src/workloads/workload.h"

#include <gtest/gtest.h>

#include <bit>
#include <ostream>
#include <utility>
#include <vector>

#include "src/core/farmem.h"
#include "src/paging/kernels.h"
#include "src/sim/engine.h"
#include "src/trace/trace.h"

namespace magesim {
namespace {

struct Rig {
  Rig()
      : params(BareMetalParams()),
        topo(params),
        tlb(topo),
        fleet(params, FleetManager::Options{}),
        resilience(fleet, ResilienceOptions{}),
        kernel(MageLibConfig(), topo, tlb, resilience, /*local_pages=*/1024, kWss),
        thread(kernel, /*core=*/0, /*seed=*/1) {
    kernel.Prepopulate(512);
  }
  static constexpr uint64_t kWss = 2048;
  Engine engine;
  MachineParams params;
  Topology topo;
  TlbShootdownManager tlb;
  FleetManager fleet;
  ResilienceManager resilience;
  Kernel kernel;
  AppThread thread;

  std::vector<uint64_t> Resident(size_t n) {
    std::vector<uint64_t> out;
    for (uint64_t v = 0; v < kWss && out.size() < n; ++v) {
      if (kernel.page_table().At(v).present) out.push_back(v);
    }
    return out;
  }
  uint64_t NonResident() {
    for (uint64_t v = 0; v < kWss; ++v) {
      if (!kernel.page_table().At(v).present) return v;
    }
    return 0;
  }
};

// Everything a hit may change: the page's PTE bits, the kernel's hit
// counters, and the pending (not yet flushed) time, read as `logical_now`
// minus engine time.
struct HitState {
  bool accessed, dirty, remote_valid, prefetched;
  uint64_t fast_hits, prefetch_hits;
  SimTime pending;

  static HitState Of(Rig& rig, uint64_t vpn, SimTime logical_now) {
    const Pte& pte = rig.kernel.page_table().At(vpn);
    return {pte.accessed,
            pte.dirty,
            pte.remote_valid,
            pte.prefetched,
            rig.kernel.stats().fast_hits,
            rig.kernel.stats().prefetch_hits,
            logical_now - rig.engine.now()};
  }
  static HitState Of(Rig& rig, uint64_t vpn) {
    return Of(rig, vpn, rig.thread.logical_now());
  }
  bool operator==(const HitState&) const = default;
};

// One hit run whose body makes a single Touch of `vpn`: what that Touch
// returned, the state right after it (inside the body, with the run's own
// pending time), and the state once the run, and any miss it took, is done.
struct OneTouch {
  bool hit = false;
  HitState at_touch{};
  HitState after{};
};

OneTouch TouchOnce(Rig& rig, uint64_t vpn, bool write) {
  OneTouch out;
  rig.engine.Spawn([](Rig& rig, uint64_t vpn, bool write, OneTouch& out) -> Task<> {
    bool first = true;
    co_await rig.thread.RunHits([&](AppThread::HitRun& r) {
      bool hit = r.Touch(vpn, write);
      if (!first) return;  // the resumed Touch of a miss
      first = false;
      out.hit = hit;
      out.at_touch = HitState::Of(rig, vpn, r.logical_now());
    });
  }(rig, vpn, write, out));
  rig.engine.Run();
  out.after = HitState::Of(rig, vpn);
  return out;
}

// A refused Touch changes nothing, and the miss path then does the access
// once: one fast hit (the hit after the fault or flush), never two.
TEST(AppThreadTest, TouchRefusesANonPresentPageUntouched) {
  Rig rig;
  uint64_t v = rig.NonResident();
  HitState before = HitState::Of(rig, v);
  OneTouch t = TouchOnce(rig, v, /*write=*/true);
  EXPECT_FALSE(t.hit);
  EXPECT_EQ(t.at_touch, before);
  EXPECT_EQ(rig.kernel.stats().faults, 1u);
  EXPECT_TRUE(rig.kernel.page_table().At(v).present);
  EXPECT_TRUE(t.after.dirty);
  EXPECT_EQ(t.after.fast_hits, before.fast_hits + 1);
  EXPECT_EQ(t.after.prefetch_hits, before.prefetch_hits);
}

TEST(AppThreadTest, TouchRefusesOnceTheQuantumIsExceeded) {
  Rig rig;
  uint64_t v = rig.Resident(1)[0];
  rig.kernel.page_table().At(v).prefetched = true;
  rig.thread.Compute(kAppQuantum);
  HitState before = HitState::Of(rig, v);
  EXPECT_FALSE(before.accessed);  // prepopulated pages start unreferenced
  OneTouch t = TouchOnce(rig, v, /*write=*/true);
  EXPECT_FALSE(t.hit);
  EXPECT_EQ(t.at_touch, before);
  EXPECT_EQ(rig.engine.now(), before.pending);  // the miss path flushed the time
  EXPECT_EQ(rig.kernel.stats().faults, 0u);
  EXPECT_TRUE(t.after.accessed);
  EXPECT_EQ(t.after.fast_hits, before.fast_hits + 1);
  EXPECT_EQ(t.after.prefetch_hits, before.prefetch_hits + 1);
}

TEST(AppThreadTest, TouchRefusesAfterNewlyStolenTime) {
  Rig rig;
  uint64_t v = rig.Resident(1)[0];
  rig.kernel.page_table().At(v).prefetched = true;
  rig.topo.core(0).AddStolenTime(500);  // a flush IPI's handler ran on core 0
  HitState before = HitState::Of(rig, v);
  OneTouch t = TouchOnce(rig, v, /*write=*/true);
  EXPECT_FALSE(t.hit);
  EXPECT_EQ(t.at_touch, before);
  EXPECT_EQ(rig.engine.now(), 500);  // the miss path absorbed the stolen time
  EXPECT_EQ(rig.kernel.stats().faults, 0u);
  EXPECT_TRUE(t.after.accessed);
  EXPECT_EQ(t.after.fast_hits, before.fast_hits + 1);
  EXPECT_EQ(t.after.prefetch_hits, before.prefetch_hits + 1);
}

// One access to a resident page marked prefetched, on a fresh rig: a Touch
// in a hit run, or the awaited access's hit, a plain Kernel::TryFastAccess.
// Returns the page's state before and after.
std::pair<HitState, HitState> OneHit(bool write, bool touch) {
  Rig rig;
  uint64_t v = rig.Resident(1)[0];
  rig.kernel.page_table().At(v).prefetched = true;
  HitState before = HitState::Of(rig, v);
  if (touch) {
    EXPECT_TRUE(TouchOnce(rig, v, write).hit);
  } else {
    EXPECT_TRUE(rig.kernel.TryFastAccess(v, write));
  }
  EXPECT_EQ(rig.engine.now(), 0);
  return {before, HitState::Of(rig, v)};
}

// A Touch that hits has the effects of one awaited access that hits: the
// same PTE bits, one fast hit, one prefetch hit on a prefetched page, and no
// time.
TEST(AppThreadTest, TouchHitEqualsOneAwaitedAccess) {
  for (bool write : {false, true}) {
    auto [before, after] = OneHit(write, /*touch=*/true);
    EXPECT_EQ(OneHit(write, /*touch=*/false), std::make_pair(before, after));
    EXPECT_TRUE(after.accessed);
    EXPECT_EQ(after.dirty, write);
    EXPECT_EQ(after.remote_valid, !write);
    EXPECT_FALSE(after.prefetched);
    EXPECT_EQ(after.fast_hits, before.fast_hits + 1);
    EXPECT_EQ(after.prefetch_hits, before.prefetch_hits + 1);
    EXPECT_EQ(after.pending, before.pending);
  }
}

// --- Hit run vs. the awaited loop ---

// One step of an app thread's access sequence: touch `vpn` (relative to
// vpn_base), then compute for `ns`.
struct Step {
  uint64_t vpn;
  bool write;
  SimTime ns;
};

struct Scenario {
  const char* name;
  KernelConfig kernel;
  int threads;
  uint64_t region_pages;
  uint64_t vpn_base;
  size_t steps;
  SimTime time_limit;  // 0: run every sequence to its end
  uint64_t seed;
};

void PrintTo(const Scenario& sc, std::ostream* os) { *os << sc.name; }

// Random sequences with sequential stretches (read-ahead fodder when the
// kernel prefetches), random hops, writes, and the odd long compute step
// that crosses the 20 us quantum between two accesses.
std::vector<Step> MakeSequence(const Scenario& sc, int tid) {
  Rng rng(sc.seed * 1000 + static_cast<uint64_t>(tid));
  std::vector<Step> seq;
  uint64_t vpn = rng.NextU64(sc.region_pages);
  while (seq.size() < sc.steps) {
    if (rng.NextBool(0.15)) {
      uint64_t len = 1 + rng.NextU64(48);
      for (uint64_t k = 0; k < len && seq.size() < sc.steps; ++k) {
        vpn = (vpn + 1) % sc.region_pages;
        seq.push_back({vpn, rng.NextBool(0.2), static_cast<SimTime>(20 + rng.NextU64(400))});
      }
      continue;
    }
    vpn = rng.NextU64(sc.region_pages);
    SimTime ns = rng.NextBool(0.02) ? static_cast<SimTime>(4000 + rng.NextU64(20000))
                                    : static_cast<SimTime>(rng.NextU64(900));
    seq.push_back({vpn, rng.NextBool(0.3), ns});
  }
  return seq;
}

// `threads` app threads each run their sequence, through RunHits or
// through the reference loop, checking for shutdown before every step and
// logging logical_now() after every step; one more thread steals time from
// the app cores at random instants, as flush IPIs do, so stolen time lands
// between runs as well as inside awaited faults.
class SequenceWorkload : public Workload {
 public:
  SequenceWorkload(const Scenario& sc, bool hit_run) : sc_(sc), hit_run_(hit_run) {
    for (int tid = 0; tid < sc.threads; ++tid) seqs_.push_back(MakeSequence(sc, tid));
    now_log_.resize(static_cast<size_t>(sc.threads));
  }

  std::string name() const override { return "sequence"; }
  uint64_t wss_pages() const override { return sc_.vpn_base + sc_.region_pages; }
  int num_threads() const override { return sc_.threads + 1; }

  Task<> ThreadBody(AppThread& t, int tid) override {
    Engine& eng = Engine::current();
    if (tid == sc_.threads) {
      for (int k = 0; k < 400 && !eng.shutdown_requested(); ++k) {
        co_await Delay{static_cast<SimTime>(500 + t.rng().NextU64(20000))};
        CoreId victim = static_cast<CoreId>(t.rng().NextU64(static_cast<uint64_t>(sc_.threads)));
        t.kernel().topology().core(victim).AddStolenTime(
            static_cast<SimTime>(1 + t.rng().NextU64(3000)));
      }
      co_return;
    }
    t.set_vpn_base(sc_.vpn_base);
    const std::vector<Step>& seq = seqs_[static_cast<size_t>(tid)];
    std::vector<SimTime>& log = now_log_[static_cast<size_t>(tid)];
    if (hit_run_) {
      if (seq.empty() || eng.shutdown_requested()) co_return;
      size_t i = 0;
      co_await t.RunHits([&](AppThread::HitRun& r) {
        while (i < seq.size()) {
          const Step& st = seq[i];
          if (!r.Touch(st.vpn, st.write)) return;
          r.Compute(st.ns);
          ++r.ops;
          log.push_back(r.logical_now());
          if (++i < seq.size() && r.shutdown_requested()) return;
        }
      });
    } else {
      // The awaited loop as workloads wrote it before RunHits. An access
      // hits in place while the quantum is not exceeded, no time was stolen
      // since the thread's last flush, and the page is present; otherwise it
      // flushes the pending time and faults until the access hits.
      Core& cpu = t.kernel().topology().core(t.core());
      SimTime stolen_seen = 0;  // cpu's stolen-time total as of the last flush
      for (const Step& st : seq) {
        if (eng.shutdown_requested()) co_return;
        const uint64_t vpn = st.vpn + t.vpn_base();
        if (!(t.pending_compute() < static_cast<double>(kAppQuantum) &&
              cpu.stolen_total_ns() == stolen_seen && t.kernel().TryFastAccess(vpn, st.write))) {
          stolen_seen = cpu.stolen_total_ns();  // Sync drains up to here, at once
          co_await t.Sync();
          while (!t.kernel().TryFastAccess(vpn, st.write)) {
            co_await t.kernel().Fault(t.core(), vpn, st.write);
          }
        }
        t.Compute(st.ns);
        ++t.ops;
        log.push_back(t.logical_now());
      }
    }
  }

  const std::vector<std::vector<SimTime>>& now_log() const { return now_log_; }

 private:
  Scenario sc_;
  bool hit_run_;
  std::vector<std::vector<Step>> seqs_;
  std::vector<std::vector<SimTime>> now_log_;
};

// Everything the two loops could disagree on.
struct Outcome {
  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;
  std::vector<uint64_t> kernel;          // KernelStats counters
  std::vector<unsigned> pte_flags;       // per page, one bit per flag
  std::vector<uint64_t> pending_bits;    // per thread, pending_compute()'s bits
  std::vector<uint64_t> ops;             // per thread
  std::vector<std::vector<SimTime>> now_log;
  SimTime end_ns = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome RunScenario(const Scenario& sc, bool hit_run) {
  Tracer tracer;
  TraceHashSink hash;
  tracer.AddSink(&hash);
  tracer.Install();

  SequenceWorkload wl(sc, hit_run);
  FarMemoryMachine::Options opt;
  opt.kernel = sc.kernel;
  opt.local_mem_ratio = 0.5;
  opt.seed = sc.seed;
  opt.time_limit = sc.time_limit;
  FarMemoryMachine m(opt, wl);
  RunResult r = m.Run();
  tracer.Uninstall();

  Outcome o;
  o.trace_hash = hash.hash();
  o.trace_events = hash.total_events();
  const KernelStats& ks = m.kernel().stats();
  o.kernel = {ks.faults,         ks.fast_hits,        ks.dedup_waits,    ks.sync_evictions,
              ks.free_page_waits, ks.evicted_pages,    ks.eviction_batches, ks.clean_reclaims,
              ks.prefetched_pages, ks.prefetch_hits};
  PageTable& pt = m.kernel().page_table();
  for (uint64_t v = 0; v < pt.num_pages(); ++v) {
    const Pte& pte = pt.At(v);
    o.pte_flags.push_back(static_cast<unsigned>(pte.present | pte.accessed << 1 | pte.dirty << 2 |
                                                pte.remote_valid << 3 | pte.prefetched << 4));
  }
  for (const auto& t : m.threads()) {
    o.pending_bits.push_back(std::bit_cast<uint64_t>(t->pending_compute()));
    o.ops.push_back(t->ops);
  }
  o.now_log = wl.now_log();
  o.end_ns = static_cast<SimTime>(r.sim_seconds * 1e9 + 0.5);
  return o;
}

KernelConfig Prefetching(KernelConfig c) {
  c.prefetch = true;
  return c;
}

class HitRunDifferentialTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(HitRunDifferentialTest, HitRunIsTheAwaitedLoop) {
  const Scenario& sc = GetParam();
  Outcome ref = RunScenario(sc, /*hit_run=*/false);
  Outcome run = RunScenario(sc, /*hit_run=*/true);
  // The scenario must exercise what it claims to: faults, prefetch hits,
  // pending time with a fraction, and (with a time limit) a cut.
  ASSERT_GT(ref.kernel[0], 0u) << "no faults";
  ASSERT_GT(ref.kernel[1], 0u) << "no hits";
  if (sc.kernel.prefetch) {
    ASSERT_GT(ref.kernel[9], 0u) << "no prefetch hits";
  }
  if (sc.time_limit > 0) {
    size_t done = 0;
    for (const auto& log : ref.now_log) done += log.size();
    ASSERT_LT(done, sc.steps * static_cast<size_t>(sc.threads)) << "the time limit cut nothing";
  }
  EXPECT_EQ(run.trace_hash, ref.trace_hash);
  EXPECT_EQ(run.trace_events, ref.trace_events);
  EXPECT_EQ(run.kernel, ref.kernel);
  EXPECT_EQ(run.pte_flags, ref.pte_flags);
  EXPECT_EQ(run.pending_bits, ref.pending_bits);
  EXPECT_EQ(run.ops, ref.ops);
  EXPECT_EQ(run.now_log, ref.now_log);
  EXPECT_EQ(run.end_ns, ref.end_ns);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, HitRunDifferentialTest,
    ::testing::Values(
        Scenario{"magelib_prefetch_base", Prefetching(MageLibConfig()), 4, 3000, 777, 4000, 0, 1},
        Scenario{"hermit_base", HermitConfig(), 3, 2500, 4096, 4000, 0, 2},
        Scenario{"dilos_prefetch_cut", Prefetching(DilosConfig()), 5, 2000, 123, 6000,
                 2 * kMillisecond, 3},
        Scenario{"magelnx_cut", MageLnxConfig(), 2, 1500, 64, 5000, 3 * kMillisecond, 4}),
    [](const ::testing::TestParamInfo<Scenario>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace magesim
