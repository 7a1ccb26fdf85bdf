// magebench driver: runs one workload for a fixed host-time budget, in one
// process on one OS thread (simulated cores are coroutines), and prints one
// JSON line per repetition followed by a "done" line. Each repetition builds
// the workload (or, where Scenario::runs_per_workload allows, copies an unrun
// one) and the machine from scratch, and reports every set-up it timed.
//
//   magebench --workload scan_evict --seed 1 --seconds 20 --mode e2e
//
// Modes:
//   e2e     untraced repetitions only (the end-to-end metrics)
//   traced  rotates four variants: plain (followed by the per-layer replay
//           drivers), traced (Options::metrics + Options::spans with
//           sample_every=1), spans only, and metrics only; the driver's own
//           host-time spans are recorded around every call it makes
//
// Untraced repetitions also time the fixed work of the magebench_reference
// program (driver/reference.cc), which the driver starts from its own
// directory, so that host times can be scaled to a reference host speed.
//
// --size < 1 shrinks every workload (smoke tests). A benchmark-size run
// measures at least three rounds of its variants after the warm-up, a
// smoke-size run at least one.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "magebench/driver/bench.h"
#include "src/check/invariant_checker.h"

namespace magebench {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

void Record::U(const std::string& k, uint64_t v) { kv_.emplace_back(k, std::to_string(v)); }

void Record::F(const std::string& k, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  kv_.emplace_back(k, buf);
}

void Record::S(const std::string& k, const std::string& v) {
  kv_.emplace_back(k, "\"" + JsonEscape(v) + "\"");
}

void Record::Obj(const std::string& k, const Record& v) { kv_.emplace_back(k, v.Json()); }

void Record::Raw(const std::string& k, const std::string& json) { kv_.emplace_back(k, json); }

std::string Record::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < kv_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(kv_[i].first) + "\": " + kv_[i].second;
  }
  return out + "}";
}

void SpanLog::Mark(const std::string& next) {
  double now = WallNow();
  if (origin_ < 0) origin_ = now;
  if (!spans_.empty() && spans_.back().t1 == 0) spans_.back().t1 = now - origin_;
  spans_.push_back(Span{next, now - origin_, 0});
}

void SpanLog::Close() {
  if (!spans_.empty() && spans_.back().t1 == 0) spans_.back().t1 = WallNow() - origin_;
}

std::string SpanLog::Json() const {
  std::string out = "[";
  char buf[128];
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s[\"%s\", %.9f, %.9f]", i > 0 ? ", " : "",
                  spans_[i].name.c_str(), spans_[i].t0, spans_[i].t1);
    out += buf;
  }
  return out + "]";
}

namespace {

using magesim::FarMemoryMachine;
using magesim::RunResult;

struct Variant {
  const char* name;
  bool metrics;
  bool spans;
  bool replay;
  // The untraced end-to-end repetition: it times Scenario::setup_samples
  // set-ups and shares one generated workload over
  // Scenario::runs_per_workload repetitions.
  bool e2e;
};

constexpr Variant kPlain{"plain", false, false, false, true};
constexpr Variant kPlainReplay{"plain", false, false, true, false};
constexpr Variant kTraced{"traced", true, true, false, false};
constexpr Variant kSpansOnly{"spans", false, true, false, false};
constexpr Variant kMetricsOnly{"metrics", true, false, false, false};

// An unrun workload that the next repetitions copy instead of generating.
struct WorkloadPool {
  std::unique_ptr<magesim::Workload> proto;
  int uses_left = 0;
};

std::string JsonList(const std::vector<double>& xs) {
  std::string out = "[";
  char buf[40];
  for (size_t i = 0; i < xs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? ", " : "", xs[i]);
    out += buf;
  }
  return out + "]";
}

uint64_t Ns(double seconds) { return static_cast<uint64_t>(seconds * 1e9 + 0.5); }

void AddLock(Record* rec, const std::string& prefix, const magesim::LockStats& s) {
  rec->U(prefix + "_acquisitions", s.acquisitions);
  rec->U(prefix + "_contended", s.contended);
  rec->U(prefix + "_wait_ns", static_cast<uint64_t>(s.total_wait_ns));
}

// Every deterministic simulated quantity the metrics are derived from. The
// aggregator requires these to be identical across repetitions and variants.
Record SimRecord(FarMemoryMachine& m, const RunResult& r) {
  magesim::Kernel& k = m.kernel();
  const magesim::KernelStats& ks = k.stats();
  Record s;
  s.U("faults", r.faults);
  s.U("total_ops", r.total_ops);
  s.U("sim_ns", Ns(r.sim_seconds));
  s.U("measured_ns", Ns(r.measured_seconds));
  s.F("ops_per_sec", r.ops_per_sec);
  s.F("fault_mops", r.fault_mops);
  s.U("fault_p50_ns", static_cast<uint64_t>(r.fault_latency.Percentile(50)));
  s.U("fault_p99_ns", static_cast<uint64_t>(r.fault_latency.Percentile(99)));
  s.U("fault_p999_ns", static_cast<uint64_t>(r.fault_latency.Percentile(99.9)));
  s.U("fault_latency_count", r.fault_latency.count());
  s.F("nic_read_gbps", r.nic_read_gbps);
  s.F("nic_write_gbps", r.nic_write_gbps);
  s.U("sync_evictions", r.sync_evictions);
  s.U("evicted_pages", r.evicted_pages);
  s.U("free_page_waits", r.free_page_waits);
  s.U("fast_hits", ks.fast_hits);
  s.U("dedup_waits", ks.dedup_waits);
  s.U("clean_reclaims", ks.clean_reclaims);
  uint64_t reads = m.nic().reads_posted(), writes = m.nic().writes_posted();
  uint64_t read_q_p99 = static_cast<uint64_t>(m.nic().read_queueing().Percentile(99));
  if (magesim::FleetManager* fleet = m.fleet()) {
    for (int i = 1; i < fleet->num_nodes(); ++i) {
      reads += fleet->nic(i).reads_posted();
      writes += fleet->nic(i).writes_posted();
    }
  }
  s.U("nic_reads", reads);
  s.U("nic_writes", writes);
  s.U("nic_read_queue_p99_ns", read_q_p99);
  s.U("shootdowns", k.tlb().shootdowns());
  s.U("ipis", r.ipis_sent);
  s.U("tlb_shootdown_p99_ns", static_cast<uint64_t>(r.tlb_shootdown_latency.Percentile(99)));
  AddLock(&s, "alloc_lock", k.allocator().lock_stats());
  AddLock(&s, "acct_lock", r.accounting_lock);
  for (const auto& [cat, e] : r.fault_breakdown.entries()) {
    s.U("stage." + cat + "_ns", static_cast<uint64_t>(e.total_ns));
  }
  uint64_t hard_waits = 0, max_overage = 0;
  for (const magesim::TenantRunResult& t : r.tenants) {
    s.F("tenant." + t.name + ".ops_per_sec", t.ops_per_sec);
    hard_waits += t.hard_limit_waits;
    max_overage = std::max(max_overage, t.max_overage_pages);
  }
  s.U("tenant_hard_limit_waits", hard_waits);
  s.U("tenant_max_overage_pages", max_overage);
  s.U("fleet_degraded_reads", r.fleet_degraded_reads);
  s.U("fleet_repairs_queued", r.fleet_repairs_queued);
  s.U("fleet_slots_rebuilt", r.fleet_slots_rebuilt);
  s.U("fleet_rebuild_pending", r.fleet_rebuild_pending);
  s.U("fleet_slots_lost", r.fleet_slots_lost);
  s.U("fleet_silent_losses", r.fleet_silent_losses);
  s.U("rdma_retries", r.rdma_retries);
  s.U("rdma_timeouts", r.rdma_timeouts);
  s.U("breaker_opens", r.breaker_opens);
  s.U("pages_poisoned", r.pages_poisoned);
  s.U("writebacks_lost", r.writebacks_lost);
  return s;
}

// Profiler phases, named lock waits and the p99-band critical path of
// faults, from the program's own metrics and span switches.
Record TraceRecord(FarMemoryMachine& m, const RunResult& r) {
  Record t;
  if (magesim::SimProfiler* prof = m.profiler()) {
    magesim::SimTime end = static_cast<magesim::SimTime>(Ns(r.sim_seconds));
    for (int p = 0; p < magesim::kNumSimPhases; ++p) {
      auto phase = static_cast<magesim::SimPhase>(p);
      t.U(std::string("phase.") + magesim::SimPhaseName(phase) + "_ns",
          static_cast<uint64_t>(prof->phase_total(phase)));
    }
    magesim::SimTime idle = 0;
    for (int c = 0; c < prof->num_cores(); ++c) {
      magesim::SimTime left = end - prof->core_attributed(c);
      idle += left > 0 ? left : 0;
    }
    t.U("phase.idle_ns", static_cast<uint64_t>(idle));
    for (const auto& [name, ns] : prof->lock_waits()) {
      t.U("lock." + name + "_ns", static_cast<uint64_t>(ns));
    }
  }
  if (magesim::SpanTracer* spans = m.spans()) {
    magesim::SpanTailSummary tail = spans->Tail(magesim::SpanKind::kFault);
    const magesim::SpanTailBand& p99 = tail.bands[2];
    t.U("p99.ops", p99.ops);
    for (int k = 0; k < magesim::kNumSpanKinds; ++k) {
      auto kind = static_cast<magesim::SpanKind>(k);
      t.U(std::string("p99.") + magesim::SpanKindName(kind) + "_ns",
          static_cast<uint64_t>(p99.phase_ns[static_cast<size_t>(k)]));
    }
  }
  return t;
}

Record CostRecord(const LayerCost& c) {
  Record r;
  r.U("ops", c.ops);
  r.F("ns_per_op", c.ns_per_op);
  r.F("events_per_op", c.events_per_op);
  return r;
}

// `ys` times the yardsticks around every untraced (Variant::e2e) repetition.
std::string RunRep(const Scenario& sc, const Variant& v, bool warmup, WorkloadPool* pool,
                   SpanLog* log, Yardsticks* ys) {
  auto mark = [log](const char* name) {
    if (log != nullptr) log->Mark(name);
  };
  FarMemoryMachine::Options opt = sc.options();
  opt.metrics.enabled = v.metrics;
  opt.spans.enabled = v.spans;
  opt.spans.sample_every = 1;
  std::vector<double> gen_s, build_s, ref_mem_s, ref_alloc_s;
  // The untraced repetition times both yardsticks just before its set-ups
  // and just after its Run(), so that its host times can be scaled to the
  // reference speed (aggregate.host_scale).
  if (v.e2e) {
    ref_alloc_s.push_back(ys->Seconds('a'));
    ref_mem_s.push_back(ys->Seconds('m'));
  }
  for (int i = 1; v.e2e && i < sc.setup_samples; ++i) {
    double a = WallNow();
    std::unique_ptr<magesim::Workload> extra_wl = sc.make_workload();
    double b = WallNow();
    FarMemoryMachine extra(opt, *extra_wl);
    gen_s.push_back(b - a);
    build_s.push_back(WallNow() - b);
  }
  const bool reuse = v.e2e && sc.runs_per_workload > 1;
  mark("workload_gen");
  double t0 = WallNow();
  std::unique_ptr<magesim::Workload> wl;
  bool generated = !(reuse && pool->uses_left > 0);
  if (generated) {
    wl = sc.make_workload();
  } else {
    wl = sc.copy_workload(*pool->proto);
    --pool->uses_left;
  }
  double t1 = WallNow();
  if (reuse && generated) {
    pool->proto = sc.copy_workload(*wl);
    pool->uses_left = sc.runs_per_workload - 1;
  }
  mark("machine_build");
  double t1_build = WallNow();
  auto m = std::make_unique<FarMemoryMachine>(opt, *wl);
  mark("run");
  double t2 = WallNow();
  // A set-up sample is a generation plus a build; a copied workload gives none.
  if (generated) {
    gen_s.push_back(t1 - t0);
    build_s.push_back(t2 - t1_build);
  }
  RunResult r = m->Run();
  double t3 = WallNow();
  if (v.e2e) {
    ref_mem_s.push_back(ys->Seconds('m'));
    ref_alloc_s.push_back(ys->Seconds('a'));
  }
  mark("extract");
  // The invariant checker's final check, made here rather than through
  // Options::check_final so that it stays outside the timed Run().
  magesim::InvariantChecker checker(m->kernel());
  checker.CheckNow();
  Record sim = SimRecord(*m, r);
  std::string fail;
  if (!checker.ok()) fail = "invariant violation: " + checker.violations().front().message;
  std::string wl_fail = sc.check(*m, m->workload(), r, &sim);
  if (fail.empty()) fail = wl_fail;
  uint64_t events = m->engine().events_processed();
  // Remote page operations: fault-ins plus writebacks of dirty victims.
  const magesim::KernelStats& ks = m->kernel().stats();
  uint64_t attempted = r.faults + r.prefetched_pages + (r.evicted_pages - ks.clean_reclaims);
  uint64_t failed = r.pages_poisoned + r.writebacks_lost + r.fleet_slots_lost;

  Record rec;
  rec.S("kind", "rep");
  rec.S("variant", v.name);
  rec.U("warmup", warmup ? 1 : 0);
  rec.Raw("gen_s", JsonList(gen_s));
  rec.Raw("build_s", JsonList(build_s));
  rec.F("run_s", t3 - t2);
  rec.Raw("ref_mem_s", JsonList(ref_mem_s));
  rec.Raw("ref_alloc_s", JsonList(ref_alloc_s));
  rec.U("events", events);
  rec.U("attempted", attempted);
  rec.U("failed", failed);
  rec.S("fail", fail);
  rec.Obj("sim", sim);
  if (v.metrics || v.spans) rec.Obj("trace", TraceRecord(*m, r));
  if (v.replay) {
    // App threads, evictors, the controller, and the time-limit/warm-up tasks.
    int tasks = m->workload().num_threads() + opt.kernel.num_evictors + 3;
    ReplayCosts c = ReplayLayers(*m, events, tasks, log);
    Record rc;
    rc.Obj("sim", CostRecord(c.sim));
    rc.Obj("mem_alloc", CostRecord(c.mem_alloc));
    rc.Obj("mem_pt", CostRecord(c.mem_pt));
    rc.Obj("accounting", CostRecord(c.accounting));
    rc.Obj("hw_nic", CostRecord(c.hw_nic));
    rc.Obj("hw_tlb", CostRecord(c.hw_tlb));
    rec.Obj("replay", rc);
  }
  mark("teardown");
  m.reset();
  wl.reset();
  mark("report");
  return rec.Json();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "magebench: %s\nusage: magebench --workload <name> --seed <n> --seconds <s> "
               "[--mode e2e|traced] [--size <f>]\n",
               msg);
  std::exit(2);
}

}  // namespace
}  // namespace magebench

int main(int argc, char** argv) {
  using namespace magebench;
  std::string workload, mode = "e2e";
  uint64_t seed = 0;
  double seconds = -1, size = 1.0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + a).c_str());
    std::string val = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = val;
    } else if (a == "--mode") {
      mode = val;
    } else if (a == "--seed") {
      seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0') seconds = -1;
    } else if (a == "--size") {
      size = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(size > 0 && size <= 1)) Usage("bad --size");
    } else {
      Usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed) Usage("--seed must be a non-negative integer");
  if (!(seconds > 0)) Usage("--seconds must be positive");
  if (mode != "e2e" && mode != "traced") Usage("--mode must be e2e or traced");

  Scenario sc;
  try {
    sc = MakeScenario(workload, seed, size);
  } catch (const std::exception& e) {
    Usage(e.what());
  }

  std::vector<Variant> variants;
  if (mode == "e2e") {
    variants = {kPlain};
  } else {
    variants = {kPlainReplay, kTraced, kSpansOnly, kMetricsOnly};
  }
  WorkloadPool pool;
  SpanLog log;
  SpanLog* logp = mode == "traced" ? &log : nullptr;
  double start = 0;
  try {
    // The yardstick program is built next to the driver.
    std::string self = argv[0];
    std::string dir = self.find('/') == std::string::npos ? "." : self.substr(0, self.rfind('/'));
    std::unique_ptr<Yardsticks> ys;
    if (mode == "e2e") ys = std::make_unique<Yardsticks>(dir + "/magebench_reference");
    // Warm-up: one repetition of each variant (caches, slab pools, page
    // faults of the host process), reported but excluded from the statistics.
    for (const Variant& v : variants) {
      std::printf("%s\n", RunRep(sc, v, /*warmup=*/true, &pool, nullptr, ys.get()).c_str());
      std::fflush(stdout);
    }
    pool = WorkloadPool();  // the first measured repetition generates
    const int min_rounds = size < 1.0 ? 1 : 3;
    start = WallNow();
    int rounds = 0;
    while (rounds < min_rounds || WallNow() - start < seconds) {
      for (const Variant& v : variants) {
        std::string line = RunRep(sc, v, /*warmup=*/false, &pool, logp, ys.get());
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
      }
      ++rounds;
    }
  } catch (const std::exception& e) {
    // Leaving the scope has ended the yardstick process and waited for it.
    std::fprintf(stderr, "magebench: %s\n", e.what());
    return 1;
  }
  log.Close();
  Record done;
  done.S("kind", "done");
  done.S("workload", sc.name);
  done.U("seed", seed);
  done.F("measured_s", WallNow() - start);
  done.F("peak_rss_mb", PeakRssMb());
  done.Raw("spans", log.Json());
  std::printf("%s\n", done.Json().c_str());
  return 0;
}
