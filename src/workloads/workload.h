// Application-side interface to the paging kernel.
//
// Workloads are real algorithms operating on a simulated address space at
// page granularity: an AppThread accumulates compute time locally (no engine
// events on the fast path) and only suspends on page faults or when its
// accumulated time exceeds a quantum, which keeps multi-million-access
// workloads cheap to simulate while preserving fault timing.
#ifndef MAGESIM_WORKLOADS_WORKLOAD_H_
#define MAGESIM_WORKLOADS_WORKLOAD_H_

#include <cassert>
#include <cstdint>
#include <string>

#include "src/metrics/profiler.h"
#include "src/paging/kernel.h"
#include "src/sim/random.h"

namespace magesim {

// Compute-time accumulation quantum: an app thread syncs with the engine at
// least this often even without faulting, so eviction scanning observes
// reasonably fresh accessed bits.
inline constexpr SimTime kAppQuantum = 20 * kMicrosecond;

class AppThread {
 public:
  AppThread(Kernel& kernel, CoreId core, uint64_t seed)
      : kernel_(kernel),
        core_(core),
        cpu_(&kernel.topology().core(core)),
        rng_(seed),
        compute_factor_(kernel.config().compute_overhead_factor) {}

  CoreId core() const { return core_; }
  Rng& rng() { return rng_; }
  Kernel& kernel() { return kernel_; }

  // Accumulates local compute time (scaled by the variant's virtualization
  // overhead factor). Accumulation is fractional so sub-nanosecond tax on
  // small quanta is not truncated away.
  void Compute(SimTime ns) { pending_acc_ += static_cast<double>(ns) * compute_factor_; }

  // Engine time plus locally accumulated (not yet flushed) compute time.
  SimTime logical_now() const {
    return Engine::current().now() + static_cast<SimTime>(pending_acc_);
  }
  // The locally accumulated compute time itself, fractional ns included.
  double pending_compute() const { return pending_acc_; }

  // One plain run of a workload's access sequence (docs/INTERNALS.md §2):
  // the body calls Touch, Compute and `++ops`. No engine event can run
  // inside a plain call, so a run snapshots what only an event can change
  // (engine time, the shutdown flag, whether time was stolen), keeps the PTE
  // base, the pending time and its counters in locals, and writes them back
  // once, when it ends.
  class HitRun {
   public:
    // One access to page `vpn` (relative to vpn_base). A hit (page present,
    // quantum not exceeded, no time stolen since the last flush) marks the
    // PTE accessed (and dirty on a write) and counts a fast hit, and a
    // prefetch hit on a prefetched page. A miss returns false with no side
    // effect, and the body must return at once; the awaited path does the
    // access, and in the next run this same access, its first Touch,
    // returns true at once.
    bool Touch(uint64_t vpn, bool write) {
      if (resume_) [[unlikely]] {
        resume_ = false;
        assert(vpn == miss_vpn_ && write == miss_write_);
        return true;
      }
      if (pending_ < static_cast<double>(kAppQuantum) && !stolen_ &&
          TouchIfPresent(ptes_[vpn], write, prefetch_hits_)) {
        ++hits_;
        return true;
      }
      missed_ = true;
      miss_vpn_ = vpn;
      miss_write_ = write;
      return false;
    }

    // AppThread::Compute, on the run's copy of the pending time.
    void Compute(SimTime ns) { pending_ += static_cast<double>(ns) * compute_factor_; }
    SimTime logical_now() const { return now_ + static_cast<SimTime>(pending_); }
    bool shutdown_requested() const { return shutdown_; }

    uint64_t ops = 0;  // added to AppThread::ops when the run ends

   private:
    friend class AppThread;

    HitRun(AppThread& t, bool resume)
        : ptes_(&t.kernel_.page_table().At(0) + t.vpn_base_),
          pending_(t.pending_acc_),
          compute_factor_(t.compute_factor_),
          now_(Engine::current().now()),
          stolen_(t.cpu_->stolen_total_ns() != t.stolen_seen_),
          shutdown_(Engine::current().shutdown_requested()),
          resume_(resume),
          miss_vpn_(t.miss_vpn_),
          miss_write_(t.miss_write_) {}

    Pte* ptes_;
    double pending_;
    double compute_factor_;
    SimTime now_;
    bool stolen_;
    bool shutdown_;
    bool resume_;
    bool missed_ = false;
    uint64_t miss_vpn_;
    bool miss_write_;
    uint64_t hits_ = 0;
    uint64_t prefetch_hits_ = 0;
  };

  // Runs `body(HitRun&)` in plain runs, awaiting only its misses; a run
  // that ends without a miss completes the co_await in place. The body
  // keeps its place in a cursor it owns, so that what it runs again before
  // the resumed Touch has no effect and reads nothing an event can change.
  // Usage: `co_await t.RunHits([&](AppThread::HitRun& r) {...});`
  template <typename Body>
  struct RunAwaiter {
    AppThread& t;
    Body body;
    Task<> slow;

    bool await_ready() { return t.RunPlain(body, /*resume=*/false); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      slow = t.RunSlow(body);
      return slow.BeginAwait(h);
    }
    void await_resume() {
      if (slow.valid()) slow.RethrowIfException();
    }
  };

  template <typename Body>
  RunAwaiter<Body> RunHits(Body body) {
    return RunAwaiter<Body>{*this, std::move(body), {}};
  }

  // Shifts every access by a fixed page offset: multi-tenant composition
  // places each tenant's workload in its own disjoint vpn window while the
  // inner workload keeps addressing [0, wss_pages).
  void set_vpn_base(uint64_t base) { vpn_base_ = base; }
  uint64_t vpn_base() const { return vpn_base_; }

  // Flushes accumulated compute time to the engine (used at loop boundaries
  // and before reading wall-clock-like state).
  Task<> Sync() {
    SimTime d = TakePending();
    if (d > 0) co_await Delay{d};
  }

  uint64_t ops = 0;  // workload-defined unit of work counter

 private:
  SimTime TakePending() {
    SimTime whole = static_cast<SimTime>(pending_acc_);
    pending_acc_ -= static_cast<double>(whole);  // keep the fractional remainder
    SimTime stolen = cpu_->DrainStolenTime();
    stolen_seen_ = cpu_->stolen_total_ns();
    // The caller immediately elapses the returned duration, so attributing
    // here matches the simulated interval: accumulated quanta are app
    // compute, absorbed flush-IPI handler time is TLB-shootdown overhead.
    if (SimProfiler* prof = SimProfiler::Get()) {
      prof->AddPhase(core_, SimPhase::kAppCompute, whole);
      prof->AddPhase(core_, SimPhase::kTlbWait, stolen);
    }
    return whole + stolen;
  }

  // One plain run of `body`; true when it finished, false when it stopped
  // at a miss (kept in miss_vpn_/miss_write_). Kept out of line so that
  // each body has one caller, which inlines it: `r` then never leaves this
  // frame, and its fields live in registers.
  template <typename Body>
  [[gnu::noinline]] bool RunPlain(Body& body, bool resume) {
    HitRun r(*this, resume);
    body(r);
    pending_acc_ = r.pending_;
    ops += r.ops;
    KernelStats& stats = kernel_.mutable_stats();
    stats.fast_hits += r.hits_;
    stats.prefetch_hits += r.prefetch_hits_;
    miss_vpn_ = r.miss_vpn_;
    miss_write_ = r.miss_write_;
    return !r.missed_;
  }

  // The awaited side of RunHits: does each missed access (the plain check
  // just refused it, and no event ran since) by flushing the pending time,
  // then faulting until the access hits, and resumes the body.
  // magesim-lint: allow(coroutine-ref-capture): body is the RunAwaiter's
  // member, which lives in the awaiting frame until this task resumes it.
  template <typename Body>
  Task<> RunSlow(Body& body) {
    do {
      SimTime d = TakePending();
      if (d > 0) co_await Delay{d};
      const uint64_t vpn = miss_vpn_ + vpn_base_;
      const bool write = miss_write_;
      while (!kernel_.TryFastAccess(vpn, write)) {
        co_await kernel_.Fault(core_, vpn, write);
      }
    } while (!RunPlain(body, /*resume=*/true));
  }

  Kernel& kernel_;
  CoreId core_;
  Core* cpu_;  // topology().core(core_), resolved once
  Rng rng_;
  double compute_factor_;
  double pending_acc_ = 0;
  SimTime stolen_seen_ = 0;
  uint64_t vpn_base_ = 0;
  uint64_t miss_vpn_ = 0;  // the access a hit run stopped at (relative to vpn_base)
  bool miss_write_ = false;
};

// How a workload refuses an empty or too-small region or table (a size that
// would divide by zero or run to a silent 0): throws std::invalid_argument
// "<who>: <field>=<value> must be at least <min>".
void RequireAtLeast(const char* who, const char* field, uint64_t value, uint64_t min);

// A multi-threaded application.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  // Pages of simulated address space the workload touches ([0, wss_pages)).
  virtual uint64_t wss_pages() const = 0;
  virtual int num_threads() const = 0;
  // Body of thread `tid`, running on `t.core()`. Must return (poll
  // Engine::current().shutdown_requested() in unbounded loops).
  virtual Task<> ThreadBody(AppThread& t, int tid) = 0;

  // Human-readable unit for `ops` (throughput reporting).
  virtual std::string ops_unit() const { return "ops"; }
};

}  // namespace magesim

#endif  // MAGESIM_WORKLOADS_WORKLOAD_H_
