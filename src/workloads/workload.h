// Application-side interface to the paging kernel.
//
// Workloads are real algorithms operating on a simulated address space at
// page granularity: an AppThread accumulates compute time locally (no engine
// events on the fast path) and only suspends on page faults or when its
// accumulated time exceeds a quantum, which keeps multi-million-access
// workloads cheap to simulate while preserving fault timing.
#ifndef MAGESIM_WORKLOADS_WORKLOAD_H_
#define MAGESIM_WORKLOADS_WORKLOAD_H_

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

  // The access fast path as a plain call: touches page `vpn` (relative to
  // vpn_base) and returns true when the PTE is present, the quantum is not
  // exceeded and no interrupt time was stolen since the last flush. Returns
  // false with no side effect at all (no PTE bit, counter or pending time
  // changes); the caller then takes the awaited path, `co_await
  // AccessPage(vpn, write)`, which retries this check and faults. A loop of
  // TryAccessPage calls that hands its first miss to the awaited path is
  // exactly the awaited loop (docs/INTERNALS.md §2).
  bool TryAccessPage(uint64_t vpn, bool write) {
    return pending_acc_ < static_cast<double>(kAppQuantum) &&
           cpu_->stolen_total_ns() == stolen_seen_ &&
           kernel_.TryFastAccess(vpn + vpn_base_, write);
  }

  // Touches the page containing `addr`. Fast path (TryAccessPage) never
  // suspends.  Usage: `co_await t.Access(addr, write);`
  struct AccessAwaiter {
    AppThread& t;
    uint64_t vpn;  // relative to vpn_base
    bool write;
    Task<> slow;

    bool await_ready() { return t.TryAccessPage(vpn, write); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      slow = t.AccessSlow(vpn + t.vpn_base_, write);
      return slow.BeginAwait(h);
    }
    void await_resume() {
      if (slow.valid()) slow.RethrowIfException();
    }
  };

  AccessAwaiter Access(uint64_t addr, bool write) {
    return AccessAwaiter{*this, addr >> kPageShift, write, {}};
  }
  AccessAwaiter AccessPage(uint64_t vpn, bool write) {
    return AccessAwaiter{*this, vpn, write, {}};
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
  friend struct AccessAwaiter;

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

  Task<> AccessSlow(uint64_t vpn, bool write) {
    SimTime d = TakePending();
    if (d > 0) co_await Delay{d};
    while (!kernel_.TryFastAccess(vpn, write)) {
      co_await kernel_.Fault(core_, vpn, write);
    }
  }

  Kernel& kernel_;
  CoreId core_;
  Core* cpu_;  // topology().core(core_), resolved once
  Rng rng_;
  double compute_factor_;
  double pending_acc_ = 0;
  SimTime stolen_seen_ = 0;
  uint64_t vpn_base_ = 0;
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
