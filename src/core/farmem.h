// Public entry point: assemble a simulated machine (topology, NIC, TLB
// shootdown fabric, paging kernel) around a workload, run it, and collect
// results. This is the API the examples and every benchmark harness use.
//
//   PageRankWorkload wl({.threads = 48});
//   FarMemoryMachine::Options opt;
//   opt.kernel = MageLibConfig();
//   opt.local_mem_ratio = 0.5;        // offload 50% of the WSS
//   FarMemoryMachine m(opt, wl);
//   RunResult r = m.Run();
//   std::cout << r.ops_per_sec << "\n";
#ifndef MAGESIM_CORE_FARMEM_H_
#define MAGESIM_CORE_FARMEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/analysis/lock_analyzer.h"
#include "src/check/invariant_checker.h"
#include "src/fleet/fleet.h"
#include "src/metrics/metrics.h"
#include "src/metrics/profiler.h"
#include "src/metrics/sampler.h"
#include "src/paging/kernel.h"
#include "src/paging/kernels.h"
#include "src/resilience/fault_injector.h"
#include "src/resilience/rebuild.h"
#include "src/resilience/resilient_rdma.h"
#include "src/spans/spans.h"
#include "src/tenancy/memcg.h"
#include "src/trace/trace.h"
#include "src/workloads/workload.h"

namespace magesim {

// Per-tenant slice of a multi-tenant run (empty unless Options::tenancy
// attached memory control groups).
struct TenantRunResult {
  std::string name;
  QosClass qos = QosClass::kNormal;
  uint64_t ops = 0;
  double ops_per_sec = 0;
  uint64_t faults = 0;
  uint64_t usage_pages = 0;       // resident charge at end of run
  uint64_t peak_usage_pages = 0;
  uint64_t hard_limit_pages = 0;  // 0 = unlimited
  uint64_t soft_limit_pages = 0;
  uint64_t effective_soft_limit_pages = 0;
  uint64_t max_overage_pages = 0;
  uint64_t evict_selected = 0;
  uint64_t hard_limit_waits = 0;
  SimTime hard_wait_ns = 0;
  uint64_t soft_adjusts = 0;
  uint64_t prefetch_denied = 0;
  uint64_t backpressure_waits = 0;
};

struct RunResult {
  // Workload-completion time (when the last application thread finished, or
  // the configured time limit).
  double sim_seconds = 0;
  // Length of the measured window (sim_seconds minus warmup).
  double measured_seconds = 0;
  uint64_t total_ops = 0;
  double ops_per_sec = 0;
  double jobs_per_hour = 0;  // 3600 / sim_seconds (batch jobs, §3.1)

  // Paging behavior.
  uint64_t faults = 0;
  uint64_t sync_evictions = 0;
  uint64_t evicted_pages = 0;
  uint64_t free_page_waits = 0;
  uint64_t prefetched_pages = 0;
  double fault_mops = 0;  // major faults per second, in millions
  Histogram fault_latency;
  Breakdown fault_breakdown;
  Histogram sync_evict_latency;

  // Fabric.
  double nic_read_gbps = 0;
  double nic_write_gbps = 0;
  Histogram tlb_shootdown_latency;
  Histogram ipi_delivery_latency;
  uint64_t ipis_sent = 0;

  // Contention diagnostics.
  LockStats accounting_lock;

  // Per-core major fault counts (input to the analytic ideal model).
  std::vector<uint64_t> faults_per_core;

  // Invariant checking (when Options::check_interval / check_final enabled).
  uint64_t invariant_checks = 0;
  uint64_t invariant_violations = 0;
  std::string first_violation;  // empty when clean

  // Lock-discipline analysis (when Options::analysis enabled; zero otherwise).
  uint64_t analysis_locks = 0;        // lock instances seen
  uint64_t analysis_order_edges = 0;  // acquisition-order digraph edges
  uint64_t analysis_violations = 0;
  std::string analysis_first_violation;  // empty when clean

  // Resilience (zero unless a fault plan attached a fault model).
  uint64_t rdma_retries = 0;
  uint64_t rdma_timeouts = 0;
  uint64_t breaker_opens = 0;  // read + write channels combined
  uint64_t pages_poisoned = 0;
  uint64_t writebacks_lost = 0;
  uint64_t prefetch_throttles = 0;
  uint64_t injected_drops = 0;
  uint64_t injected_errors = 0;
  uint64_t fault_windows = 0;
  uint64_t memnode_crashes = 0;
  bool aborted = false;          // TerminalPolicy::kFailRun tripped
  std::string abort_reason;

  // Memory-server fleet (1 server unless Options::fleet.num_nodes > 1).
  uint64_t fleet_nodes = 0;
  uint64_t fleet_degraded_reads = 0;  // reads served off the placement primary
  uint64_t fleet_slots_lost = 0;      // slots surfaced with zero live replicas
  uint64_t fleet_repairs_queued = 0;
  uint64_t fleet_slots_rebuilt = 0;   // replica copies restored by rebuild
  uint64_t fleet_rebuild_pending = 0; // repair backlog at end of run
  uint64_t fleet_silent_losses = 0;   // CheckConsistency() at end — must be 0

  // Per-tenant results, in spec order (empty without tenancy).
  std::vector<TenantRunResult> tenants;
};

class FarMemoryMachine {
 public:
  // The settings with a magesim_cli flag or a MAGESIM_* environment variable
  // are rows of the knob table (src/core/knobs.h); the environment overrides
  // what the caller set here.
  struct Options {
    KernelConfig kernel;
    // Fraction of the working set kept in local DRAM; (1 - ratio) is the
    // paper's "X% far memory".
    double local_mem_ratio = 1.0;
    // Hardware preset; unset, kernel.virtualized picks VirtualizedParams() or
    // BareMetalParams().
    std::optional<MachineParams> hw;
    uint64_t seed = 1;
    // Hard stop (simulated time); 0 = run until the workload completes.
    SimTime time_limit = 0;
    // Discard everything before this instant from the measured statistics
    // (fault counts, latency histograms, NIC/TLB stats): steady-state
    // measurement for open-ended workloads.
    SimTime stats_warmup = 0;
    // Run the invariant checker every `check_interval` ns of simulated time
    // (0 = no periodic checks).
    SimTime check_interval = 0;
    // Run one final check after the simulation drains.
    bool check_final = false;
    // Unified observability (src/metrics): registry + profiler + sampler.
    struct MetricsOptions {
      bool enabled = false;
      // 0 = 1 ms default when enabled.
      SimTime sample_interval = 0;
      std::string report_path;  // JSON run-report ("" = don't write)
      std::string csv_path;     // time-series CSV
      bool progress = false;
    };
    MetricsOptions metrics;

    // Causal span tracing with critical-path tail attribution (src/spans).
    // Enabling spans adds a `tail` section to the JSON run-report and
    // spans.* counters to the registry; with spans disabled every golden
    // and benchmark is byte-identical to a build without the subsystem.
    // Sampling every 32nd root op keeps spans-on perf_fault_path within the
    // ≤5% faults/sec budget; set sample_every = 1 for full fidelity.
    struct SpansOptions : SpanTracer::Options {
      SpansOptions() { sample_every = 32; }
      bool enabled = false;
    };
    SpansOptions spans;

    // Simulated-time lock-discipline analysis (src/analysis): ownership,
    // guarded-state, lock-order and held-across-await checking on every sim
    // lock. Building with -DMAGESIM_ANALYSIS=ON flips the compile-time default
    // so the whole test suite runs analyzed.
    struct AnalysisConfig {
#ifdef MAGESIM_ANALYSIS_DEFAULT_ON
      bool enabled = true;
#else
      bool enabled = false;
#endif
      // Abort with a named diagnostic on the first violation (the CI
      // posture). When false, violations are recorded into RunResult instead.
      bool abort_on_violation = true;
    };
    AnalysisConfig analysis;

    // Deterministic fault injection: a FaultPlan spec, or "@path" to load
    // one from a file. Parse errors throw std::invalid_argument from the
    // constructor. A non-empty plan attaches the injector as every server
    // NIC's fault model, which puts remote ops under deadlines, retries and
    // circuit breakers.
    std::string fault_plan;
    // Retry/breaker/terminal-policy tuning. `resilience.seed == 0` derives a
    // stream from Options::seed.
    ResilienceOptions resilience;

    // Memory-server fleet: shard the far side over `num_nodes` servers with
    // `replication`-way replicated slots and a background rebuild driver.
    // The default is a fleet of one server (the machine's own NIC and memory
    // node).
    struct FleetConfig {
      int num_nodes = 1;       // [1, kMaxFleetNodes], else the constructor throws
      int replication = 2;     // clamped to [1, min(num_nodes, kMaxReplicas)]
      double rebuild_gbps = 10.0;  // background re-replication pacing
    };
    FleetConfig fleet;

    // Multi-tenant memory control groups. When enabled with a non-empty
    // tenant list, the machine *replaces* the workload passed to the
    // constructor with a MultiTenantWorkload built from the specs, attaches
    // a TenancyManager to the kernel (per-tenant accounting, QoS-aware
    // victim selection, hard-limit admission, balance controller), and fills
    // RunResult::tenants.
    TenancyOptions tenancy;
  };

  FarMemoryMachine(Options options, Workload& workload);
  ~FarMemoryMachine();

  // Runs the full simulation (blocking). May be called once.
  RunResult Run();

  // Accessors valid during/after Run (used by tests and custom harnesses).
  Kernel& kernel() { return *kernel_; }
  Engine& engine() { return *engine_; }
  RdmaNic& nic() { return fleet_->nic(0); }  // server 0's link
  // With tenancy attached this is the machine-built MultiTenantWorkload, not
  // the workload passed to the constructor.
  Workload& workload() { return *workload_; }
  // Null unless tenancy was enabled.
  TenancyManager* tenancy() { return tenancy_.get(); }
  const std::vector<std::unique_ptr<AppThread>>& threads() const { return threads_; }
  // Null unless checking was enabled.
  InvariantChecker* checker() { return checker_.get(); }
  // Null unless analysis was enabled.
  LockAnalyzer* analyzer() { return analyzer_.get(); }
  // The far-memory data path and its memory-server fleet (never null).
  ResilienceManager* resilience() { return resilience_.get(); }
  FleetManager* fleet() { return fleet_.get(); }
  // Null unless a fault plan was set.
  FaultInjector* injector() { return injector_.get(); }
  // Null unless the fleet has more than one server.
  RebuildDriver* rebuild() { return rebuild_.get(); }
  // Null unless metrics were enabled.
  MetricsRegistry* metrics() { return metrics_.get(); }
  // Null unless spans were enabled.
  SpanTracer* spans() { return spans_.get(); }
  SimProfiler* profiler() { return profiler_.get(); }
  MetricsSampler* sampler() { return sampler_.get(); }
  // The JSON run-report built at the end of Run(); empty when metrics are
  // disabled or before Run.
  const std::string& run_report_json() const { return report_json_; }

 private:
  Task<> RunThread(int tid);
  Task<> Controller();
  // Copies end-of-run statistics (kernel, NIC, TLB, checker, breakdown) into
  // the registry, then renders the JSON run-report.
  void PublishMetrics(const RunResult& r);
  std::string BuildRunReportJson(const RunResult& r) const;

  Options options_;
  Workload* workload_;  // the constructor argument, or owned_workload_.get()
  std::unique_ptr<Workload> owned_workload_;  // machine-built (tenancy only)
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<TlbShootdownManager> tlb_;
  std::unique_ptr<FleetManager> fleet_;
  std::unique_ptr<ResilienceManager> resilience_;
  std::unique_ptr<TenancyManager> tenancy_;  // destroyed after kernel_
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<RebuildDriver> rebuild_;
  // Recent-event window feeding violation reports; registered with the
  // installed Tracer (if any) for the duration of the run.
  std::unique_ptr<TraceRingBuffer> trace_ring_;
  std::unique_ptr<InvariantChecker> checker_;
  std::unique_ptr<LockAnalyzer> analyzer_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<SimProfiler> profiler_;
  std::unique_ptr<MetricsSampler> sampler_;
  std::unique_ptr<SpanTracer> spans_;  // installed for the machine's lifetime
  std::string report_json_;
  std::vector<std::unique_ptr<AppThread>> threads_;
  WaitGroup wg_;
  SimTime end_time_ = 0;
  bool ran_ = false;
};

}  // namespace magesim

#endif  // MAGESIM_CORE_FARMEM_H_
