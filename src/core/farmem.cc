#include "src/core/farmem.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <ctime>
#include <stdexcept>

#include "src/core/knobs.h"
#include "src/metrics/run_report.h"
#include "src/workloads/multi_tenant.h"

namespace magesim {

namespace {
void WriteFileOrWarn(const std::string& path, const std::string& contents) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "magesim: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
}

// Resolves a fault-plan option: "@path" loads the file, anything else is the
// plan text itself (compact spec or JSON).
std::string LoadFaultPlanText(const std::string& opt) {
  if (opt.empty() || opt[0] != '@') return opt;
  std::string path = opt.substr(1);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw std::invalid_argument("fault plan file not found: " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}
}  // namespace

FarMemoryMachine::FarMemoryMachine(Options options, Workload& workload)
    : options_(std::move(options)), workload_(&workload) {
  ApplyEnvKnobs(&options_);  // the environment overrides the caller's Options
  if (!options_.hw) {
    options_.hw = options_.kernel.virtualized ? VirtualizedParams() : BareMetalParams();
  }
  const MachineParams& hw = *options_.hw;
  engine_ = std::make_unique<Engine>();
  topo_ = std::make_unique<Topology>(hw);
  tlb_ = std::make_unique<TlbShootdownManager>(*topo_);
  nic_ = std::make_unique<RdmaNic>(hw);

  // Multi-tenant memory control groups: a non-empty tenant list replaces the
  // passed workload with a machine-built composite running one workload per
  // tenant.
  if (options_.tenancy.enabled && !options_.tenancy.tenants.empty()) {
    std::string err;
    owned_workload_ = MultiTenantWorkload::Build(&options_.tenancy.tenants, &err);
    if (owned_workload_ == nullptr) {
      throw std::invalid_argument("bad tenancy spec: " + err);
    }
    workload_ = owned_workload_.get();
  }

  uint64_t wss = workload_->wss_pages();
  double ratio = std::clamp(options_.local_mem_ratio, 0.01, 1.0);
  uint64_t local_raw = static_cast<uint64_t>(static_cast<double>(wss) * ratio);
  uint64_t local_pages;
  if (ratio >= 1.0) {
    // 100% local: everything resident plus watermark headroom, so no paging
    // activity at all (the paper's all-local baselines).
    local_pages = wss + std::max<uint64_t>(
        256, static_cast<uint64_t>(static_cast<double>(wss) *
                                   options_.kernel.high_watermark * 1.5));
  } else {
    // "X% far memory": the local VM holds exactly (1-X)% of the WSS; the
    // kernel's free-page headroom comes out of that budget, as on a real
    // memory-limited machine.
    local_pages = std::max<uint64_t>(local_raw, 512);
  }

  memnode_ = std::make_unique<MemoryNode>(static_cast<uint64_t>(wss) * kPageSize * 2);
  memnode_->RegisterSetup();
  bool reserved = memnode_->ReserveDirect(wss * kPageSize);
  assert(reserved);
  (void)reserved;

  // Memory-server fleet. Server 0 is the machine's own NIC/memnode pair; the
  // fleet owns servers 1..N-1.
  if (options_.fleet.num_nodes < 1 || options_.fleet.num_nodes > kMaxFleetNodes) {
    throw std::invalid_argument("fleet.num_nodes=" + std::to_string(options_.fleet.num_nodes) +
                                ": expected 1.." + std::to_string(kMaxFleetNodes));
  }
  FleetManager::Options fo;
  fo.num_nodes = options_.fleet.num_nodes;
  fo.replication = options_.fleet.replication;
  fo.seed = options_.seed;
  fleet_ = std::make_unique<FleetManager>(*nic_, *memnode_, hw, fo);
  ResilienceOptions ro = options_.resilience;
  if (ro.seed == 0) ro.seed = options_.seed * 0x9e3779b97f4a7c15ULL + 1;
  resilience_ = std::make_unique<ResilienceManager>(*fleet_, ro);
  if (fleet_->num_nodes() > 1) {
    // A one-server fleet has nothing to rebuild from (see
    // FleetManager::OnNodeCrash), so it gets no driver.
    RebuildOptions rbo;
    rbo.rebuild_gbps = options_.fleet.rebuild_gbps;
    rebuild_ = std::make_unique<RebuildDriver>(*fleet_, rbo);
  }
  if (options_.tenancy.enabled && !options_.tenancy.tenants.empty()) {
    tenancy_ = std::make_unique<TenancyManager>(options_.tenancy, local_pages, wss,
                                                options_.kernel.low_watermark,
                                                options_.kernel.high_watermark);
  }
  kernel_ = std::make_unique<Kernel>(options_.kernel, *topo_, *tlb_, *resilience_, local_pages,
                                     wss, tenancy_.get());

  // Deterministic fault injection.
  std::string plan_text = LoadFaultPlanText(options_.fault_plan);
  if (!plan_text.empty()) {
    std::string err;
    FaultPlan plan;
    if (!FaultPlan::Parse(plan_text, &plan, &err)) {
      throw std::invalid_argument("bad fault plan: " + err);
    }
    // A plan naming a server outside the fleet is a configuration bug: reject
    // it loudly instead of silently never firing the window.
    if (plan.max_target_node() >= fleet_->num_nodes()) {
      throw std::invalid_argument(
          "fault plan targets node " + std::to_string(plan.max_target_node()) +
          " but the machine has " + std::to_string(fleet_->num_nodes()) +
          " memory node(s)");
    }
    injector_ = std::make_unique<FaultInjector>(std::move(plan), options_.seed);
    fleet_->SetFaultModelAll(injector_.get());
    tlb_->SetFaultModel(injector_.get());
  }

  int threads = workload_->num_threads();
  assert(threads <= topo_->num_cores());
  std::vector<CoreId> app_cores;
  for (int i = 0; i < threads; ++i) {
    app_cores.push_back(i);
    threads_.push_back(std::make_unique<AppThread>(*kernel_, i, options_.seed * 1000003ULL +
                                                                     static_cast<uint64_t>(i)));
  }
  // Flush IPIs target every core that runs application threads.
  tlb_->SetTargetCores(app_cores);

  uint64_t resident = local_pages;
  if (ratio < 1.0) {
    // Leave the high-watermark headroom free so evictors start idle.
    uint64_t headroom = static_cast<uint64_t>(static_cast<double>(local_pages) *
                                              options_.kernel.high_watermark) + 16;
    resident = local_pages > headroom ? local_pages - headroom : local_pages / 2;
  } else {
    resident = wss;
  }
  kernel_->Prepopulate(resident);

  if (options_.check_interval > 0 || options_.check_final) {
    trace_ring_ = std::make_unique<TraceRingBuffer>(4096);
    if (Tracer::Get() != nullptr) {
      Tracer::Get()->AddSink(trace_ring_.get());
    }
    checker_ = std::make_unique<InvariantChecker>(
        *kernel_, Tracer::Get() != nullptr ? trace_ring_.get() : nullptr);
  }

  if (options_.analysis.enabled) {
    AnalysisOptions ao;
    ao.abort_on_violation = options_.analysis.abort_on_violation;
    analyzer_ = std::make_unique<LockAnalyzer>(ao);
    analyzer_->Install();  // uninstalled by ~LockAnalyzer
  }

  if (options_.spans.enabled) {
    spans_ = std::make_unique<SpanTracer>(options_.spans);
    spans_->Install();  // uninstalled by ~SpanTracer
  }

  auto& mo = options_.metrics;
  if (mo.enabled) {
    if (mo.sample_interval <= 0) mo.sample_interval = kMillisecond;
    metrics_ = std::make_unique<MetricsRegistry>();
    profiler_ = std::make_unique<SimProfiler>(topo_->num_cores());
    SamplerSources src;
    src.free_pages = [this] { return kernel_->free_pages(); };
    src.faults = [this] { return kernel_->stats().faults; };
    src.evicted_pages = [this] { return kernel_->stats().evicted_pages; };
    src.total_ops = [this] {
      uint64_t ops = 0;
      for (const auto& t : threads_) ops += t->ops;
      return ops;
    };
    src.dirty_ratio = [this] {
      uint64_t present = 0, dirty = 0;
      for (uint64_t vpn = 0; vpn < kernel_->wss_pages(); ++vpn) {
        const Pte& pte = kernel_->page_table().At(vpn);
        if (!pte.present) continue;
        ++present;
        if (pte.dirty) ++dirty;
      }
      return present == 0 ? 0.0 : static_cast<double>(dirty) / static_cast<double>(present);
    };
    src.ipi_queue_depth = [this] { return tlb_->pending_ipis(); };
    src.nic_read_busy_ns = [this] { return nic_->read_busy_ns(); };
    src.nic_write_busy_ns = [this] { return nic_->write_busy_ns(); };
    sampler_ = std::make_unique<MetricsSampler>(std::move(src), mo.sample_interval);
  }
}

FarMemoryMachine::~FarMemoryMachine() {
  if (trace_ring_ != nullptr && Tracer::Get() != nullptr) {
    Tracer::Get()->RemoveSink(trace_ring_.get());
  }
}

Task<> FarMemoryMachine::RunThread(int tid) {
  if (LockAnalyzer* la = LockAnalyzer::Active()) {
    // App threads are core-bound: per-CPU cache affinity is checkable.
    la->NameCurrentTask("app-" + std::to_string(tid), tid);
  }
  co_await workload_->ThreadBody(*threads_[static_cast<size_t>(tid)], tid);
  wg_.Done();
}

Task<> FarMemoryMachine::Controller() {
  co_await wg_.Wait();
  end_time_ = engine_->now();
  engine_->RequestShutdown();
}

namespace {

Task<> TimeLimitTask(Engine& eng, SimTime limit) {
  co_await Delay{limit};
  eng.RequestShutdown();
}

Task<> WarmupResetTask(Kernel& k, FleetManager& fleet, TlbShootdownManager& tlb, SimTime at) {
  co_await Delay{at};
  k.ResetMeasurement();
  for (int i = 0; i < fleet.num_nodes(); ++i) fleet.nic(i).ResetStats();
  tlb.ResetStats();
}

}  // namespace

RunResult FarMemoryMachine::Run() {
  assert(!ran_);
  ran_ = true;

  int threads = workload_->num_threads();
  wg_.Add(threads);
  for (int tid = 0; tid < threads; ++tid) {
    engine_->Spawn(RunThread(tid));
  }
  engine_->Spawn(Controller());
  if (options_.time_limit > 0) {
    engine_->Spawn(TimeLimitTask(*engine_, options_.time_limit));
  }
  if (options_.stats_warmup > 0) {
    engine_->Spawn(WarmupResetTask(*kernel_, *fleet_, *tlb_, options_.stats_warmup));
  }
  kernel_->Start(threads);
  if (injector_ != nullptr) {
    // Crash/recover windows flip the targeted server and drive the fleet's
    // replica table (degraded reads + repair queueing) via the listener.
    injector_->SetAvailabilityListener([this](int node, bool up) {
      if (up) {
        fleet_->OnNodeRecover(node);
      } else {
        fleet_->OnNodeCrash(node);
      }
    });
    std::vector<MemoryNode*> nodes;
    for (int i = 0; i < fleet_->num_nodes(); ++i) nodes.push_back(&fleet_->node(i));
    injector_->Start(*engine_, std::move(nodes));
  }
  if (rebuild_ != nullptr) {
    rebuild_->Start(*engine_);
  }
  if (checker_ != nullptr && options_.check_interval > 0) {
    engine_->Spawn(checker_->PeriodicMain(options_.check_interval));
  }
  if (profiler_ != nullptr) {
    profiler_->Install();
  }
  if (sampler_ != nullptr) {
    engine_->Spawn(sampler_->Main(options_.metrics.progress));
  }

  engine_->Run();
  if (checker_ != nullptr) {
    checker_->CheckNow();  // quiescent-state check after the queue drains
  }
  if (end_time_ == 0) {
    end_time_ = engine_->now();  // threads parked (e.g. queue servers): use drain time
  }

  RunResult r;
  r.sim_seconds = NsToSec(end_time_);
  SimTime measured_ns = end_time_ - options_.stats_warmup;
  if (measured_ns <= 0) measured_ns = end_time_;
  r.measured_seconds = NsToSec(measured_ns);
  for (const auto& t : threads_) r.total_ops += t->ops;
  if (r.sim_seconds > 0) {
    r.ops_per_sec = static_cast<double>(r.total_ops) / r.sim_seconds;
    r.jobs_per_hour = 3600.0 / r.sim_seconds;
  }
  const KernelStats& ks = kernel_->stats();
  r.faults = ks.faults;
  r.sync_evictions = ks.sync_evictions;
  r.evicted_pages = ks.evicted_pages;
  r.free_page_waits = ks.free_page_waits;
  r.prefetched_pages = ks.prefetched_pages;
  r.fault_mops =
      r.measured_seconds > 0 ? static_cast<double>(ks.faults) / r.measured_seconds / 1e6 : 0;
  r.fault_latency = ks.fault_latency;
  r.fault_breakdown = ks.fault_breakdown;
  r.sync_evict_latency = ks.sync_evict_latency;
  uint64_t nic_bytes_read = 0;
  uint64_t nic_bytes_written = 0;
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    nic_bytes_read += fleet_->nic(i).bytes_read();
    nic_bytes_written += fleet_->nic(i).bytes_written();
  }
  r.nic_read_gbps =
      static_cast<double>(nic_bytes_read) * 8.0 / static_cast<double>(measured_ns);
  r.nic_write_gbps =
      static_cast<double>(nic_bytes_written) * 8.0 / static_cast<double>(measured_ns);
  r.tlb_shootdown_latency = tlb_->shootdown_latency();
  r.ipi_delivery_latency = tlb_->ipi_delivery_latency();
  r.ipis_sent = tlb_->ipis_sent();
  r.accounting_lock = kernel_->accounting_lock_stats();
  for (int c = 0; c < topo_->num_cores(); ++c) {
    r.faults_per_core.push_back(kernel_->FaultsOnCore(c));
  }
  if (checker_ != nullptr) {
    r.invariant_checks = checker_->checks_run();
    r.invariant_violations = checker_->total_violations();
    if (!checker_->violations().empty()) {
      r.first_violation = checker_->violations().front().message;
    }
  }
  if (analyzer_ != nullptr) {
    r.analysis_locks = analyzer_->locks_registered();
    r.analysis_order_edges = analyzer_->order_edges();
    r.analysis_violations = analyzer_->total_violations();
    if (!analyzer_->violations().empty()) {
      r.analysis_first_violation = analyzer_->violations().front().message;
    }
  }
  r.rdma_retries = resilience_->retries();
  r.rdma_timeouts = resilience_->timeouts();
  r.breaker_opens = resilience_->breaker_opens_total();
  r.pages_poisoned = resilience_->pages_poisoned();
  r.writebacks_lost = resilience_->writebacks_lost();
  r.prefetch_throttles = resilience_->prefetch_throttles();
  r.aborted = resilience_->run_failed();
  r.abort_reason = resilience_->failure_reason();
  if (injector_ != nullptr) {
    r.injected_drops = injector_->drops_injected();
    r.injected_errors = injector_->errors_injected();
    r.fault_windows = injector_->windows_opened();
    r.memnode_crashes = fleet_->crash_episodes();
  }
  r.fleet_nodes = static_cast<uint64_t>(fleet_->num_nodes());
  r.fleet_degraded_reads = fleet_->degraded_reads();
  r.fleet_slots_lost = fleet_->slots_lost();
  r.fleet_repairs_queued = fleet_->repairs_queued();
  r.fleet_slots_rebuilt = fleet_->slots_rebuilt();
  r.fleet_rebuild_pending = static_cast<uint64_t>(fleet_->rebuild_pending());
  r.fleet_silent_losses = fleet_->CheckConsistency();
  if (tenancy_ != nullptr) {
    for (int t = 0; t < tenancy_->num_tenants(); ++t) {
      const TenantSpec& s = tenancy_->spec(t);
      const MemCgroup& cg = tenancy_->cgroup(t);
      TenantRunResult tr;
      tr.name = s.name;
      tr.qos = s.qos;
      for (int tid = s.thread_begin; tid < s.thread_end; ++tid) {
        tr.ops += threads_[static_cast<size_t>(tid)]->ops;
      }
      if (r.sim_seconds > 0) tr.ops_per_sec = static_cast<double>(tr.ops) / r.sim_seconds;
      tr.faults = cg.faults();
      tr.usage_pages = cg.usage();
      tr.peak_usage_pages = cg.peak_usage();
      tr.hard_limit_pages = cg.hard_limit();
      tr.soft_limit_pages = cg.soft_limit();
      tr.effective_soft_limit_pages = cg.effective_soft_limit();
      tr.max_overage_pages = cg.max_overage();
      tr.evict_selected = cg.evict_selected();
      tr.hard_limit_waits = cg.hard_limit_waits();
      tr.hard_wait_ns = cg.hard_wait_ns();
      tr.soft_adjusts = cg.soft_adjusts();
      tr.prefetch_denied = cg.prefetch_denied();
      tr.backpressure_waits = cg.backpressure_waits();
      r.tenants.push_back(std::move(tr));
    }
  }
  if (metrics_ != nullptr) {
    if (sampler_ != nullptr) {
      sampler_->SampleNow();  // final row at the drain time (dropped if dup)
    }
    PublishMetrics(r);
    report_json_ = BuildRunReportJson(r);
    const auto& mo = options_.metrics;
    WriteFileOrWarn(mo.report_path, report_json_);
    if (sampler_ != nullptr) {
      WriteFileOrWarn(mo.csv_path, sampler_->ToCsv());
    }
    WriteFileOrWarn(mo.prom_path, PrometheusText(*metrics_));
    profiler_->Uninstall();
  }
  return r;
}

void FarMemoryMachine::PublishMetrics(const RunResult& r) {
  MetricsRegistry& m = *metrics_;
  const KernelStats& ks = kernel_->stats();
  m.Counter("kernel.faults").Set(ks.faults);
  m.Counter("kernel.fast_hits").Set(ks.fast_hits);
  m.Counter("kernel.dedup_waits").Set(ks.dedup_waits);
  m.Counter("kernel.sync_evictions").Set(ks.sync_evictions);
  m.Counter("kernel.free_page_waits").Set(ks.free_page_waits);
  m.Counter("kernel.evicted_pages").Set(ks.evicted_pages);
  m.Counter("kernel.eviction_batches").Set(ks.eviction_batches);
  m.Counter("kernel.clean_reclaims").Set(ks.clean_reclaims);
  m.Counter("kernel.prefetched_pages").Set(ks.prefetched_pages);
  m.Counter("kernel.prefetch_hits").Set(ks.prefetch_hits);
  m.Counter("kernel.free_wait_time_ns").Set(static_cast<uint64_t>(ks.free_wait_time_total));
  m.Counter("kernel.free_pages_final").Set(kernel_->free_pages());
  m.Counter("app.total_ops").Set(r.total_ops);
  m.Counter("nic.bytes_read").Set(nic_->bytes_read());
  m.Counter("nic.bytes_written").Set(nic_->bytes_written());
  m.Counter("nic.reads_posted").Set(nic_->reads_posted());
  m.Counter("nic.writes_posted").Set(nic_->writes_posted());
  m.Counter("tlb.ipis_sent").Set(tlb_->ipis_sent());
  m.Counter("tlb.shootdowns").Set(tlb_->shootdowns());
  if (checker_ != nullptr) {
    m.Counter("check.invariant_checks").Set(r.invariant_checks);
    m.Counter("check.invariant_violations").Set(r.invariant_violations);
  }
  if (analyzer_ != nullptr) {
    m.Counter("analysis.locks").Set(r.analysis_locks);
    m.Counter("analysis.lock_classes").Set(analyzer_->lock_classes());
    m.Counter("analysis.order_edges").Set(r.analysis_order_edges);
    m.Counter("analysis.violations").Set(r.analysis_violations);
  }
  m.Counter("resilience.rdma_retries").Set(r.rdma_retries);
  m.Counter("resilience.rdma_timeouts").Set(r.rdma_timeouts);
  m.Counter("resilience.breaker_opens").Set(r.breaker_opens);
  m.Counter("resilience.pages_poisoned").Set(r.pages_poisoned);
  m.Counter("resilience.writebacks_lost").Set(r.writebacks_lost);
  m.Counter("resilience.backpressure_waits").Set(resilience_->backpressure_waits());
  m.Counter("resilience.prefetch_throttles").Set(r.prefetch_throttles);
  m.Counter("resilience.reads_failed").Set(resilience_->reads_failed());
  m.Counter("resilience.aborted").Set(r.aborted ? 1 : 0);
  m.Counter("resilience.read_degraded_ns")
      .Set(static_cast<uint64_t>(resilience_->read_degraded_ns(end_time_)));
  m.Counter("resilience.write_degraded_ns")
      .Set(static_cast<uint64_t>(resilience_->write_degraded_ns(end_time_)));
  m.Hist("resilience.backoff_ns").histogram().Merge(resilience_->backoff_ns());
  m.Hist("resilience.attempts_per_op").histogram().Merge(resilience_->attempts_per_op());
  m.Counter("fleet.nodes").Set(r.fleet_nodes);
  m.Counter("fleet.replication").Set(static_cast<uint64_t>(fleet_->replication()));
  m.Counter("fleet.node.crash_episodes").Set(fleet_->crash_episodes());
  m.Counter("fleet.degraded_reads").Set(r.fleet_degraded_reads);
  m.Counter("fleet.slots_lost").Set(r.fleet_slots_lost);
  m.Counter("fleet.repairs_queued").Set(r.fleet_repairs_queued);
  m.Counter("fleet.slots_rebuilt").Set(r.fleet_slots_rebuilt);
  m.Counter("fleet.rebuild_pending").Set(r.fleet_rebuild_pending);
  m.Counter("fleet.silent_losses").Set(r.fleet_silent_losses);
  if (rebuild_ != nullptr) {
    m.Counter("fleet.rebuild_bursts").Set(rebuild_->bursts());
    m.Counter("fleet.rebuild_pages").Set(rebuild_->pages_rebuilt());
    m.Counter("fleet.repair_failures").Set(rebuild_->repair_failures());
  }
  for (int i = 0; i < fleet_->num_nodes(); ++i) {
    std::string p = "fleet.node" + std::to_string(i) + ".";
    m.Counter(p + "crash_episodes").Set(fleet_->node(i).crash_episodes());
    m.Counter(p + "bytes_read").Set(fleet_->nic(i).bytes_read());
    m.Counter(p + "bytes_written").Set(fleet_->nic(i).bytes_written());
  }
  if (injector_ != nullptr) {
    m.Counter("inject.drops").Set(r.injected_drops);
    m.Counter("inject.errors").Set(r.injected_errors);
    m.Counter("inject.spikes").Set(injector_->spikes_injected());
    m.Counter("inject.fault_windows").Set(r.fault_windows);
    m.Counter("inject.memnode_crashes").Set(r.memnode_crashes);
    m.Counter("nic.reads_dropped").Set(nic_->reads_dropped());
    m.Counter("nic.writes_dropped").Set(nic_->writes_dropped());
    m.Counter("nic.reads_errored").Set(nic_->reads_errored());
    m.Counter("nic.writes_errored").Set(nic_->writes_errored());
  }
  if (tenancy_ != nullptr) {
    for (const TenantRunResult& t : r.tenants) {
      std::string p = "tenancy." + t.name + ".";
      m.Counter(p + "ops").Set(t.ops);
      m.Counter(p + "faults").Set(t.faults);
      m.Counter(p + "usage_pages").Set(t.usage_pages);
      m.Counter(p + "peak_usage_pages").Set(t.peak_usage_pages);
      m.Counter(p + "hard_limit_pages").Set(t.hard_limit_pages);
      m.Counter(p + "effective_soft_limit_pages").Set(t.effective_soft_limit_pages);
      m.Counter(p + "max_overage_pages").Set(t.max_overage_pages);
      m.Counter(p + "evict_selected").Set(t.evict_selected);
      m.Counter(p + "hard_limit_waits").Set(t.hard_limit_waits);
      m.Counter(p + "hard_wait_ns").Set(static_cast<uint64_t>(t.hard_wait_ns));
      m.Counter(p + "soft_adjusts").Set(t.soft_adjusts);
      m.Counter(p + "prefetch_denied").Set(t.prefetch_denied);
      m.Counter(p + "backpressure_waits").Set(t.backpressure_waits);
      m.Gauge(p + "ops_per_sec").Set(t.ops_per_sec);
    }
    m.Counter("tenancy.double_charges").Set(tenancy_->double_charges());
    m.Counter("tenancy.missing_uncharges").Set(tenancy_->missing_uncharges());
  }
  m.Gauge("run.ops_per_sec").Set(r.ops_per_sec);
  m.Gauge("run.fault_mops").Set(r.fault_mops);
  m.Gauge("nic.read_gbps").Set(r.nic_read_gbps);
  m.Gauge("nic.write_gbps").Set(r.nic_write_gbps);

  // Fault-phase breakdown (Figs. 6/16) as counters, one pair per category,
  // so bench harnesses read their attribution from the registry.
  for (const auto& [cat, e] : ks.fault_breakdown.entries()) {
    m.Counter("fault_breakdown." + cat + ".total_ns").Set(static_cast<uint64_t>(e.total_ns));
    m.Counter("fault_breakdown." + cat + ".count").Set(e.count);
  }

  if (spans_ != nullptr) {
    m.Counter("spans.spans_total").Set(spans_->spans_total());
    m.Counter("spans.links_total").Set(spans_->links_total());
    m.Counter("spans.exemplar_truncated").Set(spans_->exemplar_trunc_spans());
    m.Counter("spans.open_at_end").Set(spans_->open_spans());
    for (SpanKind k : spans_->ActiveRootKinds()) {
      m.Counter(std::string("spans.ops.") + SpanKindName(k)).Set(spans_->ops(k));
    }
  }

  m.Hist("fault_latency_ns").histogram().Merge(ks.fault_latency);
  m.Hist("sync_evict_latency_ns").histogram().Merge(ks.sync_evict_latency);
  m.Hist("tlb_shootdown_ns").histogram().Merge(tlb_->shootdown_latency());
  m.Hist("ipi_delivery_ns").histogram().Merge(tlb_->ipi_delivery_latency());
  m.Hist("rdma_read_latency_ns").histogram().Merge(nic_->read_latency());
  m.Hist("rdma_write_latency_ns").histogram().Merge(nic_->write_latency());
}

std::string FarMemoryMachine::BuildRunReportJson(const RunResult& r) const {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema_version", kRunReportSchemaVersion);

  // The only nondeterministic section; determinism tests strip it before
  // comparing reports. Kept flat (no nested objects) so a regex can do it.
  w.Key("wall_clock");
  w.BeginObject();
  // magesim-lint: allow(no-wallclock): report metadata only; determinism
  // tests strip the wall_clock section before comparing.
  w.KV("generated_unix_s", static_cast<int64_t>(std::time(nullptr)));
  w.EndObject();

  const KernelConfig& kc = options_.kernel;
  w.Key("config");
  w.BeginObject();
  w.KV("kernel", kc.name);
  w.KV("workload", workload_->name());
  w.KV("threads", workload_->num_threads());
  w.KV("cores", topo_->num_cores());
  w.KV("seed", options_.seed);
  w.KV("local_mem_ratio", options_.local_mem_ratio);
  w.KV("local_pages", kernel_->local_pages());
  w.KV("wss_pages", kernel_->wss_pages());
  w.KV("time_limit_ns", options_.time_limit);
  w.KV("stats_warmup_ns", options_.stats_warmup);
  w.KV("num_evictors", kc.num_evictors);
  w.KV("pipelined_eviction", kc.pipelined_eviction);
  w.KV("allow_sync_eviction", kc.allow_sync_eviction);
  w.KV("prefetch", kc.prefetch);
  w.KV("virtualized", kc.virtualized);
  w.KV("sample_interval_ns", options_.metrics.sample_interval);
  w.KV("fault_plan", injector_ != nullptr ? injector_->plan().ToSpec() : std::string());
  w.KV("resilience", fleet_->ops_can_fail());
  w.KV("analysis", analyzer_ != nullptr);
  w.KV("spans", spans_ != nullptr);
  w.EndObject();

  w.Key("fleet");
  w.BeginObject();
  w.KV("nodes", fleet_->num_nodes());
  w.KV("replication", fleet_->replication());
  w.KV("placement_fingerprint", fleet_->placement().Fingerprint());
  w.KV("degraded_reads", r.fleet_degraded_reads);
  w.KV("slots_lost", r.fleet_slots_lost);
  w.KV("repairs_queued", r.fleet_repairs_queued);
  w.KV("slots_rebuilt", r.fleet_slots_rebuilt);
  w.KV("rebuild_pending", r.fleet_rebuild_pending);
  w.KV("silent_losses", r.fleet_silent_losses);
  w.EndObject();

  w.Key("run");
  w.BeginObject();
  w.KV("end_time_ns", end_time_);
  w.KV("sim_seconds", r.sim_seconds);
  w.KV("measured_seconds", r.measured_seconds);
  w.KV("events_processed", engine_->events_processed());
  w.KV("total_ops", r.total_ops);
  w.KV("ops_per_sec", r.ops_per_sec);
  w.EndObject();

  if (tenancy_ != nullptr) {
    w.Key("tenancy");
    w.BeginObject();
    w.KV("num_tenants", tenancy_->num_tenants());
    w.KV("double_charges", tenancy_->double_charges());
    w.KV("missing_uncharges", tenancy_->missing_uncharges());
    w.Key("tenants");
    w.BeginArray();
    for (const TenantRunResult& t : r.tenants) {
      w.BeginObject();
      w.KV("name", t.name);
      w.KV("qos", QosClassName(t.qos));
      w.KV("ops", t.ops);
      w.KV("ops_per_sec", t.ops_per_sec);
      w.KV("faults", t.faults);
      w.KV("usage_pages", t.usage_pages);
      w.KV("peak_usage_pages", t.peak_usage_pages);
      w.KV("hard_limit_pages", t.hard_limit_pages);
      w.KV("soft_limit_pages", t.soft_limit_pages);
      w.KV("effective_soft_limit_pages", t.effective_soft_limit_pages);
      w.KV("max_overage_pages", t.max_overage_pages);
      w.KV("evict_selected", t.evict_selected);
      w.KV("hard_limit_waits", t.hard_limit_waits);
      w.KV("hard_wait_ns", t.hard_wait_ns);
      w.KV("soft_adjusts", t.soft_adjusts);
      w.KV("prefetch_denied", t.prefetch_denied);
      w.KV("backpressure_waits", t.backpressure_waits);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  AppendRegistryJson(w, *metrics_);

  // Percentile-conditioned critical-path attribution (schema_version 2).
  if (spans_ != nullptr) {
    std::vector<std::string> tenant_names;
    if (tenancy_ != nullptr) {
      for (int t = 0; t < tenancy_->num_tenants(); ++t) {
        tenant_names.push_back(tenancy_->spec(t).name);
      }
    }
    w.Key("tail");
    spans_->AppendTailJson(w, tenant_names);
  }

  w.Key("breakdowns");
  w.BeginObject();
  w.Key("fault_breakdown");
  AppendBreakdownJson(w, kernel_->stats().fault_breakdown);
  w.EndObject();

  w.Key("profiler");
  AppendProfilerJson(w, *profiler_, end_time_);

  if (sampler_ != nullptr) {
    w.Key("timeseries");
    AppendTimeseriesJson(w, *sampler_);
  }

  w.EndObject();
  return w.Take();
}

}  // namespace magesim
