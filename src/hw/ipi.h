// Inter-processor interrupts and TLB shootdowns.
//
// Model (matches §3.3.1): an initiator core invalidates its local TLB, then
// sends one IPI per target core through its APIC (serialized at the sender).
// Each IPI travels the interconnect (NUMA-dependent latency) and is handled
// *serially* by the target's interrupt controller — concurrent shootdowns
// from many initiators therefore queue at the targets, which is exactly the
// "IPI storm" that inflates per-IPI latency 33x in the paper. Virtualized
// guests additionally pay a VM-exit on both the send and receive side.
#ifndef MAGESIM_HW_IPI_H_
#define MAGESIM_HW_IPI_H_

#include <memory>
#include <vector>

#include "src/hw/fault_hooks.h"
#include "src/hw/topology.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/spans/spans.h"

namespace magesim {

// One in-flight shootdown: completes when every targeted core has flushed
// and acknowledged.
class ShootdownOp {
 public:
  ShootdownOp(int num_targets, SimTime start, CoreId initiator)
      : latch_(num_targets, "shootdown-ack"), start_(start), initiator_(initiator) {}

  SimEvent::Awaiter Wait() { return latch_.Wait(); }
  void Ack() { latch_.CountDown(); }
  SimTime start() const { return start_; }
  CoreId initiator() const { return initiator_; }
  bool done() const { return latch_.count() == 0; }

  // Span of the operation (eviction batch) this shootdown belongs to;
  // passed into Begin() so per-IPI delivery leaves attach to it from the
  // spawned delivery tasks.
  void set_span(SpanHandle s) { span_ = s; }
  SpanHandle span() const { return span_; }

 private:
  CountdownLatch latch_;
  SimTime start_;
  CoreId initiator_;
  SpanHandle span_;
};

class TlbShootdownManager {
 public:
  TlbShootdownManager(Topology& topo);

  // Cores that must receive flush IPIs (the application's mm cpumask).
  // The initiator, if present in this set, flushes locally instead.
  void SetTargetCores(std::vector<CoreId> cores) { targets_ = std::move(cores); }
  const std::vector<CoreId>& target_cores() const { return targets_; }

  // Asynchronous begin: returns once all IPIs have been *sent* (the sender-
  // side serialization cost has elapsed); the returned op completes when all
  // targets have acknowledged. `num_pages` selects INVLPG-loop vs full flush.
  // `span` is the initiating operation's span (per-IPI leaves attach to it).
  Task<std::shared_ptr<ShootdownOp>> Begin(CoreId initiator, int num_pages,
                                           SpanHandle span = {});

  // Synchronous shootdown: begin + wait; records total latency.
  Task<> Shootdown(CoreId initiator, int num_pages, SpanHandle span = {});

  // Finishes an op begun with Begin() and records its total latency.
  Task<> Finish(std::shared_ptr<ShootdownOp> op);

  const Histogram& shootdown_latency() const { return shootdown_latency_; }
  const Histogram& ipi_delivery_latency() const { return ipi_latency_; }
  uint64_t ipis_sent() const { return ipis_sent_; }
  uint64_t shootdowns() const { return shootdowns_; }
  // IPIs sent but not yet acknowledged (in flight or queued at a target's
  // interrupt serializer) — the sampler's "IPI queue depth".
  uint64_t pending_ipis() const { return pending_ipis_; }
  void ResetStats();

  // Handler cost for flushing `num_pages` entries at one core.
  SimTime HandlerCost(int num_pages) const;

  // Optional failure model adding interconnect delay per IPI; nullptr disables.
  void SetFaultModel(HwFaultModel* model) { fault_model_ = model; }

 private:
  // One IPI: the transit Delay, the target's `irq` mutex, the handler, the
  // ack. Spawned at the send, so the transit is an event of its own; starting
  // it at the arrival instead (Engine::SpawnAt) would move a printed figure
  // cell, because events for the arrival's exact instant can be queued
  // between the send and this task's first step (docs/INTERNALS.md §4).
  Task<> DeliverIpi(CoreId target, int num_pages, SimTime send_time,
                    std::shared_ptr<ShootdownOp> op, SimTime delivery_ns);

  Topology& topo_;
  HwFaultModel* fault_model_ = nullptr;
  std::vector<CoreId> targets_;
  // Per-core interrupt serialization: a core handles one flush IPI at a time.
  std::vector<std::unique_ptr<SimMutex>> irq_serializers_;

  Histogram shootdown_latency_;
  Histogram ipi_latency_;
  uint64_t ipis_sent_ = 0;
  uint64_t shootdowns_ = 0;
  uint64_t pending_ipis_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_HW_IPI_H_
