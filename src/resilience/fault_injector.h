// Executes a FaultPlan against the simulated hardware. Implements the hw
// layer's HwFaultModel hook: every posted RDMA op and dispatched IPI consults
// the injector, which combines all active windows (bandwidth factors multiply,
// latencies add, drop beats error) and draws probabilistic outcomes from its
// own xoshiro stream — same seed, same plan, byte-identical run.
#ifndef MAGESIM_RESILIENCE_FAULT_INJECTOR_H_
#define MAGESIM_RESILIENCE_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/hw/fault_hooks.h"
#include "src/resilience/fault_plan.h"
#include "src/sim/engine.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace magesim {

class FleetManager;

class FaultInjector : public HwFaultModel {
 public:
  FaultInjector(FaultPlan plan, uint64_t seed);

  // Windows with `node >= 0` only affect the NIC posting to that node;
  // node == -1 windows affect every node's link.
  RdmaOpFate OnRdmaPost(bool is_write, SimTime now, int node) override;
  SimTime ExtraIpiDelayNs(SimTime now) override;

  // Spawns the episode driver: emits a kFaultWindow marker as each window
  // opens and takes servers down and back up across crash windows
  // (FleetManager::OnNodeCrash / OnNodeRecover, which count and trace the
  // episode). A node-targeted crash hits `window.node`; an untargeted crash
  // hits server 0, so `fleet` must cover every server the plan names. Call
  // once, before Engine::Run.
  void Start(Engine& eng, FleetManager& fleet);

  const FaultPlan& plan() const { return plan_; }

  uint64_t drops_injected() const { return drops_; }
  uint64_t errors_injected() const { return errors_; }
  uint64_t spikes_injected() const { return spikes_; }
  uint64_t windows_opened() const { return windows_opened_; }

 private:
  Task<> EpisodeMain();

  // Windows sorted by start; post/IPI times are non-decreasing, so expired
  // prefix windows are skipped once (O(active windows) per consult).
  FaultPlan plan_;
  size_t cursor_ = 0;
  Rng rng_;
  FleetManager* fleet_ = nullptr;

  uint64_t drops_ = 0;
  uint64_t errors_ = 0;
  uint64_t spikes_ = 0;
  uint64_t windows_opened_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_RESILIENCE_FAULT_INJECTOR_H_
