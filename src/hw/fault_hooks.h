// Failure-injection hooks consulted by the simulated hardware. The hw layer
// owns only the interface; src/resilience provides the scripted implementation
// (FaultInjector), keeping the dependency arrow pointing from resilience to hw
// and never the other way.
#ifndef MAGESIM_HW_FAULT_HOOKS_H_
#define MAGESIM_HW_FAULT_HOOKS_H_

#include "src/sim/time.h"

namespace magesim {

// Outcome assigned to one posted RDMA op, decided at post time.
struct RdmaOpFate {
  double bandwidth_factor = 1.0;  // scales the channel's serialization rate
  SimTime extra_latency_ns = 0;   // added to the op's completion latency
  bool error = false;             // completion arrives flagged failed (remote NAK)
  bool drop = false;              // completion never arrives (lost CQE / dead node)
};

class HwFaultModel {
 public:
  virtual ~HwFaultModel() = default;

  // Consulted once per posted RDMA op, at post time. `node` is the memory
  // server the posting NIC channel belongs to (0 for the machine's own NIC),
  // so node-targeted fault windows affect only that node's link.
  virtual RdmaOpFate OnRdmaPost(bool is_write, SimTime now, int node) = 0;

  // Extra interconnect delay for one IPI dispatched at `now`.
  virtual SimTime ExtraIpiDelayNs(SimTime now) = 0;
};

}  // namespace magesim

#endif  // MAGESIM_HW_FAULT_HOOKS_H_
