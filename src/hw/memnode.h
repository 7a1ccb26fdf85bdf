// The far-memory node: a passive server exposing a registered memory region
// over one-sided RDMA (§5.2 "Memory node"). A small daemon handles setup
// requests; steady-state data movement never involves its CPU. The region is
// backed by huge pages, which shortens the remote IOMMU/page-table walk and is
// folded into the NIC base latency.
#ifndef MAGESIM_HW_MEMNODE_H_
#define MAGESIM_HW_MEMNODE_H_

#include <cstdint>

#include "src/hw/machine_params.h"
#include "src/sim/task.h"

namespace magesim {

class MemoryNode {
 public:
  // `node_id` identifies this server within the memory-server fleet (0 for
  // the machine's own node); availability transitions are traced with it
  // as the actor.
  explicit MemoryNode(uint64_t capacity_bytes, int node_id = 0)
      : capacity_(capacity_bytes), node_id_(node_id) {}

  // Control-path setup: daemon accepts a connection, registers the region
  // with its RDMA NIC, returns the rkey/base. Costs milliseconds but happens
  // once, off the data path.
  Task<> Setup();

  // Instant variant for machine construction, where registration happens
  // before the engine starts running (the 2 ms control-path cost is outside
  // the measured interval either way).
  void RegisterSetup() { registered_ = true; }

  bool registered() const { return registered_; }
  uint64_t capacity_bytes() const { return capacity_; }
  uint64_t capacity_pages() const { return capacity_ / kPageSize; }

  // Linear offset-based reservation used by VMA-level direct mapping: the
  // region [0, wss) mirrors the application's address range one-to-one, so no
  // per-page remote allocation is ever needed (§4.2.3). Reservations
  // accumulate; a request is rejected when the region is not yet registered
  // or when it would exceed the remaining capacity.
  bool ReserveDirect(uint64_t bytes) {
    if (!registered_) return false;
    if (bytes > capacity_ - direct_reserved_) return false;
    direct_reserved_ += bytes;
    return true;
  }
  uint64_t direct_reserved() const { return direct_reserved_; }

  // Availability, driven by injected crash/recover episodes. Steady-state
  // data movement is one-sided, so op outcomes are modeled at the NIC; this
  // flag is observability plus a hook for control-path checks. Transitions
  // emit kMemnodeCrash / kMemnodeRecover trace events (actor = node id);
  // redundant calls with the current state are silent.
  void SetAvailable(bool up);
  bool available() const { return available_; }
  uint64_t crash_episodes() const { return crash_episodes_; }
  int node_id() const { return node_id_; }

 private:
  uint64_t capacity_;
  int node_id_;
  uint64_t direct_reserved_ = 0;
  bool registered_ = false;
  bool available_ = true;
  uint64_t crash_episodes_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_HW_MEMNODE_H_
