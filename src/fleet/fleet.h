// Memory-server fleet: N passive memory servers, each reached over its own
// RdmaNic (one-sided RDMA only, so a server is its link plus whether it is
// up, §5.2), a deterministic PlacementMap assigning every swap slot a
// k-replica desired set, and the live replica table the data path and the
// rebuild driver share.
//
// The fleet tracks, per slot, which servers currently hold a copy (a bitmask)
// and whether the slot's data has been surfaced as lost. Reads resolve to the
// first live desired holder (primary) or, degraded, to any surviving holder;
// writes go to every live desired replica and commit the acknowledged mask.
// A crash clears the crashed server's bit everywhere: slots left with no
// copy are surfaced immediately (kFleetSlotLost — never silent), slots left
// under-replicated are queued for the background rebuild driver. A recovered
// server comes back *empty* (crash = data loss), so recovery also queues
// re-replication toward it.
//
// Every machine has a fleet, and the fleet owns every server's NIC, server 0
// included: the default single-server machine is a fleet of one. The fleet
// is also the one record of a server's state: which servers are live and
// how many crash episodes each has had.
#ifndef MAGESIM_FLEET_FLEET_H_
#define MAGESIM_FLEET_FLEET_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/fleet/placement.h"
#include "src/hw/machine_params.h"
#include "src/hw/rdma.h"
#include "src/sim/sync.h"

namespace magesim {

// Servers per fleet: a slot's copy set is a uint16_t mask.
inline constexpr int kMaxFleetNodes = 16;

class FleetManager {
 public:
  struct Options {
    int num_nodes = 1;  // [1, kMaxFleetNodes]
    int replication = 2;  // clamped to [1, min(num_nodes, kMaxReplicas)]
    uint64_t seed = 1;
  };

  // Builds every server's NIC, each with the same MachineParams (a full-rate
  // link per server).
  FleetManager(const MachineParams& params, const Options& opt);

  int num_nodes() const { return static_cast<int>(nics_.size()); }
  int replication() const { return placement_.replication(); }
  RdmaNic& nic(int i) { return *nics_[static_cast<size_t>(i)]; }
  // `stat` summed over every server's NIC.
  uint64_t SumOverNics(uint64_t (RdmaNic::*stat)() const) const {
    uint64_t total = 0;
    for (const auto& nic : nics_) total += (nic.get()->*stat)();
    return total;
  }
  const PlacementMap& placement() const { return placement_; }

  // Wires the per-op fault model into every server's NIC.
  void SetFaultModelAll(HwFaultModel* model);
  // True when some server's NIC has a fault model attached. RdmaNic fails an
  // op (drop or error) only on its fault model's say, so without one no
  // remote op can fail.
  bool ops_can_fail() const {
    for (const auto& nic : nics_) {
      if (nic->fault_model() != nullptr) return true;
    }
    return false;
  }

  // Sizes the replica table to the far pool's `num_slots` slots, each
  // holding its full desired replica set (machine prepopulation: remote
  // copies exist before the run starts), and, with more than one server,
  // stores every slot's desired replica list. Every slot argument below must
  // be less than `num_slots`.
  void Prepopulate(uint64_t num_slots);

  // --- data-plane resolution ---
  struct ReadTarget {
    int node = -1;        // -1 = no live copy anywhere (unrecoverable)
    bool degraded = false;  // served from a non-primary surviving replica
  };
  // `exclude_mask` skips servers that already failed this op (read failover).
  ReadTarget ReadTargetFor(uint64_t slot, uint16_t exclude_mask = 0) const;
  // The placement map's ReplicasOf(slot), served from the per-slot table
  // Prepopulate stored (the map never changes at runtime).
  ReplicaSet DesiredReplicas(uint64_t slot) const {
    if (desired_.empty()) return placement_.ReplicasOf(slot);  // one server
    ReplicaSet out;
    out.count = placement_.replication();
    const uint8_t* ids = &desired_[slot * DesiredBytesPerSlot()];
    for (int i = 0; i < out.count; ++i) out.node[i] = (ids[i / 2] >> (4 * (i % 2))) & 0xf;
    return out;
  }
  // Live desired replicas a writeback should target (desired order).
  ReplicaSet WriteTargetsFor(uint64_t slot) const;
  // Commits a writeback's acknowledged replica mask. Zero acks surfaces the
  // slot as lost; a partial set queues repair toward the missing replicas.
  void CommitWrite(uint64_t slot, uint16_t acked_mask);
  uint16_t CopyMask(uint64_t slot) const { return copies_[slot]; }
  bool HasLiveCopy(uint64_t slot) const { return (copies_[slot] & live_mask_) != 0; }
  bool IsLostReported(uint64_t slot) const { return lost_[slot] != 0; }
  uint16_t live_mask() const { return live_mask_; }

  // Degraded-read bookkeeping (called by the resilient read path once per
  // read actually served off-primary): counter + kFleetDegradedRead.
  void NoteDegradedRead(uint64_t slot, int served_node, int primary_node);

  // --- crash / recover (driven by the FaultInjector's episode driver) ---
  // `node` is in [0, num_nodes()). Each call is one episode edge: it counts
  // (crash) and traces kMemnodeCrash / kMemnodeRecover with the server as
  // actor. With N > 1 servers a crash then loses the server's copies and
  // recovery rebuilds them; a one-server fleet leaves its replica table
  // alone (see fleet.cc).
  void OnNodeCrash(int node);
  void OnNodeRecover(int node);

  // --- rebuild queue (consumed by the RebuildDriver) ---
  void EnqueueRepair(uint64_t slot);
  bool PopRepair(uint64_t* slot);
  size_t rebuild_pending() const { return repair_queue_.size(); }
  SimEvent& repair_ready() { return repair_ready_; }
  // First live desired replica missing a copy (-1 = fully placed or nothing
  // live to rebuild toward) / a live holder to read the page from (-1 = data
  // gone).
  int RebuildTargetFor(uint64_t slot) const;
  int SourceFor(uint64_t slot) const;
  // Registers a re-replicated copy (clears any lost report on the slot).
  void AddCopy(uint64_t slot, int node);

  uint64_t slots_lost() const { return slots_lost_; }
  uint64_t degraded_reads() const { return degraded_reads_; }
  uint64_t repairs_queued() const { return repairs_queued_; }
  uint64_t slots_rebuilt() const { return slots_rebuilt_; }
  uint64_t crash_episodes(int node) const {
    return crash_episodes_[static_cast<size_t>(node)];
  }
  uint64_t crash_episodes() const;  // summed over all servers

  // Replica-safety sweep for tests/invariants: every slot that ever held
  // data either has a live copy or has been surfaced as lost. Returns the
  // number of silently-lost slots (0 = safe).
  uint64_t CheckConsistency() const;

 private:
  bool NodeLive(int node) const {
    return (live_mask_ & (1u << node)) != 0;
  }
  size_t DesiredBytesPerSlot() const {
    return static_cast<size_t>(placement_.replication() + 1) / 2;
  }

  PlacementMap placement_;
  std::vector<std::unique_ptr<RdmaNic>> nics_;  // [n] = server n's link
  std::vector<uint64_t> crash_episodes_;         // [n] = server n's crashes

  // copies_[slot] bit n set = server n holds the slot's current data.
  // lost_[slot] = the slot's data became unreachable and was surfaced.
  // desired_ = each slot's desired replicas in order, one 4-bit server id
  // each, two to a byte: DesiredBytesPerSlot() bytes per slot, at most 4
  // (empty for a one-server fleet).
  // All four tables are sized once, by Prepopulate.
  static_assert(kMaxFleetNodes <= 16 && kMaxReplicas <= 8,
                "a desired replica list must pack into 4 bytes");
  std::vector<uint8_t> desired_;
  std::vector<uint16_t> copies_;
  std::vector<uint8_t> lost_;
  uint16_t live_mask_ = 0;

  std::deque<uint64_t> repair_queue_;
  std::vector<uint8_t> queued_;  // dedup: slot already in repair_queue_
  SimEvent repair_ready_{"fleet-repair-ready"};

  uint64_t slots_lost_ = 0;
  uint64_t degraded_reads_ = 0;
  uint64_t repairs_queued_ = 0;
  uint64_t slots_rebuilt_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_FLEET_FLEET_H_
