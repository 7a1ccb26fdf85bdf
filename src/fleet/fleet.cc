#include "src/fleet/fleet.h"

#include "src/trace/trace.h"

namespace magesim {

FleetManager::FleetManager(const MachineParams& params, const Options& opt)
    : placement_(opt.seed, opt.num_nodes, opt.replication) {
  int n = placement_.num_nodes();
  for (int i = 0; i < n; ++i) nics_.push_back(std::make_unique<RdmaNic>(params, i));
  crash_episodes_.assign(static_cast<size_t>(n), 0);
  live_mask_ = static_cast<uint16_t>((1u << n) - 1);
}

void FleetManager::SetFaultModelAll(HwFaultModel* model) {
  for (auto& nic : nics_) nic->SetFaultModel(model);
}

void FleetManager::Prepopulate(uint64_t num_slots) {
  if (num_nodes() == 1) {
    copies_.assign(num_slots, 1);  // every slot's replica set is {server 0}
  } else {
    copies_.assign(num_slots, 0);
    desired_.assign(num_slots * DesiredBytesPerSlot(), 0);
    for (uint64_t slot = 0; slot < num_slots; ++slot) {
      ReplicaSet r = placement_.ReplicasOf(slot);
      copies_[slot] = r.Mask();
      uint8_t* ids = &desired_[slot * DesiredBytesPerSlot()];
      for (int i = 0; i < r.count; ++i) ids[i / 2] |= static_cast<uint8_t>(r.node[i] << (4 * (i % 2)));
    }
  }
  lost_.assign(num_slots, 0);
  queued_.assign(num_slots, 0);
}

FleetManager::ReadTarget FleetManager::ReadTargetFor(uint64_t slot,
                                                     uint16_t exclude_mask) const {
  ReadTarget t;
  uint16_t held =
      static_cast<uint16_t>(copies_[slot] & live_mask_ & ~exclude_mask);
  ReplicaSet desired = DesiredReplicas(slot);
  for (int i = 0; i < desired.count; ++i) {
    int n = desired.node[i];
    if ((held & (1u << n)) != 0) {
      t.node = n;
      t.degraded = i != 0;  // not the placement primary
      return t;
    }
  }
  // No live desired holder; any surviving copy (mid-rebuild leftovers).
  for (int n = 0; n < num_nodes(); ++n) {
    if ((held & (1u << n)) != 0) {
      t.node = n;
      t.degraded = true;
      return t;
    }
  }
  return t;  // node = -1: the data is gone
}

ReplicaSet FleetManager::WriteTargetsFor(uint64_t slot) const {
  ReplicaSet desired = DesiredReplicas(slot);
  ReplicaSet out;
  for (int i = 0; i < desired.count; ++i) {
    if (NodeLive(desired.node[i])) out.node[out.count++] = desired.node[i];
  }
  return out;
}

void FleetManager::CommitWrite(uint64_t slot, uint16_t acked_mask) {
  acked_mask &= live_mask_;  // acks from a server that died since don't count
  copies_[slot] = acked_mask;
  if (acked_mask == 0) {
    if (lost_[slot] == 0) {
      lost_[slot] = 1;
      ++slots_lost_;
      TraceEmit(TraceEventType::kFleetSlotLost, -1, slot);
    }
    return;
  }
  lost_[slot] = 0;
  if (RebuildTargetFor(slot) >= 0) EnqueueRepair(slot);
}

void FleetManager::NoteDegradedRead(uint64_t slot, int served_node,
                                    int primary_node) {
  ++degraded_reads_;
  TraceEmit(TraceEventType::kFleetDegradedRead, served_node, slot, kTraceNoFrame,
            static_cast<uint64_t>(primary_node));
}

void FleetManager::OnNodeCrash(int node) {
  ++crash_episodes_[static_cast<size_t>(node)];
  TraceEmit(TraceEventType::kMemnodeCrash, node);
  // A one-server fleet has no replica to rebuild from, so its crash window
  // is an outage, not data loss: it acts only through the NIC fault model
  // (dropped completions, then retries) and the replica table stays as is.
  if (num_nodes() == 1) return;
  live_mask_ &= static_cast<uint16_t>(~(1u << node));
  uint16_t bit = static_cast<uint16_t>(1u << node);
  for (uint64_t slot = 0; slot < copies_.size(); ++slot) {
    if ((copies_[slot] & bit) == 0) continue;
    copies_[slot] = static_cast<uint16_t>(copies_[slot] & ~bit);
    if ((copies_[slot] & live_mask_) == 0) {
      // Every surviving byte of this slot is gone: surface it, never drop it
      // silently. (A later successful rewrite of resident data clears this.)
      if (lost_[slot] == 0) {
        lost_[slot] = 1;
        ++slots_lost_;
        TraceEmit(TraceEventType::kFleetSlotLost, node, slot);
      }
    } else {
      EnqueueRepair(slot);
    }
  }
}

void FleetManager::OnNodeRecover(int node) {
  TraceEmit(TraceEventType::kMemnodeRecover, node);
  if (num_nodes() == 1) return;
  live_mask_ |= static_cast<uint16_t>(1u << node);
  // The server rejoins empty — re-replicate every slot that wants a copy on
  // it (or anywhere else) back up to its desired set.
  for (uint64_t slot = 0; slot < copies_.size(); ++slot) {
    if ((copies_[slot] & live_mask_) == 0) continue;  // lost or never written
    if (RebuildTargetFor(slot) >= 0) EnqueueRepair(slot);
  }
}

void FleetManager::EnqueueRepair(uint64_t slot) {
  if (queued_[slot] != 0) return;
  queued_[slot] = 1;
  ++repairs_queued_;
  repair_queue_.push_back(slot);
  TraceEmit(TraceEventType::kFleetRepairQueued, RebuildTargetFor(slot), slot);
  repair_ready_.Set();
}

bool FleetManager::PopRepair(uint64_t* slot) {
  if (repair_queue_.empty()) return false;
  *slot = repair_queue_.front();
  repair_queue_.pop_front();
  queued_[*slot] = 0;
  return true;
}

int FleetManager::RebuildTargetFor(uint64_t slot) const {
  if ((copies_[slot] & live_mask_) == 0) return -1;
  ReplicaSet desired = DesiredReplicas(slot);
  for (int i = 0; i < desired.count; ++i) {
    int n = desired.node[i];
    if (NodeLive(n) && (copies_[slot] & (1u << n)) == 0) return n;
  }
  return -1;
}

int FleetManager::SourceFor(uint64_t slot) const {
  ReplicaSet desired = DesiredReplicas(slot);
  for (int i = 0; i < desired.count; ++i) {
    int n = desired.node[i];
    if (NodeLive(n) && (copies_[slot] & (1u << n)) != 0) return n;
  }
  for (int n = 0; n < num_nodes(); ++n) {
    if (NodeLive(n) && (copies_[slot] & (1u << n)) != 0) return n;
  }
  return -1;
}

void FleetManager::AddCopy(uint64_t slot, int node) {
  copies_[slot] |= static_cast<uint16_t>(1u << node);
  lost_[slot] = 0;
  ++slots_rebuilt_;
}

uint64_t FleetManager::crash_episodes() const {
  uint64_t total = 0;
  for (uint64_t n : crash_episodes_) total += n;
  return total;
}

uint64_t FleetManager::CheckConsistency() const {
  uint64_t silent = 0;
  for (uint64_t slot = 0; slot < copies_.size(); ++slot) {
    bool ever_held = copies_[slot] != 0 || lost_[slot] != 0;
    if (!ever_held) continue;
    if ((copies_[slot] & live_mask_) == 0 && lost_[slot] == 0) ++silent;
  }
  return silent;
}

}  // namespace magesim
