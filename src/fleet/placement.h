// Deterministic slot placement for a memory-server fleet: a consistent-hash
// ring over swap slots. Each server contributes `vnodes_per_node` virtual
// points hashed from (seed, node, vnode); a slot's replica set is the first
// `replication` distinct servers encountered walking the ring clockwise from
// the slot's own hash. Same (seed, fleet size, replication, vnodes) =>
// byte-identical map on every platform, so same-seed runs of a fleet machine
// stay byte-identical. Adding a server moves only ~1/N of the slots.
#ifndef MAGESIM_FLEET_PLACEMENT_H_
#define MAGESIM_FLEET_PLACEMENT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace magesim {

// Upper bound on replication factor, sized so a replica set fits in a
// register-friendly struct and a per-slot copy set fits in a uint16_t mask.
inline constexpr int kMaxReplicas = 8;

struct ReplicaSet {
  int count = 0;
  std::array<int, kMaxReplicas> node{};

  uint16_t Mask() const {
    uint16_t m = 0;
    for (int i = 0; i < count; ++i) m |= static_cast<uint16_t>(1u << node[i]);
    return m;
  }
};

class PlacementMap {
 public:
  // `replication` is clamped to [1, min(num_nodes, kMaxReplicas)].
  PlacementMap(uint64_t seed, int num_nodes, int replication,
               int vnodes_per_node = 64);

  // Desired replica holders of `slot`, primary first. Liveness-independent:
  // the map never changes at runtime, so rebuild always converges back to
  // the same layout a fresh same-seed run would produce. A table lookup: the
  // ring walk runs once per arc, at construction.
  ReplicaSet ReplicasOf(uint64_t slot) const;
  // The replicas of ring position `h` (a slot's hash): multi-server maps
  // only. Public so tests can probe arc edges and the wrap-around directly.
  ReplicaSet ReplicasAtHash(uint64_t h) const;
  int PrimaryOf(uint64_t slot) const { return ReplicasOf(slot).node[0]; }

  int num_nodes() const { return num_nodes_; }
  int replication() const { return replication_; }
  size_t ring_points() const { return ring_.size(); }

  // FNV-1a over the ring — the determinism tests' map fingerprint.
  uint64_t Fingerprint() const;

 private:
  struct Point {
    uint64_t hash;
    int node;
  };

  // The first `replication_` distinct servers clockwise from ring point `at`.
  ReplicaSet WalkFrom(size_t at) const;

  uint64_t seed_;
  int num_nodes_;
  int replication_;
  std::vector<Point> ring_;  // sorted by (hash, node)
  // Multi-server maps only. A slot whose hash h lies in the arc (point i-1,
  // point i] -- arc 0 also taking every h past the last point -- has
  // replicas arc_replicas_[i]. bucket_first_[b] is the first point whose hash
  // is >= b << bucket_shift_, so h's arc is found by a short forward scan
  // from bucket_first_[h >> bucket_shift_].
  std::vector<ReplicaSet> arc_replicas_;
  std::vector<uint32_t> bucket_first_;
  int bucket_shift_ = 64;
};

}  // namespace magesim

#endif  // MAGESIM_FLEET_PLACEMENT_H_
