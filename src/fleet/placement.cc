#include "src/fleet/placement.h"

#include <algorithm>

namespace magesim {

namespace {

// splitmix64 finalizer: cheap, well-mixed, and fully portable — the ring must
// come out identical on every platform for same-seed determinism.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

PlacementMap::PlacementMap(uint64_t seed, int num_nodes, int replication,
                           int vnodes_per_node)
    : seed_(seed), num_nodes_(num_nodes < 1 ? 1 : num_nodes) {
  replication_ = std::clamp(replication, 1, std::min(num_nodes_, kMaxReplicas));
  if (vnodes_per_node < 1) vnodes_per_node = 1;
  ring_.reserve(static_cast<size_t>(num_nodes_) * vnodes_per_node);
  for (int n = 0; n < num_nodes_; ++n) {
    for (int v = 0; v < vnodes_per_node; ++v) {
      uint64_t h = Mix64(seed_ ^ Mix64((static_cast<uint64_t>(n) << 32) |
                                       static_cast<uint64_t>(v)));
      ring_.push_back({h, n});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    if (a.hash != b.hash) return a.hash < b.hash;
    return a.node < b.node;  // hash ties broken deterministically
  });
}

ReplicaSet PlacementMap::ReplicasOf(uint64_t slot) const {
  ReplicaSet out;
  if (num_nodes_ == 1) {  // one server has one answer: no ring walk per fault
    out.count = 1;
    return out;
  }
  uint64_t h = Mix64(seed_ ^ Mix64(slot));
  size_t at = static_cast<size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), h,
                       [](const Point& p, uint64_t v) { return p.hash < v; }) -
      ring_.begin());
  // Clockwise from the slot's hash, wrapping once past the last point.
  for (size_t i = 0; i < ring_.size() && out.count < replication_; ++i, ++at) {
    if (at == ring_.size()) at = 0;
    int node = ring_[at].node;
    bool seen = false;
    for (int j = 0; j < out.count; ++j) seen |= out.node[j] == node;
    if (!seen) out.node[out.count++] = node;
  }
  return out;
}

uint64_t PlacementMap::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<uint64_t>(num_nodes_));
  mix(static_cast<uint64_t>(replication_));
  for (const Point& p : ring_) {
    mix(p.hash);
    mix(static_cast<uint64_t>(p.node));
  }
  return h;
}

}  // namespace magesim
