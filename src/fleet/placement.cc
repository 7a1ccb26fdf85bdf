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
  if (num_nodes_ == 1) return;  // one server has one answer: no table
  const size_t n = ring_.size();
  arc_replicas_.reserve(n);
  for (size_t i = 0; i < n; ++i) arc_replicas_.push_back(WalkFrom(i));
  // About four buckets per point keeps the scan to a step or two.
  int bits = 2;
  while ((size_t{1} << bits) < 4 * n && bits < 20) ++bits;
  bucket_shift_ = 64 - bits;
  bucket_first_.resize(size_t{1} << bits);
  size_t at = 0;
  for (size_t b = 0; b < bucket_first_.size(); ++b) {
    const uint64_t lo = static_cast<uint64_t>(b) << bucket_shift_;
    while (at < n && ring_[at].hash < lo) ++at;
    bucket_first_[b] = static_cast<uint32_t>(at);
  }
}

ReplicaSet PlacementMap::WalkFrom(size_t at) const {
  ReplicaSet out;
  // Clockwise from point `at`, wrapping once past the last point.
  for (size_t i = 0; i < ring_.size() && out.count < replication_; ++i, ++at) {
    if (at == ring_.size()) at = 0;
    int node = ring_[at].node;
    bool seen = false;
    for (int j = 0; j < out.count; ++j) seen |= out.node[j] == node;
    if (!seen) out.node[out.count++] = node;
  }
  return out;
}

ReplicaSet PlacementMap::ReplicasOf(uint64_t slot) const {
  if (num_nodes_ == 1) {  // one server has one answer: no ring walk per fault
    ReplicaSet out;
    out.count = 1;
    return out;
  }
  return ReplicasAtHash(Mix64(seed_ ^ Mix64(slot)));
}

ReplicaSet PlacementMap::ReplicasAtHash(uint64_t h) const {
  // The first point at or after h (std::lower_bound's answer), found from
  // h's bucket; past the last point the arc wraps to point 0.
  size_t at = bucket_first_[h >> bucket_shift_];
  while (at < ring_.size() && ring_[at].hash < h) ++at;
  return arc_replicas_[at == ring_.size() ? 0 : at];
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
