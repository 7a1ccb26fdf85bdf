// Memcached-style in-memory KV store under Facebook's USR-like load (§6.3):
// an open-loop Poisson request generator (99.8% GET / 0.2% SET, Zipf-0.99
// keys) feeding a pool of server threads over a dispatch queue. A real
// open-addressing hash table backs the store: bucket probes and value reads
// are the simulated memory accesses. Reports per-request latency percentiles.
#ifndef MAGESIM_WORKLOADS_MEMCACHED_H_
#define MAGESIM_WORKLOADS_MEMCACHED_H_

#include <memory>

#include "src/sim/stats.h"
#include "src/workloads/workload.h"

namespace magesim {

class MemcachedWorkload : public Workload {
 public:
  struct Options {
    uint64_t num_keys = 1 << 20;        // paper: 21 M pairs
    double load_ops_per_sec = 400000;   // offered load
    double get_fraction = 0.998;        // USR distribution
    double zipf_theta = 0.99;
    int server_threads = 24;            // single-socket (§6.3)
    SimTime duration = 2 * kSecond;
    SimTime service_compute_ns = 2000;  // parse + hash + respond
    uint64_t seed = 23;
    size_t queue_capacity = 4096;       // accept queue bound
  };

  // Throws std::invalid_argument when num_keys is 0 (every key hash is
  // reduced modulo it).
  explicit MemcachedWorkload(Options opt);

  std::string name() const override { return "memcached"; }
  uint64_t wss_pages() const override { return wss_pages_; }
  // +1: thread 0 is the load generator; the rest serve requests.
  int num_threads() const override { return opt_.server_threads + 1; }
  std::string ops_unit() const override { return "requests"; }

  Task<> ThreadBody(AppThread& t, int tid) override;

  const Histogram& request_latency() const { return latency_; }
  uint64_t completed_requests() const { return completed_; }
  uint64_t dropped_requests() const { return dropped_; }
  double AchievedOpsPerSec() const {
    return static_cast<double>(completed_) / NsToSec(opt_.duration);
  }

 private:
  struct Request {
    uint64_t key;
    bool is_set;
    SimTime arrival;
  };

  uint64_t BucketVpn(uint64_t key_hash) const;
  uint64_t ValueVpn(uint64_t key) const;

  Options opt_;
  uint64_t bucket_pages_;
  uint64_t value_pages_;
  uint64_t wss_pages_;
  std::unique_ptr<ZipfGenerator> zipf_;
  std::unique_ptr<Channel<Request>> queue_;
  Histogram latency_;
  uint64_t completed_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_WORKLOADS_MEMCACHED_H_
