#include "src/workloads/memcached.h"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace magesim {

MemcachedWorkload::MemcachedWorkload(Options opt) : opt_(opt) {
  RequireAtLeast("memcached", "num_keys", opt_.num_keys, 1);
  // The load generator waits 1e9 / rate ns between requests: a rate of 0
  // would wait forever, a negative one a negative time.
  if (!(opt_.load_ops_per_sec > 0)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", opt_.load_ops_per_sec);
    throw std::invalid_argument(std::string("memcached: load_ops_per_sec=") + buf +
                                " must be > 0");
  }
  // Hash table: 64 B bucket per key (open addressing, load factor folded in).
  bucket_pages_ = (opt_.num_keys * 64 + kPageSize - 1) / kPageSize;
  // Values: ~128 B each (USR values are small), packed.
  value_pages_ = (opt_.num_keys * 128 + kPageSize - 1) / kPageSize;
  wss_pages_ = bucket_pages_ + value_pages_;
  zipf_ = std::make_unique<ZipfGenerator>(opt_.num_keys, opt_.zipf_theta);
  queue_ = std::make_unique<Channel<Request>>(opt_.queue_capacity);
}

uint64_t MemcachedWorkload::BucketVpn(uint64_t key_hash) const {
  return (key_hash * 64) / kPageSize % bucket_pages_;
}

uint64_t MemcachedWorkload::ValueVpn(uint64_t key) const {
  return bucket_pages_ + (key * 128) / kPageSize % value_pages_;
}

Task<> MemcachedWorkload::ThreadBody(AppThread& t, int tid) {
  Engine& eng = Engine::current();
  if (tid == 0) {
    // --- Load generator: open-loop Poisson arrivals ---
    double mean_interarrival_ns = 1e9 / opt_.load_ops_per_sec;
    while (!eng.shutdown_requested() && eng.now() < opt_.duration) {
      co_await Delay{static_cast<SimTime>(t.rng().NextExponential(mean_interarrival_ns)) + 1};
      uint64_t rank = zipf_->Next(t.rng());
      uint64_t key = ScrambleIndex(rank, opt_.num_keys);
      Request req{key, t.rng().NextBool(1.0 - opt_.get_fraction), eng.now()};
      if (!queue_->TryPush(req)) {
        // Accept queue overflow under overload: client-visible drop.
        ++dropped_;
      }
    }
    co_return;
  }

  // --- Server threads ---
  while (!eng.shutdown_requested()) {
    if (queue_->empty() && eng.now() >= opt_.duration) co_return;
    Request req = co_await queue_->Pop();
    // One run per request, since the Sync after it stamps the request's
    // latency: the bucket probe (open addressing: usually one page touch),
    // then the value access, read for GET and write for SET. Cursor:
    // whether the probe is done. The request counts in `ops` only after the
    // Sync, which the metrics sampler can observe mid-delay.
    const uint64_t bucket = BucketVpn(ScrambleIndex(req.key, opt_.num_keys));
    const uint64_t value = ValueVpn(req.key);
    bool probed = false;
    co_await t.RunHits([&](AppThread::HitRun& r) {
      if (!probed) {
        if (!r.Touch(bucket, /*write=*/false)) return;
        probed = true;
      }
      if (!r.Touch(value, req.is_set)) return;
      r.Compute(opt_.service_compute_ns);
    });
    co_await t.Sync();
    latency_.Record(eng.now() - req.arrival);
    ++completed_;
    ++t.ops;
  }
}

}  // namespace magesim
