#include "src/workloads/gups.h"

namespace magesim {

GupsWorkload::GupsWorkload(Options opt) : opt_(opt), timeline_(opt.timeline_bucket) {
  RequireAtLeast("gups", "total_pages", opt_.total_pages, 2);  // both regions non-empty
  region_a_pages_ = opt_.total_pages * 8 / 10;
  region_b_pages_ = opt_.total_pages - region_a_pages_;
  zipf_a_ = std::make_unique<ZipfGenerator>(region_a_pages_, opt_.zipf_theta);
  zipf_b_ = std::make_unique<ZipfGenerator>(region_b_pages_, opt_.zipf_theta);
}

Task<> GupsWorkload::ThreadBody(AppThread& t, int tid) {
  Engine& eng = Engine::current();
  if (opt_.prewarm_region_a) {
    // Fault region A resident (displacing B), as a long first phase would.
    uint64_t shard = region_a_pages_ / static_cast<uint64_t>(opt_.threads) + 1;
    uint64_t begin = shard * static_cast<uint64_t>(tid);
    uint64_t end = std::min(region_a_pages_, begin + shard);
    for (uint64_t vpn = begin; vpn < end && !eng.shutdown_requested(); ++vpn) {
      co_await t.AccessPage(vpn, /*write=*/true);
      t.Compute(200);
    }
    co_await t.Sync();
  }
  // Batch updates between timeline samples to keep bookkeeping cheap.
  while (!eng.shutdown_requested() && t.logical_now() < opt_.run_for) {
    bool phase_b = t.logical_now() >= opt_.phase_change_at;
    uint64_t vpn;
    if (phase_b) {
      uint64_t rank = zipf_b_->Next(t.rng());
      vpn = region_a_pages_ + ScrambleIndex(rank, region_b_pages_);
    } else {
      uint64_t rank = zipf_a_->Next(t.rng());
      vpn = ScrambleIndex(rank, region_a_pages_);
    }
    co_await t.AccessPage(vpn, /*write=*/true);
    t.Compute(opt_.compute_per_update_ns);
    ++t.ops;
    timeline_.Add(t.logical_now(), 1.0);
  }
  co_await t.Sync();
}

}  // namespace magesim
