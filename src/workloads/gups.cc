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
    // The shutdown check before each page: the first here, the rest in the
    // run, after the page before it is done. Cursor: the next page.
    uint64_t next = begin;
    if (next < end && !eng.shutdown_requested()) {
      co_await t.RunHits([&](AppThread::HitRun& r) {
        uint64_t vpn = next;
        for (;;) {
          if (!r.Touch(vpn, /*write=*/true)) break;
          r.Compute(200);
          if (++vpn == end || r.shutdown_requested()) break;
        }
        next = vpn;
      });
    }
    co_await t.Sync();
  }
  // Cursor: the page drawn for the next update, if it is not yet done. The
  // loop condition and the draw run once per update, before its access, so
  // a run resumed at a missed access finds the page already drawn.
  bool drawn = false;
  uint64_t next_vpn = 0;
  co_await t.RunHits([&](AppThread::HitRun& r) {
    const Options o = opt_;
    bool have = drawn;
    uint64_t vpn = next_vpn;
    for (;;) {
      if (!have) {
        if (r.shutdown_requested() || r.logical_now() >= o.run_for) break;
        if (r.logical_now() >= o.phase_change_at) {
          uint64_t rank = zipf_b_->Next(t.rng());
          vpn = region_a_pages_ + ScrambleIndex(rank, region_b_pages_);
        } else {
          uint64_t rank = zipf_a_->Next(t.rng());
          vpn = ScrambleIndex(rank, region_a_pages_);
        }
        have = true;
      }
      if (!r.Touch(vpn, /*write=*/true)) break;
      have = false;
      r.Compute(o.compute_per_update_ns);
      ++r.ops;
      timeline_.Add(r.logical_now(), 1.0);
    }
    drawn = have;
    next_vpn = vpn;
  });
  co_await t.Sync();
}

}  // namespace magesim
