#include "src/workloads/seqscan.h"

namespace magesim {

Task<> SeqScanWorkload::ThreadBody(AppThread& t, int tid) {
  Engine& eng = Engine::current();
  uint64_t shard = opt_.region_pages / static_cast<uint64_t>(opt_.threads);
  uint64_t begin = shard * static_cast<uint64_t>(tid);
  uint64_t end = (tid == opt_.threads - 1) ? opt_.region_pages : begin + shard;
  uint64_t sum = 0;
  if (begin < end && opt_.passes > 0) {
    // The shutdown check before each page: the first here, the rest in the
    // run, after the page before it is done.
    if (eng.shutdown_requested()) co_return;
    // Cursor: the next page of the current pass.
    int pass = 0;
    uint64_t vpn = begin;
    bool stopped = false;
    co_await t.RunHits([&](AppThread::HitRun& r) {
      // Locals, so the PTE stores of a hit cannot alias them.
      const Options o = opt_;
      uint64_t v = vpn, s = sum;
      int p = pass;
      while (p < o.passes) {
        if (!r.Touch(v, o.write)) break;
        // The checksum itself: deterministic page-content stand-in.
        s += v * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(p);
        r.Compute(o.compute_per_page_ns);
        ++r.ops;
        if (++v == end) {
          v = begin;
          ++p;
        }
        if (p < o.passes && r.shutdown_requested()) {
          stopped = true;
          break;
        }
      }
      vpn = v;
      sum = s;
      pass = p;
    });
    if (stopped) co_return;
  }
  co_await t.Sync();
  checksum_ ^= sum;
}

Task<> FaultOnlySeqRead::ThreadBody(AppThread& t, int tid) {
  Engine& eng = Engine::current();
  uint64_t begin = opt_.pages_per_thread * static_cast<uint64_t>(tid);
  uint64_t end = begin + opt_.pages_per_thread;
  uint64_t dist = static_cast<uint64_t>(opt_.reclaim_distance);
  // Pre-evict the whole shard (the paper's madvise_pageout setup step) so
  // every access below is a major fault.
  for (uint64_t vpn = begin; vpn < end; ++vpn) {
    t.kernel().InstantReclaim(vpn);
  }
  // The shutdown check before each page: the first here, the rest in the
  // run, after the page before it is done. Cursor: the next page.
  uint64_t next = begin;
  if (begin < end && !eng.shutdown_requested()) {
    co_await t.RunHits([&](AppThread::HitRun& r) {
      const SimTime compute = opt_.compute_per_page_ns;
      uint64_t vpn = next;
      for (;;) {
        if (!r.Touch(vpn, /*write=*/false)) break;
        if (compute > 0) r.Compute(compute);
        ++r.ops;
        // Emulate madvise_pageout far behind the cursor: zero-cost reclaim
        // keeps every access a major fault without engaging the eviction
        // path.
        if (vpn >= begin + dist) t.kernel().InstantReclaim(vpn - dist);
        if (++vpn == end || r.shutdown_requested()) break;
      }
      next = vpn;
    });
  }
  // Leave no resident pages behind so repeated runs are independent.
  for (uint64_t vpn = end > dist ? end - dist : 0; vpn < end; ++vpn) {
    t.kernel().InstantReclaim(vpn);
  }
  co_await t.Sync();
}

}  // namespace magesim
