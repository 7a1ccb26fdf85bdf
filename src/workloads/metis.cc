#include "src/workloads/metis.h"

namespace magesim {

Task<> MetisWorkload::ThreadBody(AppThread& t, int tid) {
  Engine& eng = Engine::current();
  uint64_t in_shard = opt_.input_pages / static_cast<uint64_t>(opt_.threads);
  uint64_t in_begin = in_shard * static_cast<uint64_t>(tid);
  uint64_t in_end = (tid == opt_.threads - 1) ? opt_.input_pages : in_begin + in_shard;
  uint64_t inter_base = opt_.input_pages;

  // --- Map phase: stream input, emit hash-scattered intermediate updates ---
  // The shutdown check before each input page: the first here, the rest in
  // the run, after the page before it is done. Cursor: the input page, whether
  // it was read, and the emits done from it.
  uint64_t page = in_begin;
  bool page_read = false;
  int emitted = 0;
  if (page < in_end && !eng.shutdown_requested()) {
    co_await t.RunHits([&](AppThread::HitRun& r) {
      const Options o = opt_;
      uint64_t p = page;
      bool read = page_read;
      int e = emitted;
      for (;;) {
        if (!read) {
          if (!r.Touch(p, /*write=*/false)) break;
          r.Compute(o.compute_per_input_page_ns);
          read = true;
        }
        for (; e < o.emits_per_input_page; ++e) {
          uint64_t key = ScrambleIndex(p * 131 + static_cast<uint64_t>(e), o.intermediate_pages);
          if (!r.Touch(inter_base + key, /*write=*/true)) break;
          counts_[(p * 131 + static_cast<uint64_t>(e)) & 0xffff] += 1;
          r.Compute(o.compute_per_intermediate_op_ns);
        }
        if (e < o.emits_per_input_page) break;
        ++r.ops;
        read = false;
        e = 0;
        if (++p == in_end || r.shutdown_requested()) break;
      }
      page = p;
      page_read = read;
      emitted = e;
    });
  }
  co_await t.Sync();
  co_await barrier_.Arrive();
  if (tid == 0) map_done_at_ = eng.now();
  co_await barrier_.Arrive();

  // --- Reduce phase: stream the intermediate region (new working set) ---
  uint64_t red_shard = opt_.intermediate_pages / static_cast<uint64_t>(opt_.threads);
  uint64_t red_begin = red_shard * static_cast<uint64_t>(tid);
  uint64_t red_end =
      (tid == opt_.threads - 1) ? opt_.intermediate_pages : red_begin + red_shard;
  uint64_t local_sum = 0;
  page = red_begin;
  if (page < red_end && !eng.shutdown_requested()) {
    co_await t.RunHits([&](AppThread::HitRun& r) {
      const SimTime per_page = opt_.compute_per_reduce_page_ns;
      uint64_t p = page, sum = local_sum;
      for (;;) {
        if (!r.Touch(inter_base + p, /*write=*/false)) break;
        r.Compute(per_page);
        sum += p * 2654435761ULL;
        ++r.ops;
        if (++p == red_end || r.shutdown_requested()) break;
      }
      page = p;
      local_sum = sum;
    });
  }
  co_await t.Sync();
  result_ += local_sum;
  co_await barrier_.Arrive();
  if (tid == 0) reduce_done_at_ = eng.now();
}

}  // namespace magesim
