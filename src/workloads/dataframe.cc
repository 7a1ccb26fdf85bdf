#include "src/workloads/dataframe.h"

#include <algorithm>

namespace magesim {

DataframeWorkload::DataframeWorkload(Options opt) : opt_(opt) {
  RequireAtLeast("dataframe", "num_rows", opt_.num_rows, 1);
  RequireAtLeast("dataframe", "num_columns", static_cast<uint64_t>(std::max(opt_.num_columns, 0)), 1);
  rows_per_page_ = kPageSize / 8;  // 8-byte values
  column_pages_ = (opt_.num_rows + rows_per_page_ - 1) / rows_per_page_;
  group_base_ = column_pages_ * static_cast<uint64_t>(opt_.num_columns);
  uint64_t group_pages = (opt_.groups * 16 + kPageSize - 1) / kPageSize;  // key+agg
  wss_pages_ = group_base_ + group_pages;
}

uint64_t DataframeWorkload::ColumnVpn(int col, uint64_t row) const {
  return static_cast<uint64_t>(col) * column_pages_ + row / rows_per_page_;
}

uint64_t DataframeWorkload::GroupVpn(uint64_t group) const {
  return group_base_ + (group * 16) / kPageSize;
}

Task<> DataframeWorkload::ThreadBody(AppThread& t, int tid) {
  // Each query: SELECT group, SUM(c2) WHERE c1 > threshold GROUP BY hash(c0)
  // over this thread's row shard. Column data is synthesized on the fly from
  // a per-row hash so the computation is real and deterministic.
  uint64_t shard = opt_.num_rows / static_cast<uint64_t>(opt_.threads);
  uint64_t row_begin = shard * static_cast<uint64_t>(tid);
  uint64_t row_end = (tid == opt_.threads - 1) ? opt_.num_rows : row_begin + shard;

  // Cursor: the query and row in progress, and the last page touched in
  // each column; a column's guard moves past a page only once its Touch
  // hit, so a run resumed at a missed access skips every earlier access of
  // the row and repeats that one. A query's shutdown check and reset run
  // once, before its first access.
  struct Cursor {
    int query = 0;
    bool begun = false;
    bool stopped = false;
    uint64_t row = 0;
    uint64_t last_vpn0 = 0, last_vpn1 = 0, last_vpn2 = 0;
    uint64_t agg = 0;
    uint64_t hash = 0;
    uint64_t matched = 0;
  } cur;
  co_await t.RunHits([&](AppThread::HitRun& r) {
    Cursor c = cur;
    const Options o = opt_;
    while (c.query < o.queries_per_thread) {
      if (!c.begun) {
        if (r.shutdown_requested()) {
          c.stopped = true;
          break;
        }
        c.row = row_begin;
        c.last_vpn0 = c.last_vpn1 = c.last_vpn2 = ~0ULL;
        c.agg = 0;
        c.begun = true;
      }
      uint64_t threshold = 0x4000000000000000ULL + (static_cast<uint64_t>(c.query) << 60);
      for (; c.row < row_end; ++c.row) {
        // Columns stream sequentially at page granularity.
        uint64_t v0 = ColumnVpn(0, c.row);
        if (v0 != c.last_vpn0) {
          if (!r.Touch(v0, /*write=*/false)) break;
          c.last_vpn0 = v0;
          r.Compute(o.compute_per_row_page_ns);
        }
        uint64_t key = c.row * 0x9e3779b97f4a7c15ULL;  // synthesized c0
        uint64_t v1 = ColumnVpn(1, c.row);
        if (v1 != c.last_vpn1) {
          if (!r.Touch(v1, /*write=*/false)) break;
          c.last_vpn1 = v1;
        }
        uint64_t pred = key ^ (key >> 29);  // synthesized c1
        if (pred <= threshold) continue;    // predicate filters most pages' rows
        uint64_t v2 = ColumnVpn(2, c.row);
        if (v2 != c.last_vpn2) {
          if (!r.Touch(v2, /*write=*/false)) break;
          c.last_vpn2 = v2;
        }
        // Group-by update: hash-scattered write.
        uint64_t group = (key >> 17) % o.groups;
        if (!r.Touch(GroupVpn(group), /*write=*/true)) break;
        c.agg += pred >> 32;
        ++c.matched;
      }
      if (c.row < row_end) break;
      c.hash ^= c.agg + static_cast<uint64_t>(c.query);
      ++r.ops;
      ++c.query;
      c.begun = false;
    }
    cur = c;
  });
  if (cur.stopped) co_return;
  co_await t.Sync();
  result_hash_ ^= cur.hash;
  rows_matched_ += cur.matched;
}

}  // namespace magesim
