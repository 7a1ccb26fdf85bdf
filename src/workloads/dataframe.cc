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
  Engine& eng = Engine::current();
  uint64_t shard = opt_.num_rows / static_cast<uint64_t>(opt_.threads);
  uint64_t row_begin = shard * static_cast<uint64_t>(tid);
  uint64_t row_end = (tid == opt_.threads - 1) ? opt_.num_rows : row_begin + shard;
  uint64_t local_hash = 0;
  uint64_t local_matched = 0;

  for (int q = 0; q < opt_.queries_per_thread; ++q) {
    if (eng.shutdown_requested()) co_return;
    uint64_t threshold = 0x4000000000000000ULL + (static_cast<uint64_t>(q) << 60);
    uint64_t last_vpn0 = ~0ULL, last_vpn1 = ~0ULL, last_vpn2 = ~0ULL;
    uint64_t agg = 0;
    for (uint64_t row = row_begin; row < row_end; ++row) {
      // Columns stream sequentially at page granularity.
      uint64_t v0 = ColumnVpn(0, row);
      if (v0 != last_vpn0) {
        co_await t.AccessPage(v0, false);
        last_vpn0 = v0;
        t.Compute(opt_.compute_per_row_page_ns);
      }
      uint64_t key = row * 0x9e3779b97f4a7c15ULL;  // synthesized c0
      uint64_t v1 = ColumnVpn(1, row);
      if (v1 != last_vpn1) {
        co_await t.AccessPage(v1, false);
        last_vpn1 = v1;
      }
      uint64_t pred = key ^ (key >> 29);  // synthesized c1
      if (pred <= threshold) continue;    // predicate filters most pages' rows
      uint64_t v2 = ColumnVpn(2, row);
      if (v2 != last_vpn2) {
        co_await t.AccessPage(v2, false);
        last_vpn2 = v2;
      }
      // Group-by update: hash-scattered write.
      uint64_t group = (key >> 17) % opt_.groups;
      co_await t.AccessPage(GroupVpn(group), /*write=*/true);
      agg += pred >> 32;
      ++local_matched;
    }
    local_hash ^= agg + static_cast<uint64_t>(q);
    ++t.ops;
  }
  co_await t.Sync();
  result_hash_ ^= local_hash;
  rows_matched_ += local_matched;
}

}  // namespace magesim
