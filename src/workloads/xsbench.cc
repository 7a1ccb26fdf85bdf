#include "src/workloads/xsbench.h"

namespace magesim {

XsBenchWorkload::XsBenchWorkload(Options opt) : opt_(opt) {
  RequireAtLeast("xsbench", "gridpoints", opt_.gridpoints, 1);
  energy_dist_ = std::make_unique<ZipfGenerator>(opt_.gridpoints, opt_.energy_zipf_theta);
  // Unionized grid: one 16-byte entry (energy + index) per gridpoint.
  entries_per_page_ = kPageSize / 16;
  // Cross-section data: 48 bytes per (gridpoint-bucket, nuclide) entry,
  // scaled down by a fixed stride so the region stays simulation-sized.
  xs_per_page_ = kPageSize / 48;
  grid_base_ = 0;
  uint64_t grid_pages = (opt_.gridpoints + entries_per_page_ - 1) / entries_per_page_;
  xs_base_ = grid_pages;
  xs_entries_ = opt_.gridpoints;  // one bucket row per gridpoint
  uint64_t xs_pages = (xs_entries_ + xs_per_page_ - 1) / xs_per_page_;
  wss_pages_ = grid_pages + xs_pages;
}

Task<> XsBenchWorkload::ThreadBody(AppThread& t, int tid) {
  // Cursor: the lookup in progress. Its energy target and each gather's
  // nuclide row are drawn once, before their first access, and kept, so a
  // run resumed at a missed access finds them drawn; the loop condition
  // runs with the target's draw, after the lookup before is done.
  struct Cursor {
    uint64_t lookups_done = 0;
    bool started = false;  // target drawn, search and gather reset
    uint64_t target = 0, lo = 0, hi = 0;
    int gathered = 0;
    bool row_drawn = false;
    uint64_t row = 0;
    double macro_xs = 0.0;
    uint64_t hash = 0;
  } cur;
  co_await t.RunHits([&](AppThread::HitRun& r) {
    Cursor c = cur;
    const Options o = opt_;
    for (;;) {
      if (!c.started) {
        if (c.lookups_done == o.lookups_per_thread || r.shutdown_requested()) break;
        // Sample a particle energy, binary-search the unionized grid. The
        // first probes hit the (hot) middle of the array; the final probes
        // are random.
        c.target = ScrambleIndex(energy_dist_->Next(t.rng()), o.gridpoints);
        c.lo = 0;
        c.hi = o.gridpoints - 1;
        c.gathered = 0;
        c.macro_xs = 0.0;
        c.started = true;
      }
      while (c.lo < c.hi) {
        uint64_t mid = c.lo + (c.hi - c.lo) / 2;
        if (!r.Touch(GridVpn(mid), /*write=*/false)) break;
        if (mid < c.target) {
          c.lo = mid + 1;
        } else {
          c.hi = mid;
        }
      }
      if (c.lo < c.hi) break;
      // Gather cross sections for a handful of nuclides at scattered rows.
      while (c.gathered < o.nuclides_per_lookup) {
        if (!c.row_drawn) {
          uint64_t nuclide = t.rng().NextU64(static_cast<uint64_t>(o.nuclides));
          c.row = ScrambleIndex(c.lo * 131 + nuclide, xs_entries_);
          c.row_drawn = true;
        }
        if (!r.Touch(XsVpn(c.row), /*write=*/false)) break;
        c.row_drawn = false;
        c.macro_xs += static_cast<double>((c.row % 997) + 1) * 1e-3;
        ++c.gathered;
      }
      if (c.gathered < o.nuclides_per_lookup) break;
      c.hash ^= static_cast<uint64_t>(c.macro_xs * 1e6) + c.lo;
      r.Compute(o.compute_per_lookup_ns);
      ++r.ops;
      ++c.lookups_done;
      c.started = false;
    }
    cur = c;
  });
  co_await t.Sync();
  result_hash_ ^= cur.hash;
}

}  // namespace magesim
