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
  Engine& eng = Engine::current();
  uint64_t local_hash = 0;
  for (uint64_t l = 0; l < opt_.lookups_per_thread; ++l) {
    if (eng.shutdown_requested()) break;
    // Sample a particle energy, binary-search the unionized grid. The first
    // probes hit the (hot) middle of the array; the final probes are random.
    uint64_t lo = 0, hi = opt_.gridpoints - 1;
    uint64_t target = ScrambleIndex(energy_dist_->Next(t.rng()), opt_.gridpoints);
    while (lo < hi) {
      uint64_t mid = lo + (hi - lo) / 2;
      co_await t.AccessPage(GridVpn(mid), /*write=*/false);
      if (mid < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Gather cross sections for a handful of nuclides at scattered rows.
    double macro_xs = 0.0;
    for (int k = 0; k < opt_.nuclides_per_lookup; ++k) {
      uint64_t nuclide = t.rng().NextU64(static_cast<uint64_t>(opt_.nuclides));
      uint64_t row = ScrambleIndex(lo * 131 + nuclide, xs_entries_);
      co_await t.AccessPage(XsVpn(row), /*write=*/false);
      macro_xs += static_cast<double>((row % 997) + 1) * 1e-3;
    }
    local_hash ^= static_cast<uint64_t>(macro_xs * 1e6) + lo;
    t.Compute(opt_.compute_per_lookup_ns);
    ++t.ops;
  }
  co_await t.Sync();
  result_hash_ ^= local_hash;
}

}  // namespace magesim
