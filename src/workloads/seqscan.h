// Sequential-scan microbenchmark (§3.1 "regular access patterns", Figs. 4/10):
// a dataframe-style checksum over a memory region equally sharded among worker
// threads. One op = one page processed.
#ifndef MAGESIM_WORKLOADS_SEQSCAN_H_
#define MAGESIM_WORKLOADS_SEQSCAN_H_

#include "src/workloads/workload.h"

namespace magesim {

class SeqScanWorkload : public Workload {
 public:
  struct Options {
    uint64_t region_pages = 64 * 1024;  // 256 MB default (paper: 20 GB)
    int threads = 48;
    int passes = 3;
    // Per-page checksum compute. Calibrated so 48 threads at 100% local
    // memory reach ~8.6 M pages/s, the paper's Table 2 baseline.
    SimTime compute_per_page_ns = 5570;
    // Write scan: dirties every page, forcing eviction write-back.
    bool write = false;
  };

  explicit SeqScanWorkload(Options opt) : opt_(opt) {
    RequireAtLeast("seqscan", "region_pages", opt_.region_pages, 1);
  }

  std::string name() const override { return "seqscan"; }
  uint64_t wss_pages() const override { return opt_.region_pages; }
  int num_threads() const override { return opt_.threads; }
  std::string ops_unit() const override { return "pages"; }

  Task<> ThreadBody(AppThread& t, int tid) override;

  // The running checksum (the "real work"), exposed so tests can verify the
  // scan actually reads every page's worth of state deterministically.
  uint64_t checksum() const { return checksum_; }

 private:
  Options opt_;
  uint64_t checksum_ = 0;
};

// Fault-path isolation variant (§3.2 "fault-in only"): every page access is a
// major fault; pages are instantly reclaimed (pre-evicted) a fixed distance
// behind the scan cursor so local memory never pressures the evictors.
class FaultOnlySeqRead : public Workload {
 public:
  struct Options {
    uint64_t pages_per_thread = 4096;
    int threads = 48;
    int reclaim_distance = 8;
    SimTime compute_per_page_ns = 0;
  };

  explicit FaultOnlySeqRead(Options opt) : opt_(opt) {}

  std::string name() const override { return "fault-only-seqread"; }
  uint64_t wss_pages() const override {
    return opt_.pages_per_thread * static_cast<uint64_t>(opt_.threads);
  }
  int num_threads() const override { return opt_.threads; }
  std::string ops_unit() const override { return "faults"; }

  Task<> ThreadBody(AppThread& t, int tid) override;

 private:
  Options opt_;
};

}  // namespace magesim

#endif  // MAGESIM_WORKLOADS_SEQSCAN_H_
