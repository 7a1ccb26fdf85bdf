// Metis-style in-memory MapReduce (word-histogram aggregation, §6.2): a map
// phase streams the input region and writes hash-scattered intermediate
// entries; a global barrier; then a reduce phase streams the intermediate
// region — an explicit working-set change between phases (Fig. 12).
#ifndef MAGESIM_WORKLOADS_METIS_H_
#define MAGESIM_WORKLOADS_METIS_H_

#include <vector>

#include "src/workloads/workload.h"

namespace magesim {

class MetisWorkload : public Workload {
 public:
  struct Options {
    uint64_t input_pages = 48 * 1024;         // 192 MB (paper: 30 GB wiki)
    uint64_t intermediate_pages = 32 * 1024;  // hash table region
    int threads = 48;
    SimTime compute_per_input_page_ns = 6000;   // tokenize + hash
    SimTime compute_per_intermediate_op_ns = 250;
    int emits_per_input_page = 8;               // intermediate writes per page
    SimTime compute_per_reduce_page_ns = 3000;
  };

  explicit MetisWorkload(Options opt) : opt_(opt), barrier_(opt.threads) {
    RequireAtLeast("metis", "input_pages", opt_.input_pages, 1);
    RequireAtLeast("metis", "intermediate_pages", opt_.intermediate_pages, 1);
    counts_.assign(1 << 16, 0);
  }

  std::string name() const override { return "metis"; }
  uint64_t wss_pages() const override { return opt_.input_pages + opt_.intermediate_pages; }
  int num_threads() const override { return opt_.threads; }
  std::string ops_unit() const override { return "pages"; }

  Task<> ThreadBody(AppThread& t, int tid) override;

  // Phase boundary timestamps (set once by thread 0).
  SimTime map_done_at() const { return map_done_at_; }
  SimTime reduce_done_at() const { return reduce_done_at_; }
  // Aggregate histogram checksum (the reduce result).
  uint64_t result() const { return result_; }

 private:
  Options opt_;
  SimBarrier barrier_;
  std::vector<uint64_t> counts_;
  SimTime map_done_at_ = 0;
  SimTime reduce_done_at_ = 0;
  uint64_t result_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_WORKLOADS_METIS_H_
