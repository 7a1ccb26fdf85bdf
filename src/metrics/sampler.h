// Engine-driven periodic sampler: records time series of free-memory
// watermark, fault and eviction rates, dirty ratio, IPI queue depth, and RDMA
// link utilization.
//
// The sampler pulls raw values through `SamplerSources` callbacks so this
// library never depends on the paging layer (and tests can script
// hand-computed inputs). Rates and utilizations are derived from deltas
// between consecutive samples, so each row is a windowed measurement over the
// preceding interval, not a since-start average.
#ifndef MAGESIM_METRICS_SAMPLER_H_
#define MAGESIM_METRICS_SAMPLER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/time.h"

namespace magesim {

// Raw cumulative/instantaneous values the sampler reads each tick. Absent
// callbacks sample as zero.
struct SamplerSources {
  std::function<uint64_t()> free_pages;        // instantaneous
  std::function<uint64_t()> faults;            // cumulative
  std::function<uint64_t()> evicted_pages;     // cumulative
  std::function<uint64_t()> total_ops;         // cumulative app operations
  std::function<double()> dirty_ratio;         // instantaneous, [0,1]
  std::function<uint64_t()> ipi_queue_depth;   // instantaneous in-flight IPIs
  // Cumulative channel-busy ns summed over `nic_links` links; the
  // utilization columns are the links' mean busy share per window.
  std::function<uint64_t()> nic_read_busy_ns;
  std::function<uint64_t()> nic_write_busy_ns;
  int nic_links = 1;
};

class MetricsSampler {
 public:
  struct Sample {
    SimTime t = 0;
    uint64_t free_pages = 0;
    uint64_t faults = 0;         // cumulative at sample time
    uint64_t evicted_pages = 0;  // cumulative
    uint64_t ops = 0;            // cumulative
    uint64_t ipi_queue_depth = 0;
    double dirty_ratio = 0.0;
    // Windowed derivations vs. the previous sample (0 for the t=0 row).
    double fault_rate_per_s = 0.0;
    double evict_rate_per_s = 0.0;
    double ops_rate_per_s = 0.0;
    double nic_read_util = 0.0;   // [0,1], mean over the links
    double nic_write_util = 0.0;  // [0,1], mean over the links
  };

  MetricsSampler(SamplerSources sources, SimTime interval)
      : sources_(std::move(sources)), interval_(interval) {}

  // Samples at t=0, then every `interval` ns until the engine requests
  // shutdown. Spawn on the machine's engine. When `progress` is set, each
  // sample also prints a one-line status to stderr.
  Task<> Main(bool progress = false);

  // Takes one sample at the current sim time (idempotent per timestamp:
  // a repeat call at the same t is dropped). Used by Main and for the final
  // end-of-run sample.
  void SampleNow();

  const std::vector<Sample>& samples() const { return samples_; }
  SimTime interval() const { return interval_; }

  // Column headers for ToCsv, in emit order.
  static const std::vector<std::string>& Columns();
  // RFC-4180-safe CSV of all samples (numeric cells never need quoting).
  std::string ToCsv() const;

 private:
  SamplerSources sources_;
  SimTime interval_;
  std::vector<Sample> samples_;
  // Cumulative NIC busy-ns at the previous sample (utilization deltas).
  uint64_t prev_read_busy_ = 0;
  uint64_t prev_write_busy_ = 0;
};

}  // namespace magesim

#endif  // MAGESIM_METRICS_SAMPLER_H_
