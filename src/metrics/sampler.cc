#include "src/metrics/sampler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/sim/engine.h"

namespace magesim {

namespace {
uint64_t Pull(const std::function<uint64_t()>& f) { return f ? f() : 0; }
double PullD(const std::function<double()>& f) { return f ? f() : 0.0; }
// Delta between cumulative readings, tolerating a counter reset in between
// (the machine resets kernel/NIC stats at the end of warmup).
uint64_t Delta(uint64_t cur, uint64_t prev) { return cur >= prev ? cur - prev : cur; }
}  // namespace

void MetricsSampler::SampleNow() {
  SimTime now = Engine::current().now();
  if (!samples_.empty() && samples_.back().t == now) return;

  Sample s;
  s.t = now;
  s.free_pages = Pull(sources_.free_pages);
  s.faults = Pull(sources_.faults);
  s.evicted_pages = Pull(sources_.evicted_pages);
  s.ops = Pull(sources_.total_ops);
  s.ipi_queue_depth = Pull(sources_.ipi_queue_depth);
  s.dirty_ratio = PullD(sources_.dirty_ratio);
  uint64_t read_busy = Pull(sources_.nic_read_busy_ns);
  uint64_t write_busy = Pull(sources_.nic_write_busy_ns);

  if (!samples_.empty()) {
    const Sample& prev = samples_.back();
    SimTime dt = now - prev.t;
    if (dt > 0) {
      double dt_s = NsToSec(dt);
      s.fault_rate_per_s = static_cast<double>(Delta(s.faults, prev.faults)) / dt_s;
      s.evict_rate_per_s =
          static_cast<double>(Delta(s.evicted_pages, prev.evicted_pages)) / dt_s;
      s.ops_rate_per_s = static_cast<double>(Delta(s.ops, prev.ops)) / dt_s;
      double link_ns = static_cast<double>(dt * sources_.nic_links);
      s.nic_read_util =
          std::clamp(static_cast<double>(Delta(read_busy, prev_read_busy_)) / link_ns, 0.0, 1.0);
      s.nic_write_util =
          std::clamp(static_cast<double>(Delta(write_busy, prev_write_busy_)) / link_ns, 0.0, 1.0);
    }
  }
  prev_read_busy_ = read_busy;
  prev_write_busy_ = write_busy;
  samples_.push_back(s);
}

Task<> MetricsSampler::Main(bool progress) {
  SampleNow();
  while (!Engine::current().shutdown_requested()) {
    co_await Delay{interval_};
    SampleNow();
    if (progress && !samples_.empty()) {
      const Sample& s = samples_.back();
      std::fprintf(stderr,
                   "[magesim] t=%.3fms free=%" PRIu64 " faults/s=%.0f evict/s=%.0f"
                   " ops/s=%.0f dirty=%.2f ipi=%" PRIu64 " rd_util=%.2f wr_util=%.2f\n",
                   static_cast<double>(s.t) / 1e6, s.free_pages, s.fault_rate_per_s,
                   s.evict_rate_per_s, s.ops_rate_per_s, s.dirty_ratio, s.ipi_queue_depth,
                   s.nic_read_util, s.nic_write_util);
    }
  }
}

const std::vector<std::string>& MetricsSampler::Columns() {
  static const std::vector<std::string> cols = {
      "t_ns",          "free_pages",       "faults",          "evicted_pages",
      "ops",           "ipi_queue_depth",  "dirty_ratio",     "fault_rate_per_s",
      "evict_rate_per_s", "ops_rate_per_s", "nic_read_util",  "nic_write_util",
  };
  return cols;
}

std::string MetricsSampler::ToCsv() const {
  std::string out;
  const auto& cols = Columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (i > 0) out += ',';
    out += cols[i];
  }
  out += '\n';
  char buf[384];
  for (const Sample& s : samples_) {
    std::snprintf(buf, sizeof(buf),
                  "%lld,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  ",%.6f,%.3f,%.3f,%.3f,%.6f,%.6f\n",
                  static_cast<long long>(s.t), s.free_pages, s.faults, s.evicted_pages, s.ops,
                  s.ipi_queue_depth, s.dirty_ratio, s.fault_rate_per_s, s.evict_rate_per_s,
                  s.ops_rate_per_s, s.nic_read_util, s.nic_write_util);
    out += buf;
  }
  return out;
}

}  // namespace magesim
