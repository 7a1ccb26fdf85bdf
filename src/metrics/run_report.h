// Run-report exporters: a minimal deterministic JSON writer plus helpers that
// serialize the metrics registry, sim-time profiler, and sampler time series.
//
// The JSON run-report is the single machine-readable artifact of a run
// (schema version recorded in the report itself; bump kRunReportSchemaVersion
// on breaking layout changes). All emitters walk sorted containers and format
// numbers with fixed printf conversions, so two deterministic simulations
// produce byte-identical documents apart from the explicitly wall-clock
// fields (everything under the "wall_clock" object).
#ifndef MAGESIM_METRICS_RUN_REPORT_H_
#define MAGESIM_METRICS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/metrics/profiler.h"
#include "src/metrics/sampler.h"
#include "src/sim/stats.h"

namespace magesim {

// 2: added the `tail` section (span critical-path attribution, present when
// span tracing is enabled) and "spans" to the config section.
inline constexpr int kRunReportSchemaVersion = 2;

// Streaming JSON writer with automatic comma placement. Emits compact,
// deterministic output (sorted inputs are the caller's job).
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(std::string_view k);

  void String(std::string_view v);
  void Int(int64_t v);
  void UInt(uint64_t v);
  void Double(double v);
  void Bool(bool v);

  // Key + value in one call.
  void KV(std::string_view k, std::string_view v) { Key(k); String(v); }
  void KV(std::string_view k, const char* v) { Key(k); String(v); }
  void KV(std::string_view k, int64_t v) { Key(k); Int(v); }
  void KV(std::string_view k, uint64_t v) { Key(k); UInt(v); }
  void KV(std::string_view k, int v) { Key(k); Int(v); }
  void KV(std::string_view k, double v) { Key(k); Double(v); }
  void KV(std::string_view k, bool v) { Key(k); Bool(v); }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void MaybeComma();
  void AppendEscaped(std::string_view v);

  std::string out_;
  // One entry per open object/array: true once the first element is written.
  std::vector<bool> comma_;
  bool pending_key_ = false;
};

// Histogram summary object: {count,min,max,mean,sum,p50,p90,p99,p999}.
void AppendHistogramJson(JsonWriter& w, const Histogram& h);

// Registry contents as three sibling keys on the current object:
// "counters": {name: value}, "gauges": {...}, "histograms": {name: summary}.
void AppendRegistryJson(JsonWriter& w, const MetricsRegistry& reg);

// Breakdown as {category: {total_ns, count}} on the current value position.
void AppendBreakdownJson(JsonWriter& w, const Breakdown& b);

// Profiler section as the current value position. `end_time_ns` is the run's
// final simulated timestamp: per-core idle time is derived as
// end_time - attributed (clamped at 0), so phase sums equal
// tracked_cores * end_time exactly. Cores with zero attributed time are
// untracked (not simulated as cores in this run) and excluded.
void AppendProfilerJson(JsonWriter& w, const SimProfiler& prof, SimTime end_time_ns);

// Sampler series as {interval_ns, columns: [...], rows: [[...], ...]}.
void AppendTimeseriesJson(JsonWriter& w, const MetricsSampler& sampler);

}  // namespace magesim

#endif  // MAGESIM_METRICS_RUN_REPORT_H_
