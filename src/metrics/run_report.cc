#include "src/metrics/run_report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace magesim {

namespace {

// Fixed conversion so output is deterministic and locale-independent.
// %.17g round-trips every double; integral values print without a spurious
// fraction ("3" not "3.0000000000000000").
std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key, no comma
  }
  if (!comma_.empty()) {
    if (comma_.back()) out_ += ',';
    comma_.back() = true;
  }
}

void JsonWriter::AppendEscaped(std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  comma_.push_back(false);
}

void JsonWriter::EndObject() {
  comma_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  comma_.push_back(false);
}

void JsonWriter::EndArray() {
  comma_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(std::string_view k) {
  MaybeComma();
  out_ += '"';
  AppendEscaped(k);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view v) {
  MaybeComma();
  out_ += '"';
  AppendEscaped(v);
  out_ += '"';
}

void JsonWriter::Int(int64_t v) {
  MaybeComma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
}

void JsonWriter::UInt(uint64_t v) {
  MaybeComma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out_ += buf;
}

void JsonWriter::Double(double v) {
  MaybeComma();
  out_ += FormatDouble(v);
}

void JsonWriter::Bool(bool v) {
  MaybeComma();
  out_ += v ? "true" : "false";
}

void AppendHistogramJson(JsonWriter& w, const Histogram& h) {
  w.BeginObject();
  w.KV("count", h.count());
  w.KV("min", h.min());
  w.KV("max", h.max());
  w.KV("mean", h.mean());
  w.KV("sum", h.sum());
  w.KV("p50", h.Percentile(50));
  w.KV("p90", h.Percentile(90));
  w.KV("p99", h.Percentile(99));
  w.KV("p999", h.Percentile(99.9));
  w.EndObject();
}

void AppendRegistryJson(JsonWriter& w, const MetricsRegistry& reg) {
  auto entries = reg.SortedEntries();

  w.Key("counters");
  w.BeginObject();
  for (const auto& e : entries) {
    if (e.kind != MetricsRegistry::Kind::kCounter) continue;
    w.KV(*e.name, reg.counter_at(e.index));
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& e : entries) {
    if (e.kind != MetricsRegistry::Kind::kGauge) continue;
    w.KV(*e.name, reg.gauge_at(e.index));
  }
  w.EndObject();

  w.Key("histograms");
  w.BeginObject();
  for (const auto& e : entries) {
    if (e.kind != MetricsRegistry::Kind::kHistogram) continue;
    w.Key(*e.name);
    AppendHistogramJson(w, reg.histogram_at(e.index));
  }
  w.EndObject();
}

void AppendBreakdownJson(JsonWriter& w, const Breakdown& b) {
  w.BeginObject();
  for (const auto& [cat, e] : b.entries()) {
    w.Key(cat);
    w.BeginObject();
    w.KV("total_ns", e.total_ns);
    w.KV("count", e.count);
    w.EndObject();
  }
  w.EndObject();
}

void AppendProfilerJson(JsonWriter& w, const SimProfiler& prof, SimTime end_time_ns) {
  // Tracked cores: those with any attributed time. Idle is derived so the
  // per-phase totals sum to tracked_cores * end_time exactly.
  std::vector<int> tracked;
  for (int c = 0; c < prof.num_cores(); ++c) {
    if (prof.core_attributed(c) > 0) tracked.push_back(c);
  }

  SimTime idle_total = 0;
  for (int c : tracked) {
    SimTime idle = end_time_ns - prof.core_attributed(c);
    idle_total += idle > 0 ? idle : 0;
  }

  w.BeginObject();
  w.KV("end_time_ns", end_time_ns);
  w.KV("tracked_cores", static_cast<int64_t>(tracked.size()));
  w.KV("total_core_time_ns", static_cast<int64_t>(tracked.size()) * end_time_ns);
  w.KV("attributed_ns", prof.total_attributed());

  w.Key("phase_totals_ns");
  w.BeginObject();
  for (int p = 0; p < kNumSimPhases; ++p) {
    w.KV(SimPhaseName(static_cast<SimPhase>(p)), prof.phase_total(static_cast<SimPhase>(p)));
  }
  w.KV("idle", idle_total);
  w.EndObject();

  w.Key("per_core");
  w.BeginArray();
  for (int c : tracked) {
    w.BeginObject();
    w.KV("core", static_cast<int64_t>(c));
    for (int p = 0; p < kNumSimPhases; ++p) {
      w.KV(SimPhaseName(static_cast<SimPhase>(p)), prof.core_phase(c, static_cast<SimPhase>(p)));
    }
    SimTime idle = end_time_ns - prof.core_attributed(c);
    w.KV("idle", idle > 0 ? idle : 0);
    w.EndObject();
  }
  w.EndArray();

  w.Key("lock_wait");
  w.BeginObject();
  w.KV("total_ns", prof.lock_wait_total());
  w.KV("events", prof.lock_wait_events());
  w.Key("per_lock_ns");
  w.BeginObject();
  for (const auto& [name, ns] : prof.lock_waits()) {
    w.KV(name, ns);
  }
  w.EndObject();
  w.EndObject();

  w.EndObject();
}

void AppendTimeseriesJson(JsonWriter& w, const MetricsSampler& sampler) {
  w.BeginObject();
  w.KV("interval_ns", sampler.interval());
  w.Key("columns");
  w.BeginArray();
  for (const auto& col : MetricsSampler::Columns()) w.String(col);
  w.EndArray();
  w.Key("rows");
  w.BeginArray();
  for (const auto& s : sampler.samples()) {
    w.BeginArray();
    w.Int(s.t);
    w.UInt(s.free_pages);
    w.UInt(s.faults);
    w.UInt(s.evicted_pages);
    w.UInt(s.ops);
    w.UInt(s.ipi_queue_depth);
    w.Double(s.dirty_ratio);
    w.Double(s.fault_rate_per_s);
    w.Double(s.evict_rate_per_s);
    w.Double(s.ops_rate_per_s);
    w.Double(s.nic_read_util);
    w.Double(s.nic_write_util);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();
}

}  // namespace magesim
