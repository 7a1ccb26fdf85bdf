// Unified metrics registry: named counters, gauges, and histograms with
// cheap interned handles.
//
// Names are interned once (at registration, off the hot path); after that all
// updates go through index-based handles — no string hashing or map lookups
// on hot paths. The registry is the single source the exporters read: the
// JSON run-report and the CSV time series (src/metrics/run_report.h) walk it
// in sorted-name order, so two deterministic simulations produce
// byte-identical exports.
//
//   MetricsRegistry reg;
//   auto faults = reg.Counter("kernel.faults");
//   faults.Add();                       // hot path: one bounds-free index
//   auto lat = reg.Hist("fault_latency_ns");
//   lat.Record(elapsed);
//   reg.counter_value("kernel.faults"); // string lookup, reporting only
#ifndef MAGESIM_METRICS_METRICS_H_
#define MAGESIM_METRICS_METRICS_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/stats.h"

namespace magesim {

class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  // --- Handles: trivially copyable, safe to keep for the registry's life ---
  class CounterHandle {
   public:
    CounterHandle() = default;
    void Add(uint64_t delta = 1) { *cell_ += delta; }
    void Set(uint64_t v) { *cell_ = v; }
    uint64_t value() const { return *cell_; }

   private:
    friend class MetricsRegistry;
    explicit CounterHandle(uint64_t* cell) : cell_(cell) {}
    uint64_t* cell_ = nullptr;
  };

  class GaugeHandle {
   public:
    GaugeHandle() = default;
    void Set(double v) { *cell_ = v; }
    void Add(double delta) { *cell_ += delta; }
    double value() const { return *cell_; }

   private:
    friend class MetricsRegistry;
    explicit GaugeHandle(double* cell) : cell_(cell) {}
    double* cell_ = nullptr;
  };

  class HistHandle {
   public:
    HistHandle() = default;
    void Record(int64_t v) { h_->Record(v); }
    Histogram& histogram() { return *h_; }
    const Histogram& histogram() const { return *h_; }

   private:
    friend class MetricsRegistry;
    explicit HistHandle(Histogram* h) : h_(h) {}
    Histogram* h_ = nullptr;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registration interns the name; calling again with the same name returns a
  // handle to the same cell (the kind must match).
  CounterHandle Counter(std::string_view name);
  GaugeHandle Gauge(std::string_view name);
  HistHandle Hist(std::string_view name);

  // --- Reporting-side string lookups (never on hot paths) ---
  bool Has(std::string_view name) const { return by_name_.count(std::string(name)) > 0; }
  // 0 / nullptr when absent.
  uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  // Deterministic (sorted-name) iteration for exporters.
  struct Entry {
    const std::string* name;
    Kind kind;
    size_t index;  // into the per-kind storage
  };
  std::vector<Entry> SortedEntries() const;

  size_t size() const { return by_name_.size(); }
  uint64_t counter_at(size_t index) const { return counters_[index]; }
  double gauge_at(size_t index) const { return gauges_[index]; }
  const Histogram& histogram_at(size_t index) const { return *hists_[index]; }

 private:
  struct Meta {
    Kind kind;
    size_t index;
  };

  // std::map keeps exports sorted and node pointers stable.
  std::map<std::string, Meta, std::less<>> by_name_;
  // Deques: handles hold element pointers, which must survive later
  // registrations (std::vector reallocation would dangle them).
  std::deque<uint64_t> counters_;
  std::deque<double> gauges_;
  std::vector<std::unique_ptr<Histogram>> hists_;
};

}  // namespace magesim

#endif  // MAGESIM_METRICS_METRICS_H_
