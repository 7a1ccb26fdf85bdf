#include "src/core/knobs.h"

#include <climits>
#include <cstdlib>
#include <stdexcept>

#include "src/sim/parse.h"

namespace magesim {

namespace {

using O = FarMemoryMachine::Options;
using V = KnobValue;
using enum KnobKind;

constexpr int64_t kMaxUs = INT64_MAX / kMicrosecond;

// Each metrics row enables metrics, and each spans row but the first enables
// spans (MAGESIM_SPANS=0 with MAGESIM_SPANS_OUT set still traces).
const Knob kKnobs[] = {
    {"system", nullptr, kText, 0, 0, "ideal|hermit|dilos|magelnx|magelib|fastswap",
     "paging system", [](O& o, const V& v) { o.kernel = ConfigByName(v.text); }},
    {"far", nullptr, kWhole, 0, 100, nullptr, "percent of the working set in far memory",
     [](O& o, const V& v) { o.local_mem_ratio = 1.0 - static_cast<double>(v.whole) / 100.0; }},
    {"seed", nullptr, kWhole, 0, INT64_MAX, nullptr, "simulation seed",
     [](O& o, const V& v) { o.seed = static_cast<uint64_t>(v.whole); }},
    {"terminal", nullptr, kText, 0, 0, "poison|fail", "when a demand read runs out of retries",
     [](O& o, const V& v) {
       o.resilience.terminal =
           v.text == "fail" ? TerminalPolicy::kFailRun : TerminalPolicy::kPoisonPage;
     }},
    {"fault-plan", "MAGESIM_FAULT_PLAN", kText, 0, 0, nullptr,
     "fault injection: spec or @file, e.g. 'brownout@2ms-6ms:bw=0.2;crash@10ms-12ms'",
     [](O& o, const V& v) { o.fault_plan = v.text; }},
    {"fleet-nodes", "MAGESIM_FLEET_NODES", kWhole, 1, kMaxFleetNodes, nullptr,
     "memory servers in the fleet",
     [](O& o, const V& v) { o.fleet.num_nodes = static_cast<int>(v.whole); }},
    {"fleet-replicas", "MAGESIM_FLEET_REPLICAS", kWhole, 1, INT_MAX, nullptr,
     "replicas per slot, clamped to the fleet size",
     [](O& o, const V& v) { o.fleet.replication = static_cast<int>(v.whole); }},
    {"fleet-rebuild-gbps", "MAGESIM_FLEET_REBUILD_GBPS", kPositive, 0, 0, nullptr,
     "re-replication pacing", [](O& o, const V& v) { o.fleet.rebuild_gbps = v.number; }},
    {nullptr, "MAGESIM_TENANCY", kText, 0, 0, nullptr,
     "';'-separated tenant specs (src/tenancy/tenant_spec.h) replacing the workload",
     [](O& o, const V& v) {
       std::string err;
       o.tenancy = {};
       if (!ParseTenancyList(v.text, &o.tenancy, &err)) throw std::invalid_argument(err);
     }},
    {"check", nullptr, kBool, 0, 1, nullptr, "one invariant check after the run drains",
     [](O& o, const V& v) { o.check_final = v.whole != 0; }},
    {"check-interval", "MAGESIM_CHECK_INTERVAL_US", kWhole, 0, kMaxUs, nullptr,
     "invariant checks every N simulated us (0: none), then one at the end",
     [](O& o, const V& v) {
       if (v.whole > 0) o.check_interval = v.whole * kMicrosecond;
       o.check_final = true;
     }},
    {"analysis", "MAGESIM_ANALYSIS", kBool, 0, 1, nullptr, "lock-discipline analyzer",
     [](O& o, const V& v) { o.analysis.enabled = v.whole != 0; }},
    {"metrics-out", "MAGESIM_METRICS_OUT", kText, 0, 0, nullptr, "JSON run report path",
     [](O& o, const V& v) { o.metrics.report_path = v.text; o.metrics.enabled = true; }},
    {"metrics-csv", "MAGESIM_METRICS_CSV", kText, 0, 0, nullptr, "sampler time series CSV path",
     [](O& o, const V& v) { o.metrics.csv_path = v.text; o.metrics.enabled = true; }},
    {"sample-interval-us", "MAGESIM_METRICS_SAMPLE_INTERVAL_US", kWhole, 0, kMaxUs, nullptr,
     "metrics sampling period in simulated us (0: 1000)",
     [](O& o, const V& v) {
       if (v.whole > 0) o.metrics.sample_interval = v.whole * kMicrosecond;
       o.metrics.enabled = true;
     }},
    {"progress", "MAGESIM_METRICS_PROGRESS", kBool, 0, 1, nullptr, "stderr line per sample",
     [](O& o, const V& v) { o.metrics.progress = v.whole != 0; o.metrics.enabled = true; }},
    {"spans", "MAGESIM_SPANS", kBool, 0, 1, nullptr, "causal span tracing (src/spans)",
     [](O& o, const V& v) { o.spans.enabled = v.whole != 0; }},
    {"spans-out", "MAGESIM_SPANS_OUT", kText, 0, 0, nullptr, "span trees as JSONL",
     [](O& o, const V& v) { o.spans.out_path = v.text; o.spans.enabled = true; }},
    {"spans-top-k", "MAGESIM_SPANS_TOP_K", kWhole, 0, INT_MAX, nullptr,
     "slowest exemplars kept per op kind",
     [](O& o, const V& v) {
       o.spans.top_k = static_cast<int>(v.whole);
       o.spans.enabled = true;
     }},
    {"spans-sample", "MAGESIM_SPANS_SAMPLE", kWhole, 1, INT_MAX, nullptr,
     "trace every Nth root op per kind",
     [](O& o, const V& v) {
       o.spans.sample_every = static_cast<int>(v.whole);
       o.spans.enabled = true;
     }},
};

}  // namespace

std::span<const Knob> Knobs() { return kKnobs; }

void ApplyKnob(const Knob& k, const std::string& name, const std::string& text, O* o) {
  auto bad = [&](const std::string& why) {
    return std::invalid_argument(name + "='" + text + "': " + why);
  };
  V v{.text = text};
  switch (k.kind) {
    case kWhole: v.whole = ParseWholeNumber(name, text, k.lo, k.hi); break;
    case kPositive: v.number = ParsePositiveNumber(name, text); break;
    case kBool:
      if (text != "0" && text != "1") throw bad("expected 0 or 1");
      v.whole = text == "1";
      break;
    case kText:
      if (k.choices != nullptr &&
          ("|" + std::string(k.choices) + "|").find("|" + text + "|") == std::string::npos) {
        throw bad(std::string("expected one of ") + k.choices);
      }
      break;
  }
  try {
    k.set(*o, v);
  } catch (const std::invalid_argument& e) {
    throw bad(e.what());
  }
}

void ApplyEnvKnobs(O* o) {
  for (const Knob& k : kKnobs) {
    const char* text = k.env != nullptr ? std::getenv(k.env) : nullptr;
    if (text != nullptr) ApplyKnob(k, k.env, text, o);
  }
}

}  // namespace magesim
