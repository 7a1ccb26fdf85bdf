// Tests for the JSON writer and the end-to-end run report: same-seed
// determinism (modulo wall-clock fields) and the profiler's exact core-time
// attribution guarantee.
#include "src/metrics/run_report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <regex>
#include <string>

#include "src/core/farmem.h"
#include "src/workloads/seqscan.h"

namespace magesim {
namespace {

TEST(JsonWriterTest, CommasAndNestingAreAutomatic) {
  JsonWriter w;
  w.BeginObject();
  w.KV("a", int64_t{1});
  w.Key("b");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.BeginObject();
  w.KV("c", "x");
  w.EndObject();
  w.EndArray();
  w.KV("d", true);
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[1,2,{"c":"x"}],"d":true})");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.KV("k", "quote\" slash\\ nl\n tab\t cr\r bel\x01");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"k\":\"quote\\\" slash\\\\ nl\\n tab\\t cr\\r bel\\u0001\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeZero) {
  JsonWriter w;
  w.BeginArray();
  w.Double(0.5);
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::nan(""));
  w.EndArray();
  EXPECT_EQ(w.str(), "[0.5,0,0]");
}

TEST(RunReportTest, HistogramJsonSummarizes) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 10);
  JsonWriter w;
  AppendHistogramJson(w, h);
  const std::string& s = w.str();
  EXPECT_NE(s.find("\"count\":100"), std::string::npos);
  EXPECT_NE(s.find("\"min\":10"), std::string::npos);
  EXPECT_NE(s.find("\"max\":1000"), std::string::npos);
  EXPECT_NE(s.find("\"p50\":"), std::string::npos);
  EXPECT_NE(s.find("\"p999\":"), std::string::npos);
}

// Minimal structural JSON check: balanced braces/brackets outside strings.
bool BalancedJson(const std::string& s) {
  int depth = 0;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (esc) {
      esc = false;
    } else if (in_str) {
      if (c == '\\') esc = true;
      if (c == '"') in_str = false;
    } else if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

struct ReportRun {
  std::string json;
  SimTime end_time = 0;
  SimTime total_core_time = 0;   // tracked_cores * end_time
  SimTime attributed_plus_idle = 0;
};

ReportRun RunReportedMachine(uint64_t seed) {
  SeqScanWorkload wl({.region_pages = 2048, .threads = 4, .passes = 3});
  FarMemoryMachine::Options opt;
  opt.kernel = MageLibConfig();
  opt.local_mem_ratio = 0.5;
  opt.seed = seed;
  opt.time_limit = 20 * kMillisecond;
  opt.metrics.enabled = true;
  opt.metrics.sample_interval = 500 * kMicrosecond;
  FarMemoryMachine m(opt, wl);
  m.Run();

  ReportRun out;
  out.json = m.run_report_json();
  // The profiler section is normalized against the run's end_time_ns (the
  // workload-completion time, which can precede the engine's final drain
  // time); read it back from the report so the check uses the same basis.
  std::smatch match;
  if (std::regex_search(out.json, match, std::regex("\"end_time_ns\":(\\d+)"))) {
    out.end_time = static_cast<SimTime>(std::atoll(match[1].str().c_str()));
  }
  const SimProfiler& prof = *m.profiler();
  for (int c = 0; c < prof.num_cores(); ++c) {
    SimTime attributed = prof.core_attributed(c);
    if (attributed <= 0) continue;  // untracked core
    out.total_core_time += out.end_time;
    SimTime idle = out.end_time - attributed;
    if (idle < 0) idle = 0;
    out.attributed_plus_idle += attributed + idle;
  }
  return out;
}

std::string StripWallClock(const std::string& json) {
  static const std::regex kWallClock("\"wall_clock\":\\{[^}]*\\},?");
  return std::regex_replace(json, kWallClock, "");
}

TEST(RunReportTest, SameSeedRunsAreByteIdenticalModuloWallClock) {
  ReportRun a = RunReportedMachine(7);
  ReportRun b = RunReportedMachine(7);
  ASSERT_FALSE(a.json.empty());
  EXPECT_TRUE(BalancedJson(a.json));
  // The two runs may or may not share a wall-clock second; after stripping
  // the wall_clock object the documents must be byte-identical.
  EXPECT_EQ(StripWallClock(a.json), StripWallClock(b.json));
}

TEST(RunReportTest, ReportHasSchemaVersionAndSections) {
  ReportRun r = RunReportedMachine(3);
  EXPECT_NE(r.json.find("\"schema_version\":2"), std::string::npos);
  for (const char* key : {"\"wall_clock\":", "\"config\":", "\"run\":", "\"counters\":",
                          "\"gauges\":", "\"histograms\":", "\"breakdowns\":",
                          "\"profiler\":", "\"timeseries\":", "\"lock_wait\":"}) {
    EXPECT_NE(r.json.find(key), std::string::npos) << key;
  }
}

TEST(RunReportTest, PhaseAttributionSumsToTotalCoreTime) {
  ReportRun r = RunReportedMachine(5);
  ASSERT_GT(r.total_core_time, 0);
  // Idle is derived as end_time - attributed, so the sum is exact — well
  // within the 0.1% acceptance bound.
  double rel = std::abs(static_cast<double>(r.attributed_plus_idle - r.total_core_time)) /
               static_cast<double>(r.total_core_time);
  EXPECT_LE(rel, 0.001);
  EXPECT_EQ(r.attributed_plus_idle, r.total_core_time);
  // The report itself carries the same total.
  EXPECT_NE(r.json.find("\"total_core_time_ns\":" + std::to_string(r.total_core_time)),
            std::string::npos);
}

}  // namespace
}  // namespace magesim
