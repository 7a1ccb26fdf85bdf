// Shared machinery for the tracked perf harnesses (bench/perf_*).
//
// Each harness runs `warmup + measure` repetitions of a deterministic
// scenario and emits BENCH_<name>.json. The JSON has two metric groups:
//
//   "sim"  -- deterministic per-rep values (event counts, faults, simulated
//             seconds). Same seed + same binary => identical values; any
//             drift is a determinism regression and tools/perf_diff.py
//             fails on it exactly.
//   "wall" -- wall-clock-derived values (events/sec, ns/event). These are
//             machine- and load-dependent; perf_diff.py compares them
//             against the committed baseline within a noise tolerance.
//
// Repetition counts come from BenchRepsFromEnv (MAGESIM_BENCH_REPS); the
// resolved counts are recorded in the JSON. Output lands in the current
// directory unless MAGESIM_BENCH_OUT_DIR is set.
#ifndef MAGESIM_BENCH_PERF_COMMON_H_
#define MAGESIM_BENCH_PERF_COMMON_H_

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

namespace magesim {

inline uint64_t WallNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Fastest of the measured reps (0 when there are none): the least-noisy
// estimator of a rep's wall time.
inline uint64_t BestRepNs(const std::vector<uint64_t>& rep_ns) {
  uint64_t best = 0;
  for (uint64_t ns : rep_ns) {
    if (best == 0 || ns < best) best = ns;
  }
  return best;
}

// Accumulates one harness's results and renders BENCH_<name>.json with a
// stable key order (insertion order), so same-seed runs produce
// byte-identical files modulo the "wall" group.
class PerfReport {
 public:
  PerfReport(std::string name, BenchReps reps) : name_(std::move(name)), reps_(reps) {}

  // Deterministic per-rep metrics ("sim" group).
  void Sim(const std::string& key, uint64_t v) { sim_.emplace_back(key, FmtU64(v)); }
  void SimF(const std::string& key, double v) { sim_.emplace_back(key, FmtF(v)); }
  // Machine-dependent metrics ("wall" group).
  void Wall(const std::string& key, uint64_t v) { wall_.emplace_back(key, FmtU64(v)); }
  void WallF(const std::string& key, double v) { wall_.emplace_back(key, FmtF(v)); }

  // Wall ns per `unit` over the best rep, as "ns_per_<unit>" (skipped when
  // there is no rep or no unit).
  void WallNsPer(const std::vector<uint64_t>& rep_ns, uint64_t units_per_rep,
                 const std::string& unit) {
    const uint64_t best = BestRepNs(rep_ns);
    if (best > 0 && units_per_rep > 0) {
      WallF("ns_per_" + unit, static_cast<double>(best) / static_cast<double>(units_per_rep));
    }
  }

  // Convenience: record best/mean wall time over the measure reps plus a
  // throughput pair derived from the best rep (the least-noisy estimator).
  void WallTimes(const std::vector<uint64_t>& rep_ns, uint64_t units_per_rep,
                 const std::string& unit) {
    const uint64_t best = BestRepNs(rep_ns);
    uint64_t sum = 0;
    for (uint64_t ns : rep_ns) sum += ns;
    Wall("best_rep_ns", best);
    Wall("mean_rep_ns", rep_ns.empty() ? 0 : sum / rep_ns.size());
    if (best > 0 && units_per_rep > 0) {
      std::string singular = unit.size() > 1 && unit.back() == 's' ? unit.substr(0, unit.size() - 1) : unit;
      WallF(unit + "_per_sec", static_cast<double>(units_per_rep) * 1e9 / static_cast<double>(best));
      WallF("ns_per_" + singular, static_cast<double>(best) / static_cast<double>(units_per_rep));
    }
  }

  std::string ToJson() const {
    std::string out;
    out += "{\n";
    out += "  \"schema\": \"magesim-bench-v1\",\n";
    out += "  \"name\": \"" + name_ + "\",\n";
    out += "  \"reps\": {\"warmup\": " + std::to_string(reps_.warmup) +
           ", \"measure\": " + std::to_string(reps_.measure) + ", \"source\": \"" +
           (reps_.from_env ? "env" : "default") + "\"},\n";
    out += "  \"scale\": " + FmtF(BenchScale()) + ",\n";
    out += Group("sim", sim_) + ",\n";
    out += Group("wall", wall_) + "\n";
    out += "}\n";
    return out;
  }

  // Writes BENCH_<name>.json and prints the path + headline to stdout.
  // Returns the path written.
  std::string Write() const {
    const char* dir = std::getenv("MAGESIM_BENCH_OUT_DIR");
    std::string path = (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string()) +
                       "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perf: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    std::string json = ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return path;
  }

 private:
  using Kv = std::pair<std::string, std::string>;

  static std::string FmtU64(uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
  }
  static std::string FmtF(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }
  static std::string Group(const std::string& name, const std::vector<Kv>& kvs) {
    std::string out = "  \"" + name + "\": {";
    for (size_t i = 0; i < kvs.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n");
      out += "    \"" + kvs[i].first + "\": " + kvs[i].second;
    }
    out += "\n  }";
    return out;
  }

  std::string name_;
  BenchReps reps_;
  std::vector<Kv> sim_;
  std::vector<Kv> wall_;
};

}  // namespace magesim

#endif  // MAGESIM_BENCH_PERF_COMMON_H_
