// Shared machinery for the tracked perf harnesses (bench/perf_*).
//
// Each harness runs `warmup + measure` repetitions of a deterministic
// scenario and emits BENCH_<name>.json (BenchFile, src/core/report.h). The
// JSON has two metric groups:
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
  PerfReport(std::string name, BenchReps reps) {
    file_.name = std::move(name);
    file_.scale = BenchScale();
    file_.reps = "{\"warmup\": " + std::to_string(reps.warmup) +
                 ", \"measure\": " + std::to_string(reps.measure) + ", \"source\": \"" +
                 (reps.from_env ? "env" : "default") + "\"}";
  }

  // Deterministic per-rep metrics ("sim" group).
  void Sim(const std::string& key, uint64_t v) { file_.sim.emplace_back(key, BenchFile::U64(v)); }
  void SimF(const std::string& key, double v) { file_.sim.emplace_back(key, BenchFile::F(v)); }
  // Machine-dependent metrics ("wall" group).
  void Wall(const std::string& key, uint64_t v) {
    file_.wall.emplace_back(key, BenchFile::U64(v));
  }
  void WallF(const std::string& key, double v) { file_.wall.emplace_back(key, BenchFile::F(v)); }

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

  // Writes BENCH_<name>.json (BenchFile::Write) and prints the path to
  // stdout. Returns the path written.
  std::string Write() const {
    const std::string path = file_.Write();
    std::printf("wrote %s\n", path.c_str());
    return path;
  }

 private:
  BenchFile file_;
};

}  // namespace magesim

#endif  // MAGESIM_BENCH_PERF_COMMON_H_
