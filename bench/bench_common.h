// Shared helpers for the figure/table harnesses.
//
// Every harness prints the paper-figure series it regenerates. Scale knobs:
// MAGESIM_SCALE=0.25..4 multiplies working-set/op counts (default 1), so the
// full suite finishes in minutes on one host core while remaining faithful in
// shape. Determinism: all randomness is seeded; same scale => same output.
//
// Debugging: set MAGESIM_CHECK_INTERVAL_US=<us> to run every simulation in a
// harness under the invariant checker (src/check/) at that period, plus a
// final check when each run drains — no code changes needed. Violations show
// up in RunResult::invariant_violations; see docs/INTERNALS.md. Every other
// MAGESIM_* machine knob (src/core/knobs.h) works the same way.
#ifndef MAGESIM_BENCH_BENCH_COMMON_H_
#define MAGESIM_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/farmem.h"
#include "src/core/ideal_model.h"
#include "src/core/report.h"
#include "src/paging/kernels.h"
#include "src/sim/parse.h"

namespace magesim {

// Runs `parse` on a harness environment knob; a bad value is a named error
// and exit status 2, never a silent default.
template <typename F>
auto ParseBenchEnvOrExit(F parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

inline double BenchScale() {
  const char* s = std::getenv("MAGESIM_SCALE");
  if (s == nullptr) return 1.0;
  return ParseBenchEnvOrExit([s] { return ParsePositiveNumber("MAGESIM_SCALE", s); });
}

inline uint64_t Scaled(uint64_t base) {
  return static_cast<uint64_t>(static_cast<double>(base) * BenchScale());
}

// Warmup/measure repetition counts for the perf harnesses (bench/perf_*).
// MAGESIM_BENCH_REPS overrides the harness defaults so CI can run short
// smokes while local runs stay statistically meaningful:
//   MAGESIM_BENCH_REPS=M     -> warmup = max(1, M/4), measure = M
//   MAGESIM_BENCH_REPS=W:M   -> warmup = W, measure = M
// The chosen counts (and whether they came from the env) are recorded in
// every BENCH_*.json so a baseline and a smoke run are never silently
// compared at different statistical weight.
struct BenchReps {
  int warmup = 1;
  int measure = 3;
  bool from_env = false;
};

inline BenchReps BenchRepsFromEnv(int default_warmup, int default_measure) {
  const char* s = std::getenv("MAGESIM_BENCH_REPS");
  if (s == nullptr || *s == '\0') return {default_warmup, default_measure, false};
  return ParseBenchEnvOrExit([text = std::string(s)] {
    const char* name = "MAGESIM_BENCH_REPS";
    size_t colon = text.find(':');
    int m = static_cast<int>(
        ParseWholeNumber(name, colon == std::string::npos ? text : text.substr(colon + 1), 1,
                         INT_MAX));
    int w = colon == std::string::npos
                ? std::max(1, m / 4)
                : static_cast<int>(ParseWholeNumber(name, text.substr(0, colon), 0, INT_MAX));
    return BenchReps{w, m, true};
  });
}

// Offloading sweep used by most application figures (percent far memory).
inline std::vector<int> OffloadSweep() { return {0, 10, 20, 30, 40, 50, 60, 70, 80, 90}; }

// The process's start, for the figure tables' `harness_ns`.
inline const auto kHarnessStart = std::chrono::steady_clock::now();

// Prints a figure harness's table and, with MAGESIM_BENCH_OUT_DIR set,
// records it in <dir>/BENCH_<program>.json. Its "sim" group holds each
// printed cell, verbatim, under "t<table>/<row>:<first cell>/<column header>"
// (tables count from 1 and rows from 0, in print order); its "wall" group
// holds `harness_ns`, the process's wall time up to its latest table. The
// file is rewritten whole after each table, so it is complete whenever the
// process stops. tools/perf_diff.py matches the sim group exactly against
// bench/baselines/figures/, so the figure's printed numbers are gated byte
// for byte. Tables printed with Table::Print are not recorded.
inline void PrintFigureTable(const Table& t) {
  static BenchFile file;
  static int tables = 0;
  t.Print();
  const char* dir = std::getenv("MAGESIM_BENCH_OUT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  file.name = program_invocation_short_name;
  file.scale = BenchScale();
  const std::string table = "t" + std::to_string(++tables) + "/";
  const auto& rows = t.rows();
  for (size_t r = 0; r < rows.size(); ++r) {
    const std::string row =
        table + std::to_string(r) + ":" + (rows[r].empty() ? "" : rows[r][0]) + "/";
    for (size_t c = 0; c < t.headers().size(); ++c) {
      file.sim.emplace_back(row + t.headers()[c], BenchFile::Str(rows[r][c]));
    }
  }
  const auto wall = std::chrono::steady_clock::now() - kHarnessStart;
  file.wall = {{"harness_ns", BenchFile::U64(static_cast<uint64_t>(
                                  std::chrono::nanoseconds(wall).count()))}};
  file.Write();
}

}  // namespace magesim

#endif  // MAGESIM_BENCH_BENCH_COMMON_H_
