// Output helpers for benchmark harnesses: fixed-width console tables mirroring
// the paper's figures/tables, plus CSV for replotting, and the BENCH_*.json
// file that tools/perf_diff.py compares.
#ifndef MAGESIM_CORE_REPORT_H_
#define MAGESIM_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace magesim {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 2);
  static std::string Pct(double v, int precision = 1);

  // Renders an aligned console table.
  std::string ToString() const;
  // Renders CSV (headers + rows).
  std::string ToCsv() const;
  void Print() const;

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a figure/table banner: "== Figure 9: ... ==".
void PrintBanner(const std::string& title);

// One BENCH_<name>.json in the magesim-bench-v1 format, the one writer of it
// (bench/perf_common.h's PerfReport, bench/bench_common.h's figure tables).
// "sim" holds deterministic values, which tools/perf_diff.py matches exactly;
// "wall" holds machine-dependent ones, compared within a noise tolerance.
// Values are JSON text and keep their insertion order, so two equal runs
// write equal files apart from "wall".
struct BenchFile {
  using Kv = std::pair<std::string, std::string>;  // key, JSON value text

  std::string name;
  std::string reps;  // the "reps" object as JSON text; no line when empty
  double scale = 1;  // the MAGESIM_SCALE the values were produced at
  std::vector<Kv> sim;
  std::vector<Kv> wall;

  // JSON value text of a count, a number ("%.9g") and a string.
  static std::string U64(uint64_t v);
  static std::string F(double v);
  static std::string Str(const std::string& s);

  std::string ToJson() const;
  // Writes ToJson() to BENCH_<name>.json in MAGESIM_BENCH_OUT_DIR (the
  // current directory when that is unset or empty) and returns the path. A
  // file that cannot be opened is an error: exit status 1.
  std::string Write() const;
};

}  // namespace magesim

#endif  // MAGESIM_CORE_REPORT_H_
