// Golden fingerprints: a scenario's counters as sorted `key=value` lines in a
// file under tests/trace/golden/ (MAGESIM_GOLDEN_DIR), behind a `#` header.
//
// Update mode: with MAGESIM_UPDATE_GOLDEN set to a non-empty value a golden
// test rewrites its file and skips the check. Set but empty
// (`MAGESIM_UPDATE_GOLDEN= ./build/tests/golden_trace_test`), the goldens are
// checked as usual.
#ifndef MAGESIM_TESTS_TRACE_GOLDEN_UPDATE_H_
#define MAGESIM_TESTS_TRACE_GOLDEN_UPDATE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace magesim {

using Fingerprint = std::map<std::string, uint64_t>;

inline bool GoldenUpdateRequested() {
  const char* v = std::getenv("MAGESIM_UPDATE_GOLDEN");
  return v != nullptr && *v != '\0';
}

inline std::string GoldenPath(const std::string& name) {
  return std::string(MAGESIM_GOLDEN_DIR) + "/" + name + ".golden";
}

inline Fingerprint LoadGolden(const std::string& path) {
  Fingerprint g;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    g[line.substr(0, eq)] = std::strtoull(line.c_str() + eq + 1, nullptr, 10);
  }
  return g;
}

inline void SaveGolden(const std::string& path, const std::string& header,
                       const Fingerprint& fp) {
  std::ofstream out(path);
  out << header;
  for (const auto& [k, v] : fp) out << k << "=" << v << "\n";
}

// One line per divergent key, so a behavior change reads as "faults +312,
// evictions +2" at a glance. A key on one side only is a divergence too,
// zero or not: a golden file can only be what its writer writes.
inline std::string DiffGolden(const Fingerprint& golden, const Fingerprint& fp) {
  std::ostringstream diff;
  for (const auto& [k, want] : golden) {
    auto it = fp.find(k);
    if (it == fp.end()) {
      diff << "  " << k << ": golden=" << want << " got=<absent>\n";
    } else if (it->second != want) {
      uint64_t got = it->second;
      diff << "  " << k << ": golden=" << want << " got=" << got << " ("
           << (got >= want ? "+" : "-") << (got >= want ? got - want : want - got) << ")\n";
    }
  }
  for (const auto& [k, v] : fp) {
    if (golden.find(k) == golden.end()) {
      diff << "  " << k << ": golden=<absent> got=" << v << "\n";
    }
  }
  return diff.str();
}

// Compares `fp` with the golden `name`, or rewrites it (`header` first, then
// the lines) and skips under MAGESIM_UPDATE_GOLDEN.
inline void CheckGolden(const std::string& name, const std::string& header,
                        const Fingerprint& fp) {
  const std::string path = GoldenPath(name);
  if (GoldenUpdateRequested()) {
    SaveGolden(path, header, fp);
    GTEST_SKIP() << "golden regenerated at " << path;
  }
  Fingerprint golden = LoadGolden(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << path << " — generate it with MAGESIM_UPDATE_GOLDEN=1";
  std::string diff = DiffGolden(golden, fp);
  EXPECT_TRUE(diff.empty())
      << "fingerprint diverged from golden (" << path << "):\n"
      << diff
      << "If this change is intentional, regenerate with MAGESIM_UPDATE_GOLDEN=1 "
         "and commit the new golden.";
}

}  // namespace magesim

#endif  // MAGESIM_TESTS_TRACE_GOLDEN_UPDATE_H_
