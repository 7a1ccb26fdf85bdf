// Update mode of the golden tests: with MAGESIM_UPDATE_GOLDEN set to a
// non-empty value a golden test rewrites its file and skips the check. Set
// but empty (`MAGESIM_UPDATE_GOLDEN= ./build/tests/golden_trace_test`), the
// goldens are checked as usual.
#ifndef MAGESIM_TESTS_TRACE_GOLDEN_UPDATE_H_
#define MAGESIM_TESTS_TRACE_GOLDEN_UPDATE_H_

#include <cstdlib>

namespace magesim {

inline bool GoldenUpdateRequested() {
  const char* v = std::getenv("MAGESIM_UPDATE_GOLDEN");
  return v != nullptr && *v != '\0';
}

}  // namespace magesim

#endif  // MAGESIM_TESTS_TRACE_GOLDEN_UPDATE_H_
