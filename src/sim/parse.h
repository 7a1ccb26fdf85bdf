// Strict parsing of numeric text surfaces: environment variables, CLI flags
// and spec fields. Each throws std::invalid_argument naming `name` unless the
// whole of `text` is a number in range (no trailing junk).
#ifndef MAGESIM_SIM_PARSE_H_
#define MAGESIM_SIM_PARSE_H_

#include <cstdint>
#include <stdexcept>
#include <string>

namespace magesim {

// A whole number in [lo, hi], written as digits only (no sign).
inline int64_t ParseWholeNumber(const std::string& name, const std::string& text, int64_t lo,
                                int64_t hi) {
  size_t used = 0;
  long long v = 0;
  try {
    if (!text.empty() && text[0] >= '0' && text[0] <= '9') v = std::stoll(text, &used);
  } catch (const std::out_of_range&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || v < lo || v > hi) {
    throw std::invalid_argument(name + "='" + text + "': expected a whole number in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

// A number > 0 (a rate).
inline double ParsePositiveNumber(const std::string& name, const std::string& text) {
  size_t used = 0;
  double v = 0;
  try {
    v = std::stod(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || !(v > 0)) {
    throw std::invalid_argument(name + "='" + text + "': expected a number > 0");
  }
  return v;
}

}  // namespace magesim

#endif  // MAGESIM_SIM_PARSE_H_
