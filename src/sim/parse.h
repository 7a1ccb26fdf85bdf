// Strict parsing of numeric text surfaces: environment variables, CLI flags
// and spec fields. Each throws std::invalid_argument naming `name` unless the
// whole of `text` is a number in range (no trailing junk).
#ifndef MAGESIM_SIM_PARSE_H_
#define MAGESIM_SIM_PARSE_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>
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

// Why ParseFiniteNumber refused a text.
inline constexpr const char* kNotDecimal = "is not a decimal number";

// The one strict reader of real numbers: the whole of `text` (its start,
// with ParseFinitePrefix) is a finite decimal number, an optional sign,
// digits with an optional point and an optional exponent, read to the
// value strtod gives it. strtod alone also reads "nan", "inf" and hex
// floats, and skips leading blanks; here each is refused. On refusal the
// call returns false (0) and, given `why`, names the reason: "is not a
// number" (nan), "is not finite" (inf, or past the double range), "is a
// hex float", or kNotDecimal (anything else, trailing text included).
inline size_t ParseFinitePrefix(const std::string& text, double* out,
                                const char** why = nullptr) {
  auto refuse = [why](const char* reason) {
    if (why != nullptr) *why = reason;
    return size_t{0};
  };
  auto at = [&](size_t i) { return i < text.size() ? text[i] : '\0'; };
  auto digit = [&](size_t i) { return at(i) >= '0' && at(i) <= '9'; };
  size_t i = 0;
  if (at(i) == '+' || at(i) == '-') ++i;
  if (!digit(i) && !(at(i) == '.' && digit(i + 1))) {
    std::string word = text.substr(i, 3);
    for (char& c : word) c = static_cast<char>(c | 0x20);
    return refuse(word == "nan" ? "is not a number" : word == "inf" ? "is not finite" : kNotDecimal);
  }
  if (at(i) == '0' && (at(i + 1) == 'x' || at(i + 1) == 'X')) return refuse("is a hex float");
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (!std::isfinite(v)) return refuse("is not finite");
  *out = v;
  return static_cast<size_t>(end - text.c_str());
}

inline bool ParseFiniteNumber(const std::string& text, double* out, const char** why = nullptr) {
  double v = 0;
  size_t used = ParseFinitePrefix(text, &v, why);
  if (used == 0) return false;
  if (used != text.size()) {
    if (why != nullptr) *why = kNotDecimal;
    return false;
  }
  *out = v;
  return true;
}

// A number > 0 (a rate).
inline double ParsePositiveNumber(const std::string& name, const std::string& text) {
  double v = 0;
  if (!ParseFiniteNumber(text, &v) || !(v > 0)) {
    throw std::invalid_argument(name + "='" + text + "': expected a number > 0");
  }
  return v;
}

}  // namespace magesim

#endif  // MAGESIM_SIM_PARSE_H_
