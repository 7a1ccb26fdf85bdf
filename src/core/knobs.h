// The knob table: one row per FarMemoryMachine::Options setting that has a
// magesim_cli flag or a MAGESIM_* environment variable. A row holds both
// spellings, the value's kind and range, a doc line and one setter; it drives
// strict parsing (errors name the spelling the user typed), `magesim_cli
// --help` and the README's knob list. The environment overrides flags, which
// override the harness's Options: FarMemoryMachine's constructor calls
// ApplyEnvKnobs, so any harness can be re-run checked, traced or on a fleet.
#ifndef MAGESIM_CORE_KNOBS_H_
#define MAGESIM_CORE_KNOBS_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/core/farmem.h"

namespace magesim {

// kWhole: digits only, in [lo, hi]. kPositive: a number > 0. kBool: exactly
// 0 or 1 (a bare flag means 1). kText: any text, or one of `choices`.
enum class KnobKind { kWhole, kPositive, kBool, kText };

struct KnobValue {
  int64_t whole = 0;  // kWhole, kBool
  double number = 0;  // kPositive
  std::string text;
};

struct Knob {
  const char* flag;  // `--flag` name, or nullptr
  const char* env;   // environment variable, or nullptr
  KnobKind kind;
  int64_t lo, hi;       // kWhole range
  const char* choices;  // kText: '|'-separated words, or nullptr for any text
  const char* doc;
  // Writes the member and force-enables its subsystem. A std::invalid_argument
  // it throws is rethrown naming the spelling.
  void (*set)(FarMemoryMachine::Options& o, const KnobValue& v);
};

// In the order rows apply: a later row wins within a subsystem.
std::span<const Knob> Knobs();

// Parses `text` for `k` as spelled `name` ("--far", "MAGESIM_FLEET_NODES") and
// applies it. Throws std::invalid_argument naming the spelling.
void ApplyKnob(const Knob& k, const std::string& name, const std::string& text,
               FarMemoryMachine::Options* o);

// Applies every row whose environment variable is set.
void ApplyEnvKnobs(FarMemoryMachine::Options* o);

}  // namespace magesim

#endif  // MAGESIM_CORE_KNOBS_H_
