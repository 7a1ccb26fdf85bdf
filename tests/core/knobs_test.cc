// The knob table (src/core/knobs.h), walked row by row: every spelling of
// every row rejects junk, trailing text and out-of-range values with an error
// naming that spelling, and accepts in-range values. A new row is covered
// without editing this file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/knobs.h"

namespace magesim {
namespace {

std::vector<std::string> Spellings(const Knob& k) {
  std::vector<std::string> s;
  if (k.flag != nullptr) s.push_back(std::string("--") + k.flag);
  if (k.env != nullptr) s.push_back(k.env);
  return s;
}

// Applies `text` through one spelling: a flag through ApplyKnob, a variable
// through the environment, the way FarMemoryMachine's constructor reads it.
void Apply(const Knob& k, const std::string& spelling, const std::string& text) {
  FarMemoryMachine::Options o;
  if (spelling.rfind("--", 0) == 0) {
    ApplyKnob(k, spelling, text, &o);
    return;
  }
  setenv(spelling.c_str(), text.c_str(), 1);
  try {
    ApplyEnvKnobs(&o);
  } catch (...) {
    unsetenv(spelling.c_str());
    throw;
  }
  unsetenv(spelling.c_str());
}

std::vector<std::string> BadValues(const Knob& k) {
  switch (k.kind) {
    case KnobKind::kWhole:
      return {"abc", "1x", "", std::to_string(k.lo - 1),
              std::to_string(static_cast<uint64_t>(k.hi) + 1)};
    case KnobKind::kPositive:
      return {"abc", "1x", "", "0", "-1"};
    case KnobKind::kBool:
      return {"abc", "1x", "", "2", "-1"};
    case KnobKind::kText:
      break;
  }
  return k.choices != nullptr ? std::vector<std::string>{"abc", "1x", ""}
                              : std::vector<std::string>{};
}

std::vector<std::string> GoodValues(const Knob& k) {
  switch (k.kind) {
    case KnobKind::kWhole:
      return {std::to_string(k.lo), std::to_string(k.hi)};
    case KnobKind::kPositive:
      return {"0.5", "10"};
    case KnobKind::kBool:
      return {"0", "1"};
    case KnobKind::kText:
      break;
  }
  if (k.choices == nullptr) {
    // Free text: paths, a fault plan (parsed when the machine is built) and
    // a tenant spec list all accept a well-formed tenant spec.
    return {"t:1:0.5:normal=gups"};
  }
  std::vector<std::string> words;
  std::string c = k.choices;
  for (size_t pos = 0; pos <= c.size();) {
    size_t bar = c.find('|', pos);
    if (bar == std::string::npos) bar = c.size();
    words.push_back(c.substr(pos, bar - pos));
    pos = bar + 1;
  }
  return words;
}

TEST(KnobTableTest, RowsAreNamedDocumentedAndUnique) {
  std::set<std::string> seen;
  for (const Knob& k : Knobs()) {
    ASSERT_FALSE(Spellings(k).empty()) << k.doc;
    for (const std::string& s : Spellings(k)) EXPECT_TRUE(seen.insert(s).second) << s;
    EXPECT_NE(std::string(k.doc), "") << Spellings(k)[0];
    EXPECT_NE(k.set, nullptr) << Spellings(k)[0];
    if (k.env != nullptr) {
      EXPECT_EQ(std::string(k.env).rfind("MAGESIM_", 0), 0u) << k.env;
    }
    EXPECT_LE(k.lo, k.hi) << Spellings(k)[0];
  }
}

TEST(KnobTableTest, EverySpellingRejectsBadValuesByName) {
  for (const Knob& k : Knobs()) {
    for (const std::string& spelling : Spellings(k)) {
      for (const std::string& bad : BadValues(k)) {
        try {
          Apply(k, spelling, bad);
          ADD_FAILURE() << spelling << "='" << bad << "' was accepted";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(spelling + "='"), std::string::npos)
              << e.what();
        }
      }
      // Free text has no junk to reject; if a row refuses it, the error
      // still names the spelling.
      try {
        Apply(k, spelling, "abc");
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(spelling + "='"), std::string::npos) << e.what();
      }
    }
  }
}

TEST(KnobTableTest, EverySpellingAcceptsInRangeValues) {
  for (const Knob& k : Knobs()) {
    for (const std::string& spelling : Spellings(k)) {
      for (const std::string& good : GoodValues(k)) {
        EXPECT_NO_THROW(Apply(k, spelling, good)) << spelling << "='" << good << "'";
      }
    }
  }
}

TEST(KnobTableTest, LaterRowsWinWithinASubsystem) {
  FarMemoryMachine::Options o;
  setenv("MAGESIM_SPANS", "0", 1);
  setenv("MAGESIM_SPANS_OUT", "spans.jsonl", 1);
  ApplyEnvKnobs(&o);
  unsetenv("MAGESIM_SPANS");
  unsetenv("MAGESIM_SPANS_OUT");
  EXPECT_TRUE(o.spans.enabled);
  EXPECT_EQ(o.spans.out_path, "spans.jsonl");
}

TEST(KnobTableTest, EnvironmentOverridesTheCallersOptions) {
  FarMemoryMachine::Options o;
  o.fleet.num_nodes = 2;
  o.analysis.enabled = true;
  setenv("MAGESIM_FLEET_NODES", "4", 1);
  setenv("MAGESIM_ANALYSIS", "0", 1);
  ApplyEnvKnobs(&o);
  unsetenv("MAGESIM_FLEET_NODES");
  unsetenv("MAGESIM_ANALYSIS");
  EXPECT_EQ(o.fleet.num_nodes, 4);
  EXPECT_FALSE(o.analysis.enabled);
}

}  // namespace
}  // namespace magesim
