// The strict number readers of src/sim/parse.h: ParseFiniteNumber takes the
// value strtod gives a decimal number and refuses, by name, what strtod
// would also read (nan, inf, hex floats, leading blanks).
#include "src/sim/parse.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace magesim {
namespace {

TEST(ParseFiniteNumberTest, ReadsDecimalNumbersAsStrtodDoes) {
  for (const char* text : {"0", "1", "-2", "+3", "0.25", ".5", "5.", "1e3", "-1.5E-2", "0.99",
                           "100", "1e-320"}) {
    double v = -1;
    const char* why = nullptr;
    ASSERT_TRUE(ParseFiniteNumber(text, &v, &why)) << text;
    EXPECT_EQ(v, std::strtod(text, nullptr)) << text;
  }
}

TEST(ParseFiniteNumberTest, NamesWhatItRefuses) {
  struct Case {
    const char* text;
    const char* why;
  };
  for (const Case& c : {Case{"nan", "is not a number"}, Case{"-NaN", "is not a number"},
                        Case{"nan(1)", "is not a number"}, Case{"inf", "is not finite"},
                        Case{"-Infinity", "is not finite"}, Case{"1e999", "is not finite"},
                        Case{"0x1p-1", "is a hex float"}, Case{"-0X10", "is a hex float"},
                        Case{"", kNotDecimal}, Case{" 1", kNotDecimal},
                        Case{"1 ", kNotDecimal}, Case{"abc", kNotDecimal},
                        Case{"0.5x", kNotDecimal}, Case{"-", kNotDecimal},
                        Case{".", kNotDecimal}, Case{"e5", kNotDecimal}}) {
    double v = 7;
    const char* why = nullptr;
    EXPECT_FALSE(ParseFiniteNumber(c.text, &v, &why)) << c.text;
    ASSERT_NE(why, nullptr) << c.text;
    EXPECT_STREQ(why, c.why) << c.text;
    EXPECT_EQ(v, 7) << c.text;
  }
}

TEST(ParseFiniteNumberTest, PrefixStopsWhereTheNumberEnds) {
  double v = 0;
  const char* why = nullptr;
  EXPECT_EQ(ParseFinitePrefix("12.5us", &v, &why), 4u);
  EXPECT_EQ(v, 12.5);
  EXPECT_EQ(ParseFinitePrefix("-3e2ms", &v, &why), 4u);
  EXPECT_EQ(v, -300);
  EXPECT_EQ(ParseFinitePrefix("infms", &v, &why), 0u);
  EXPECT_STREQ(why, "is not finite");
}

TEST(ParsePositiveNumberTest, RefusesNonFiniteAndNonPositive) {
  EXPECT_EQ(ParsePositiveNumber("K", "2.5"), 2.5);
  for (const char* text : {"0", "-1", "inf", "nan", "0x10", " 1", "1x"}) {
    EXPECT_THROW(ParsePositiveNumber("K", text), std::invalid_argument) << text;
  }
}

}  // namespace
}  // namespace magesim
