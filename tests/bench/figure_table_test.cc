#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_common.h"

namespace magesim {
namespace {

std::string ReadAndRemove(const std::string& path) {
  std::stringstream ss;
  ss << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

// With MAGESIM_BENCH_OUT_DIR set, every table printed with PrintFigureTable
// lands in the program's BENCH file, each cell verbatim under
// table/row/column, and the file is rewritten whole after each table. A
// plain Table::Print records nothing.
TEST(FigureTableTest, RecordsEveryCellOfEveryFigureTable) {
  const std::string dir = testing::TempDir();
  const std::string path = dir + "/BENCH_" + program_invocation_short_name + ".json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("MAGESIM_BENCH_OUT_DIR", dir.c_str(), 1), 0);
  Table plain({"not", "recorded"});
  plain.AddRow({"a", "b"});
  plain.Print();
  EXPECT_FALSE(std::ifstream(path).good());

  Table a({"sys", "rate"});
  a.AddRow({"magelib", "1.50"});
  a.AddRow({"magelib", "2.5%"});
  PrintFigureTable(a);
  const std::string first = ReadAndRemove(path);
  EXPECT_NE(first.find("\"t1/1:magelib/rate\": \"2.5%\""), std::string::npos) << first;

  Table b({"say \"hi\"", "x"});
  b.AddRow({"back\\slash", "7"});
  PrintFigureTable(b);
  unsetenv("MAGESIM_BENCH_OUT_DIR");

  const std::string json = ReadAndRemove(path);
  EXPECT_NE(json.find("\"schema\": \"magesim-bench-v1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"t1/0:magelib/sys\": \"magelib\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"t1/0:magelib/rate\": \"1.50\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"t1/1:magelib/rate\": \"2.5%\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"t2/0:back\\\\slash/say \\\"hi\\\"\": \"back\\\\slash\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"harness_ns\": "), std::string::npos) << json;
  EXPECT_EQ(json.find("not"), std::string::npos) << json;
}

}  // namespace
}  // namespace magesim
