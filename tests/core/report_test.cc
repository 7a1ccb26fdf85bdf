#include "src/core/report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/ideal_model.h"
#include "src/hw/machine_params.h"

namespace magesim {
namespace {

TEST(TableTest, AlignsColumnsAndPadsShortRows) {
  Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name"});  // short row padded
  std::string out = t.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  // Separator row present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.AddRow({"1", "2"});
  t.AddRow({"3", "4"});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n3,4\n");
}

TEST(TableTest, CsvQuotesSpecialCells) {
  // RFC 4180: cells containing commas, quotes, or newlines are quoted, with
  // embedded quotes doubled; plain cells stay bare.
  Table t({"name", "note"});
  t.AddRow({"a,b", "plain"});
  t.AddRow({"say \"hi\"", "line1\nline2"});
  t.AddRow({"cr\rhere", "x"});
  EXPECT_EQ(t.ToCsv(),
            "name,note\n"
            "\"a,b\",plain\n"
            "\"say \"\"hi\"\"\",\"line1\nline2\"\n"
            "\"cr\rhere\",x\n");
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.0, 0), "3");
  EXPECT_EQ(Table::Pct(12.345, 1), "12.3%");
}

// The magesim-bench-v1 layout: schema, name, optional reps, scale, then the
// sim and wall groups in insertion order, keys escaped as JSON strings.
TEST(BenchFileTest, RendersGroupsInInsertionOrder) {
  BenchFile f;
  f.name = "demo";
  f.reps = "{\"warmup\": 1, \"measure\": 3, \"source\": \"default\"}";
  f.scale = 0.25;
  f.sim = {{"zeta", BenchFile::U64(18446744073709551615ull)},
           {"alpha", BenchFile::F(1.0 / 3.0)},
           {"t1/0:a\"b/c", BenchFile::Str("x\\y")}};
  f.wall = {{"ns", BenchFile::U64(7)}};
  EXPECT_EQ(f.ToJson(),
            "{\n"
            "  \"schema\": \"magesim-bench-v1\",\n"
            "  \"name\": \"demo\",\n"
            "  \"reps\": {\"warmup\": 1, \"measure\": 3, \"source\": \"default\"},\n"
            "  \"scale\": 0.25,\n"
            "  \"sim\": {\n"
            "    \"zeta\": 18446744073709551615,\n"
            "    \"alpha\": 0.333333333,\n"
            "    \"t1/0:a\\\"b/c\": \"x\\\\y\"\n"
            "  },\n"
            "  \"wall\": {\n"
            "    \"ns\": 7\n"
            "  }\n"
            "}\n");
  BenchFile bare;
  bare.name = "bare";
  EXPECT_EQ(bare.ToJson(),
            "{\n  \"schema\": \"magesim-bench-v1\",\n  \"name\": \"bare\",\n"
            "  \"scale\": 1,\n  \"sim\": {\n  },\n  \"wall\": {\n  }\n}\n");
}

// Write puts BENCH_<name>.json in MAGESIM_BENCH_OUT_DIR and returns its path.
TEST(BenchFileTest, WritesIntoTheOutDir) {
  const std::string dir = testing::TempDir();
  ASSERT_EQ(setenv("MAGESIM_BENCH_OUT_DIR", dir.c_str(), 1), 0);
  BenchFile f;
  f.name = "report_test_write";
  f.sim = {{"k", BenchFile::U64(1)}};
  const std::string path = f.Write();
  unsetenv("MAGESIM_BENCH_OUT_DIR");
  EXPECT_EQ(path, dir + "/BENCH_report_test_write.json");
  std::stringstream ss;
  ss << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(ss.str(), f.ToJson());
}

TEST(IdealModelTest, ClosedFormProperties) {
  // No faults => no degradation.
  EXPECT_DOUBLE_EQ(IdealThroughputFraction({0, 0, 0}, 10.0, UsToNs(3.9)), 1.0);
  // The slowest core bounds throughput.
  std::vector<uint64_t> skewed = {100, 1000000, 100};
  std::vector<uint64_t> flat = {1000000, 1000000, 1000000};
  EXPECT_DOUBLE_EQ(IdealThroughputFraction(skewed, 10.0, UsToNs(3.9)),
                   IdealThroughputFraction(flat, 10.0, UsToNs(3.9)));
  // Drop percent is the complement.
  double f = IdealThroughputFraction(flat, 10.0, UsToNs(3.9));
  EXPECT_NEAR(IdealThroughputDropPercent(flat, 10.0, UsToNs(3.9)), (1 - f) * 100, 1e-9);
  // Jobs/hour at zero faults equals 3600/T0.
  EXPECT_NEAR(IdealJobsPerHour({0}, 7.2, UsToNs(3.9)), 500.0, 1e-9);
}

TEST(MachineParamsTest, WireMathMatchesPaperConstants) {
  MachineParams p = BareMetalParams();
  // 4 KB at 192 Gbps: ~170 ns; unloaded op = the paper's L = 3.9 us.
  EXPECT_NEAR(static_cast<double>(p.PageWireTime()), 170.0, 2.0);
  EXPECT_NEAR(static_cast<double>(p.UnloadedRdmaNs()), 3900.0, 10.0);
  EXPECT_EQ(p.cores(), 56);
  // 5.83 M pages/s ideal ceiling.
  EXPECT_NEAR(1e9 / static_cast<double>(p.PageWireTime()) / 1e6, 5.86, 0.05);
}

TEST(MachineParamsTest, BackendPresetsAreOrdered) {
  MachineParams rdma = VirtualizedParams();
  MachineParams ssd = NvmeBackendParams();
  MachineParams zswap = ZswapBackendParams();
  EXPECT_GT(ssd.UnloadedRdmaNs(), 4 * rdma.UnloadedRdmaNs());
  EXPECT_LT(zswap.UnloadedRdmaNs(), rdma.UnloadedRdmaNs());
  EXPECT_LT(ssd.nic_gbps, rdma.nic_gbps);
}

}  // namespace
}  // namespace magesim
