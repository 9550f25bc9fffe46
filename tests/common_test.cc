#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/table_writer.h"

namespace isa {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad things");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad things");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad things");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                    StatusCode::kNotFound, StatusCode::kOutOfRange,
                    StatusCode::kFailedPrecondition,
                    StatusCode::kResourceExhausted, StatusCode::kInternal,
                    StatusCode::kIOError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

Status FailingHelper() { return Status::Internal("boom"); }
Status PropagationDemo() {
  ISA_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagationDemo().code(), StatusCode::kInternal);
}

// ---------- strings ----------

TEST(StringsTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringsTest, SplitSkipEmpty) {
  auto parts = Split(",a,,b,", ',', /*skip_empty=*/true);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  x y\t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringsTest, ParseIntValid) {
  EXPECT_EQ(ParseInt(" 42 ").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
}

TEST(StringsTest, ParseIntRejectsGarbage) {
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("1.5").ok());
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseDouble("1e-3").value(), 1e-3);
}

TEST(StringsTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5q").ok());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KiB");
  EXPECT_EQ(HumanBytes(3ull << 30), "3.00 GiB");
}

// ---------- rng ----------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(17);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, HashSeedSpreadsStreams) {
  EXPECT_NE(HashSeed(1, 0), HashSeed(1, 1));
  EXPECT_NE(HashSeed(1, 0), HashSeed(2, 0));
  EXPECT_EQ(HashSeed(5, 9), HashSeed(5, 9));
}

// ---------- math_util ----------

TEST(MathTest, LogBinomialMatchesSmallCases) {
  EXPECT_NEAR(LogBinomial(5, 2), std::log(10.0), 1e-9);
  EXPECT_NEAR(LogBinomial(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(LogBinomial(10, 10), 0.0, 1e-12);
  EXPECT_NEAR(LogBinomial(52, 5), std::log(2598960.0), 1e-6);
}

TEST(MathTest, LogBinomialOutOfRange) {
  EXPECT_TRUE(std::isinf(LogBinomial(3, 5)));
  EXPECT_LT(LogBinomial(3, 5), 0.0);
}

TEST(MathTest, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

// ---------- stopwatch ----------

TEST(StopwatchTest, ElapsedNonNegativeAndMonotone) {
  Stopwatch w;
  double t1 = w.ElapsedSeconds();
  double t2 = w.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  w.Reset();
  EXPECT_LT(w.ElapsedSeconds(), 1.0);
}

// ---------- table writer ----------

TEST(TableWriterTest, TextRendering) {
  TableWriter t({"name", "value"});
  ASSERT_TRUE(t.AddRow({"alpha", "1"}).ok());
  ASSERT_TRUE(t.AddRow({"b", "23"}).ok());
  const std::string out = t.ToText();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TableWriterTest, RejectsTooManyCells) {
  TableWriter t({"only"});
  EXPECT_FALSE(t.AddRow({"a", "b"}).ok());
}

TEST(TableWriterTest, PadsMissingCells) {
  TableWriter t({"a", "b", "c"});
  ASSERT_TRUE(t.AddRow({"x"}).ok());
  EXPECT_EQ(t.row_count(), 1u);
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("x,,"), std::string::npos);
}

TEST(TableWriterTest, CsvEscaping) {
  TableWriter t({"v"});
  ASSERT_TRUE(t.AddRow({"has,comma"}).ok());
  ASSERT_TRUE(t.AddRow({"has\"quote"}).ok());
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableWriterTest, CellBuilderApi) {
  TableWriter t({"i", "d", "s"});
  t.AddCell(int64_t{-3});
  t.AddCell(2.5, 1);
  t.AddCell("z");
  ASSERT_TRUE(t.EndRow().ok());
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("-3,2.5,z"), std::string::npos);
}

TEST(TableWriterTest, MarkdownShape) {
  TableWriter t({"x", "y"});
  ASSERT_TRUE(t.AddRow({"1", "2"}).ok());
  const std::string md = t.ToMarkdown();
  EXPECT_NE(md.find("| x | y |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
  EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

TEST(TableWriterTest, WriteCsvFile) {
  TableWriter t({"a"});
  ASSERT_TRUE(t.AddRow({"1"}).ok());
  const std::string path = ::testing::TempDir() + "/isa_table_test.csv";
  ASSERT_TRUE(t.WriteCsvFile(path).ok());
  std::ifstream f(path);
  std::string line;
  ASSERT_TRUE(std::getline(f, line));
  EXPECT_EQ(line, "a");
  std::remove(path.c_str());
}

TEST(TableWriterTest, WriteCsvFileBadPath) {
  TableWriter t({"a"});
  EXPECT_FALSE(t.WriteCsvFile("/nonexistent-dir/x.csv").ok());
}

}  // namespace
}  // namespace isa
