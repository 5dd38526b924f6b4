#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/argparse.h"
#include "util/byte_codec.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace elda {
namespace {

TEST(ArgParserTest, TypedAssignmentAndProvided) {
  std::string name = "GRU";
  int64_t count = 10;
  double rate = 0.5;
  double lr = 0.0;
  bool flag = false;
  bool untouched = true;
  std::string label = "x";
  util::ArgParser parser("prog", "test");
  parser.String("name", &name, "a string")
      .Int("count", &count, "an int")
      .Double("rate", &rate, "a double")
      .Double("lr", &lr, "a double in --name=value form")
      .Bool("flag", &flag, "a switch")
      .Bool("untouched", &untouched, "left alone")
      .String("label", &label, "left alone");
  const char* argv[] = {"prog", "--name", "LSTM", "--count=42", "--rate",
                        "1.25", "--lr=0.05", "--flag"};
  parser.Parse(8, const_cast<char**>(argv));
  EXPECT_EQ(name, "LSTM");
  EXPECT_EQ(count, 42);
  EXPECT_EQ(rate, 1.25);
  EXPECT_TRUE(flag);
  EXPECT_TRUE(untouched);  // default preserved
  EXPECT_DOUBLE_EQ(lr, 0.05);
  EXPECT_EQ(label, "x");
  EXPECT_FALSE(parser.Provided("label"));
  EXPECT_TRUE(parser.Provided("count"));
  EXPECT_FALSE(parser.Provided("untouched"));
}

TEST(ArgParserTest, ExplicitBoolValuesAndNegatives) {
  bool on = true;
  int64_t offset = 0;
  util::ArgParser parser("prog", "test");
  parser.Bool("on", &on, "switch").Int("offset", &offset, "signed");
  const char* argv[] = {"prog", "--on=false", "--offset", "-7"};
  parser.Parse(4, const_cast<char**>(argv));
  EXPECT_FALSE(on);
  EXPECT_EQ(offset, -7);
}

TEST(ArgParserTest, UsageListsEveryFlagWithDefault) {
  std::string path = "out.json";
  int64_t n = 5;
  util::ArgParser parser("prog", "A test program.");
  parser.String("path", &path, "output path").Int("n", &n, "how many");
  const std::string usage = parser.Usage();
  EXPECT_NE(usage.find("A test program."), std::string::npos);
  EXPECT_NE(usage.find("--path <string>"), std::string::npos);
  EXPECT_NE(usage.find("out.json"), std::string::npos);
  EXPECT_NE(usage.find("--n <int>"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(ArgParserDeathTest, UnknownFlagAndMalformedValueExitWithUsage) {
  int64_t n = 0;
  util::ArgParser parser("prog", "test");
  parser.Int("n", &n, "an int");
  const char* unknown[] = {"prog", "--bogus", "3"};
  EXPECT_EXIT(parser.Parse(3, const_cast<char**>(unknown)),
              ::testing::ExitedWithCode(2), "unknown flag --bogus");
  const char* malformed[] = {"prog", "--n", "3x"};
  EXPECT_EXIT(parser.Parse(3, const_cast<char**>(malformed)),
              ::testing::ExitedWithCode(2), "invalid int value");
}

TEST(ArgParserDeathTest, IntBelowMinimumExitsWithUsage) {
  int64_t count = -1;  // sentinel default, below the minimum
  util::ArgParser parser("prog", "test");
  parser.Int("count", &count, "how many", /*min=*/1);
  EXPECT_NE(parser.Usage().find("(default: -1, min: 1)"), std::string::npos);
  const char* zero[] = {"prog", "--count=0"};
  EXPECT_EXIT(parser.Parse(2, const_cast<char**>(zero)),
              ::testing::ExitedWithCode(2),
              "--count must be at least 1, got 0");
  const char* negative[] = {"prog", "--count", "-5"};
  EXPECT_EXIT(parser.Parse(3, const_cast<char**>(negative)),
              ::testing::ExitedWithCode(2), "usage: prog");
  const char* at_min[] = {"prog", "--count=1"};
  parser.Parse(2, const_cast<char**>(at_min));
  EXPECT_EQ(count, 1);
}


TEST(RngTest, DeterministicAtFixedSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-2.5, 3.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 3.5);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, NormalWithParamsShiftsAndScales) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(19);
  std::vector<int> v = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(&v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  // The child stream should not be a shifted copy of the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += parent.Next() == child.Next();
  EXPECT_LT(same, 2);
}

TEST(ByteCodecTest, RoundTripsValuesArraysAndStrings) {
  util::ByteWriter writer;
  writer.Put<uint32_t>(7);
  writer.Put<double>(-2.5);
  const float floats[3] = {1.0f, -0.0f, 3.5f};
  writer.PutArray(floats, 3);
  writer.PutString<uint32_t>("abc");
  writer.PutString<int64_t>("");
  const std::string bytes = writer.Take();
  EXPECT_EQ(bytes.size(), 4u + 8 + 12 + 4 + 3 + 8);

  util::ByteReader reader(bytes);
  uint32_t u = 0;
  double d = 0.0;
  std::vector<float> back;
  std::string a, b = "x";
  EXPECT_TRUE(reader.Get(&u) && reader.Get(&d) && reader.GetArray(&back, 3) &&
              reader.GetString<uint32_t>(&a) && reader.GetString<int64_t>(&b));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(d, -2.5);
  EXPECT_EQ(back, std::vector<float>(floats, floats + 3));
  EXPECT_TRUE(std::signbit(back[1]));
  EXPECT_EQ(a, "abc");
  EXPECT_EQ(b, "");
}

// Counts whose byte size overflows size_t, negative lengths and lengths
// past a cap are refused without reading or allocating, and a refusal
// poisons every later read.
TEST(ByteCodecTest, OversizedCountsFailAndPoison) {
  const std::string bytes(16, '\x01');
  {
    util::ByteReader reader(bytes);
    EXPECT_EQ(reader.Take(uint64_t{1} << 62, 8), nullptr);
    EXPECT_FALSE(reader.ok());
    uint8_t byte = 0;
    EXPECT_FALSE(reader.Get(&byte)) << "a failed read must poison";
  }
  {
    util::ByteReader reader(bytes);
    std::vector<int64_t> values;
    EXPECT_FALSE(reader.GetArray(&values, (uint64_t{1} << 61) + 1));
    EXPECT_TRUE(values.empty());
  }
  {
    util::ByteReader reader(bytes);
    EXPECT_EQ(reader.Take(17), nullptr);
    util::ByteReader exact(bytes);
    EXPECT_NE(exact.Take(2, 8), nullptr);
    EXPECT_TRUE(exact.AtEnd());
  }
  for (int64_t length : {int64_t{-1}, int64_t{1} << 62, int64_t{9}}) {
    util::ByteWriter writer;
    writer.PutString<int64_t>("12345678");
    std::string edited = writer.Take();
    std::memcpy(edited.data(), &length, sizeof(length));
    util::ByteReader reader(edited);
    std::string out;
    EXPECT_FALSE(reader.GetString<int64_t>(&out)) << length;
  }
  util::ByteWriter writer;
  writer.PutString<uint32_t>("toolong");
  util::ByteReader capped(writer.bytes());
  std::string out;
  EXPECT_FALSE(capped.GetString<uint32_t>(&out, 6));
}

TEST(TableTest, AlignsColumns) {
  TablePrinter table({"model", "auc"});
  table.AddRow({"GRU", "0.81"});
  table.AddRow({"ELDA-Net", "0.86"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("ELDA-Net  0.86"), std::string::npos);
}

TEST(TableTest, NumFormatsAndHandlesNan) {
  EXPECT_EQ(TablePrinter::Num(0.12345, 3), "0.123");
  EXPECT_EQ(TablePrinter::Num(std::nan(""), 3), "-");
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  double x = 0.0;
  for (int i = 0; i < 1000; ++i) x += i;
  (void)x;
  EXPECT_GE(sw.Seconds(), 0.0);
  EXPECT_GE(sw.Milliseconds(), sw.Seconds());
}

}  // namespace
}  // namespace elda
