// Unit tests for the benchmark's helpers (perfbench/src/helpers.h).
// Build and run: python3 perfbench/run.py --selftest

#include "helpers.h"

#include <gtest/gtest.h>

namespace lakefed::perfbench {
namespace {

TEST(PercentileTest, EmptyIsZero) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Median({}), 0);
}

TEST(PercentileTest, SingleValueAtEveryRank) {
  EXPECT_EQ(Percentile({7.5}, 0.0), 7.5);
  EXPECT_EQ(Percentile({7.5}, 0.5), 7.5);
  EXPECT_EQ(Percentile({7.5}, 1.0), 7.5);
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(Median({2, 1}), 1.5);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Percentile({4, 3, 2, 1}, 0.1), 1.3);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 0.95), 3.85);
}

TEST(PercentileTest, ClampsRankOutsideUnitInterval) {
  EXPECT_EQ(Percentile({1, 2, 3}, -1), 1);
  EXPECT_EQ(Percentile({1, 2, 3}, 2), 3);
}

fed::QueryAnswer Answer(std::vector<std::pair<std::string, std::string>> rows) {
  fed::QueryAnswer answer;
  answer.variables = {"a", "b"};
  for (const auto& [a, b] : rows) {
    rdf::Binding row;
    row["a"] = rdf::Term::Literal(a);
    row["b"] = rdf::Term::Literal(b);
    answer.rows.push_back(row);
  }
  return answer;
}

TEST(DigestTest, IndependentOfRowOrder) {
  const AnswerDigest d1 =
      DigestAnswer(Answer({{"x", "1"}, {"y", "2"}, {"z", "3"}}));
  const AnswerDigest d2 =
      DigestAnswer(Answer({{"z", "3"}, {"x", "1"}, {"y", "2"}}));
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1.rows, 3u);
}

TEST(DigestTest, DetectsMissingDuplicatedAndChangedRows) {
  const AnswerDigest base = DigestAnswer(Answer({{"x", "1"}, {"y", "2"}}));
  EXPECT_FALSE(base == DigestAnswer(Answer({{"x", "1"}})));
  EXPECT_FALSE(base ==
               DigestAnswer(Answer({{"x", "1"}, {"y", "2"}, {"y", "2"}})));
  EXPECT_FALSE(base == DigestAnswer(Answer({{"x", "1"}, {"y", "3"}})));
  // Values swapped between columns are a different answer.
  EXPECT_FALSE(base == DigestAnswer(Answer({{"1", "x"}, {"y", "2"}})));
}

TEST(DigestTest, UnboundVariableDiffersFromBound) {
  fed::QueryAnswer bound = Answer({{"x", "1"}});
  fed::QueryAnswer unbound = bound;
  unbound.rows[0].erase("b");
  EXPECT_FALSE(DigestAnswer(bound) == DigestAnswer(unbound));
}

TEST(ProcParserTest, ProcStatAggregateLine) {
  const char* text =
      "cpu  100 5 50 1000 20 3 2 1 0 0\n"
      "cpu0 50 2 25 500 10 1 1 0 0 0\n";
  EXPECT_EQ(ParseProcStatBusy(text), 100u + 5 + 50 + 3 + 2 + 1);
}

TEST(ProcParserTest, ProcStatShortAndMalformed) {
  EXPECT_EQ(ParseProcStatBusy("cpu  10 0 5 100\n"), 15u);  // 4 fields only
  EXPECT_FALSE(ParseProcStatBusy("cpu0 1 2 3 4\n").has_value());
  EXPECT_FALSE(ParseProcStatBusy("cpu  1 2\n").has_value());
  EXPECT_FALSE(ParseProcStatBusy("").has_value());
}

TEST(ProcParserTest, StatusFields) {
  const char* text =
      "Name:\tlakefed_perfbench\n"
      "VmHWM:\t  123456 kB\n"
      "Threads:\t17\n"
      "ThreadsX:\t99\n";
  EXPECT_EQ(ParseStatusField(text, "VmHWM"), 123456u);
  EXPECT_EQ(ParseStatusField(text, "Threads"), 17u);
  EXPECT_FALSE(ParseStatusField(text, "VmRSS").has_value());
  EXPECT_FALSE(ParseStatusField(text, "Name").has_value());  // not a number
}

TEST(ClampTest, DerivedMetricsNeverGoNegative) {
  EXPECT_DOUBLE_EQ(ClampedRemainder(10, {3, 2}), 5);
  EXPECT_DOUBLE_EQ(ClampedRemainder(10, {6, 5}), 0);
  EXPECT_DOUBLE_EQ(ClampedRemainder(10, {}), 10);
  EXPECT_DOUBLE_EQ(ClampedRemainder(0, {0}), 0);
}

TEST(CalibrationTest, KernelIsDeterministic) {
  EXPECT_EQ(CalibrationKernel(), CalibrationKernel());
}

}  // namespace
}  // namespace lakefed::perfbench
