#include "perfbench/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace idivm::perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> values;
  for (size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(PercentileTest, NeedsTenSamplesBeyondTheQuantile) {
  EXPECT_FALSE(Percentile(Iota(99), 0.9).has_value());
  ASSERT_TRUE(Percentile(Iota(100), 0.9).has_value());
  EXPECT_FALSE(Percentile(Iota(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Iota(1000), 0.99).has_value());
  EXPECT_FALSE(Percentile(Iota(19), 0.5).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, NearestRankOfUnsortedInput) {
  std::vector<double> values = Iota(100);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(*Percentile(values, 0.9), 90);
  EXPECT_EQ(*Percentile(values, 0.5), 50);
  EXPECT_EQ(*Percentile(Iota(1000), 0.99), 990);
}

TEST(PercentileTest, RejectsDegenerateQuantiles) {
  EXPECT_FALSE(Percentile(Iota(1000), 0).has_value());
  EXPECT_FALSE(Percentile(Iota(1000), 1).has_value());
}

TEST(BestBlockTest, TakesTheLeastDisturbedQuarter) {
  // Four blocks of 20 samples, slowed by a different share each.
  const double slowdown[kBlocks] = {1.2, 1.0, 1.4, 1.1};
  std::vector<double> samples;
  for (int b = 0; b < kBlocks; ++b) {
    for (int i = 1; i <= 20; ++i) samples.push_back(slowdown[b] * i);
  }
  EXPECT_EQ(*BestBlockPercentile(samples, 0.5), 10);
  EXPECT_DOUBLE_EQ(BestBlockMean(samples), 10.5);
  // A block of 19 samples cannot carry a median.
  samples.resize(79);
  EXPECT_FALSE(BestBlockPercentile(samples, 0.5).has_value());
  EXPECT_EQ(BestBlockMean({1, 2, 3}), 0);
}

TEST(BestBlockTest, LastBlockTakesTheRemainder) {
  std::vector<double> samples = Iota(83);
  std::reverse(samples.begin(), samples.end());
  // Blocks of 20, 20, 20 and 23 samples; the last holds 1..23.
  EXPECT_EQ(*BestBlockPercentile(samples, 0.5), 12);
}

TEST(MetricNameTest, AcceptsTheContractAlphabet) {
  EXPECT_TRUE(ValidMetricName("setup_s"));
  EXPECT_TRUE(ValidMetricName("refresh.q7.ms"));
  EXPECT_TRUE(ValidMetricName("setup.define.qs1_s"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(MetricNameTest, RejectsEverythingElse) {
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName(".leading"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("quote\""));
  EXPECT_FALSE(ValidMetricName("read_µs"));
  EXPECT_FALSE(ValidMetricName("a/b"));
}

TEST(MetricNameTest, UnitsAllowSlashAndPercent) {
  EXPECT_TRUE(ValidUnit("1/s"));
  EXPECT_TRUE(ValidUnit("%"));
  EXPECT_TRUE(ValidUnit("MiB"));
  EXPECT_FALSE(ValidUnit(""));
  EXPECT_FALSE(ValidUnit("µs"));
  EXPECT_FALSE(ValidUnit(std::string(17, 's')));
}

TEST(MetricSetTest, RejectsBadNamesRepeatsAndNonFiniteValues) {
  MetricSet metrics;
  metrics.Add("latency_ms", 1.5, "ms");
  EXPECT_THROW(metrics.Add("latency_ms", 2, "ms"), std::invalid_argument);
  EXPECT_THROW(metrics.Add("bad name", 2, "ms"), std::invalid_argument);
  EXPECT_THROW(metrics.Add("x", 2, "m s"), std::invalid_argument);
  EXPECT_THROW(metrics.Add("nan", std::nan(""), "ms"), std::invalid_argument);
  ASSERT_EQ(metrics.metrics().size(), 1u);
  EXPECT_EQ(metrics.Find("latency_ms")->value, 1.5);
}

TEST(MetricSetTest, RendersTheResultLine) {
  MetricSet metrics;
  metrics.Add("a", 0.1, "ms");
  metrics.Add("b", 3, "1/s");
  EXPECT_EQ(RenderResult(true, 10, 1, metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"a\": {\"value\": 0.10000000000000001, \"unit\": "
            "\"ms\"}, \"b\": {\"value\": 3, \"unit\": \"1/s\"}}}");
}

TEST(StalenessPairingTest, AddsLatenessToTheMatchingServiceSample) {
  // Two warmup samples precede the phase's three ops.
  const std::vector<double> samples = {9, 9, 0.010, 0.020, 0.030};
  const std::vector<double> lateness = {0.001, 0.0, 0.005};
  const auto paired = PairStaleness(lateness, samples, 2, 1 << 17);
  ASSERT_TRUE(paired.has_value());
  ASSERT_EQ(paired->size(), 3u);
  EXPECT_DOUBLE_EQ((*paired)[0], 0.011);
  EXPECT_DOUBLE_EQ((*paired)[1], 0.020);
  EXPECT_DOUBLE_EQ((*paired)[2], 0.035);
}

TEST(StalenessPairingTest, RefusesCountsThatDoNotPairOneToOne) {
  const std::vector<double> lateness = {0, 0, 0};
  // An op lost (rejected or shed) leaves one sample too few.
  EXPECT_FALSE(PairStaleness(lateness, {1, 1, 1, 1}, 2, 1 << 17));
  // A sample more than ops sent.
  EXPECT_FALSE(PairStaleness(lateness, {1, 1, 1, 1, 1, 1}, 2, 1 << 17));
  // A full ring may have wrapped: its order no longer follows the ops.
  EXPECT_FALSE(PairStaleness(lateness, {1, 1, 1, 1, 1}, 2, 5));
  EXPECT_TRUE(PairStaleness(lateness, {1, 1, 1, 1, 1}, 2, 6));
}

}  // namespace
}  // namespace idivm::perfbench
