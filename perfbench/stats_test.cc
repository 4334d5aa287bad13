// Tests for the benchmark's statistics helpers (stats.h). Expected quartiles
// were computed with Python's statistics.quantiles(values, n=4).
#include "stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace perfbench {
namespace {

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 90);
  EXPECT_DOUBLE_EQ(Percentile(v, 99.9), 100);
  EXPECT_DOUBLE_EQ(Percentile({5, 1}, 1), 1);
  EXPECT_EQ(SamplesBeyond(100, 90), 10u);
  EXPECT_EQ(SamplesBeyond(100, 95), 5u);
}

TEST(TailPercentileTest, HighestWithTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  TailPercentile t = HighestSupportedPercentile(v);
  EXPECT_DOUBLE_EQ(t.pct, 90);
  EXPECT_DOUBLE_EQ(t.value, 90);

  v.resize(1000);
  for (int i = 0; i < 1000; ++i) v[static_cast<size_t>(i)] = i;
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(v).pct, 99);

  // 20 samples: p50 leaves exactly 10 beyond; p75 leaves 5.
  v.assign(20, 1.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(v).pct, 50);

  // Too few samples for any tail figure.
  t = HighestSupportedPercentile({1, 2, 3});
  EXPECT_DOUBLE_EQ(t.pct, 0);
  EXPECT_TRUE(std::isnan(t.value));
}

TEST(QuartileTest, MatchesPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  std::vector<double> q = Quartiles(v);
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  EXPECT_DOUBLE_EQ(QuartileSpread(v), (8.25 - 2.75) / 5.5);

  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolated).
  q = Quartiles({2, 1});
  EXPECT_DOUBLE_EQ(q[0], 0.75);
  EXPECT_DOUBLE_EQ(q[1], 1.5);
  EXPECT_DOUBLE_EQ(q[2], 2.25);

  EXPECT_TRUE(std::isnan(QuartileSpread({1})));
}

TEST(WindowRateTest, EqualCountWindows) {
  // 6 events of 2 items: windows of 2 events end at 1, 2 and 6 s.
  const std::vector<double> ends = {0.5, 1, 1.5, 2, 4, 6};
  EXPECT_EQ(WindowRates(0, ends, 2, 3), (std::vector<double>{4, 4, 1}));
  // Two windows of 3 events: 6 items in 1.5 s, then 6 in 4.5 s.
  EXPECT_EQ(WindowRates(0, ends, 2, 2), (std::vector<double>{4, 6 / 4.5}));
  // A trailing partial window is dropped.
  EXPECT_EQ(WindowRates(0, {1, 2, 3, 4, 5}, 1, 2),
            (std::vector<double>{1, 1}));
  // More windows than events: one event per window.
  EXPECT_EQ(WindowRates(10, {11, 13}, 1, 5), (std::vector<double>{1, 0.5}));
  EXPECT_TRUE(WindowRates(0, {}, 1, 3).empty());
}

TEST(RatioTest, CarriesItsBase) {
  Ratio r{3, 12, "step_ms"};
  EXPECT_DOUBLE_EQ(r.value(), 0.25);
  EXPECT_NE(r.Describe().find("base: step_ms"), std::string::npos);
  EXPECT_TRUE(std::isnan(Ratio({1, 0, "empty"}).value()));
}

TEST(OpCountTest, FailedAgainstAttempted) {
  OpCount c;
  c.Record(true);
  c.Record(true);
  EXPECT_EQ(c.attempted, 2);
  EXPECT_EQ(c.failed, 0);
  OpCount d;
  d.Record(false);
  c.Merge(d);
  EXPECT_EQ(c.attempted, 3);
  EXPECT_EQ(c.failed, 1);
}

}  // namespace
}  // namespace perfbench
