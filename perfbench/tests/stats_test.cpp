// Percentile and tail-selection rules of the benchmark's reports.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnOneToHundred) {
  const auto v = one_to(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.9), 90.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile(v, 0.001), 1.0);
}

TEST(Percentile, IgnoresInputOrderAndHandlesEmpty) {
  EXPECT_EQ(percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.6), 3.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Median, AveragesTheMiddlePair) {
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Tail, SamplesBeyondCountsTheLargerOnes) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(100, 0.95), 5u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(Tail, PicksTheHighestLadderPercentileWithTenBeyond) {
  EXPECT_EQ(tail_percentile(10000), 0.999);
  EXPECT_EQ(tail_percentile(1000), 0.99);
  EXPECT_EQ(tail_percentile(999), 0.95);
  EXPECT_EQ(tail_percentile(200), 0.95);
  EXPECT_EQ(tail_percentile(199), 0.9);
  EXPECT_EQ(tail_percentile(100), 0.9);
  EXPECT_EQ(tail_percentile(99), 0.75);
  EXPECT_EQ(tail_percentile(40), 0.75);
  EXPECT_EQ(tail_percentile(39), 0.5);
  EXPECT_EQ(tail_percentile(5), 0.5);
}

TEST(Tail, TailOfReportsValueCountAndBeyond) {
  const Tail t = tail_of(one_to(120));
  EXPECT_EQ(t.p, 0.9);
  EXPECT_EQ(t.value, 108.0);
  EXPECT_EQ(t.n, 120u);
  EXPECT_EQ(t.beyond, 12u);
}

TEST(Geomean, OfPowersOfTwo) {
  EXPECT_NEAR(geomean({1.0, 4.0, 16.0}), 4.0, 1e-12);
  EXPECT_EQ(geomean({}), 0.0);
}

}  // namespace
}  // namespace perfbench
