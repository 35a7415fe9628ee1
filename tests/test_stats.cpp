// Statistics: Welford moments and percentiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "hcep/util/error.hpp"
#include "hcep/util/rng.hpp"
#include "hcep/util/stats.hpp"

namespace {

using namespace hcep;

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_THROW((void)s.mean(), PreconditionError);
  EXPECT_THROW((void)s.min(), PreconditionError);
  s.add(1.0);
  EXPECT_THROW((void)s.variance(), PreconditionError);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng(3);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(5.0, 2.0);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
}

TEST(Percentile, SingleSample) {
  std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 95.0), 42.0);
}

TEST(Percentile, Validation) {
  std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50.0), PreconditionError);
  EXPECT_THROW((void)percentile_sorted(empty, 50.0), PreconditionError);
  std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile(v, 101.0), PreconditionError);
  EXPECT_THROW((void)percentile_sorted(v, 101.0), PreconditionError);
  EXPECT_THROW((void)percentile_sorted(v, -0.5), PreconditionError);
}

TEST(Percentile, SortedInputNeedsNoSort) {
  // percentile_sorted holds the one interpolation formula: on ascending
  // input it must equal the sorting variants bit for bit.
  Rng rng(29);
  std::vector<double> v;
  for (int i = 0; i < 1001; ++i) v.push_back(rng.exponential(1.0));
  std::sort(v.begin(), v.end());
  for (const double p : {0.0, 12.5, 50.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(percentile_sorted(v, p), percentile(v, p)) << p;
    std::vector<double> copy = v;
    EXPECT_EQ(percentile_sorted(v, p), percentile_inplace(copy, p)) << p;
  }
  const std::vector<double> one{42.0};
  EXPECT_EQ(percentile_sorted(one, 95.0), 42.0);
}

}  // namespace
