#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

TEST(BootstrapOptionsTest, Validation) {
  BootstrapOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.num_sets = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.num_sets = 10;
  options.set_size = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(BootstrapSetsTest, ShapeAndMembership) {
  const std::vector<double> data = {1, 2, 3, 4, 5};
  BootstrapOptions options;
  options.num_sets = 7;
  options.set_size = 12;
  const auto sets = BootstrapSets(data, options, 1);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->size(), 7u);
  for (const auto& set : *sets) {
    ASSERT_EQ(set.size(), 12u);
    for (const double v : set) {
      EXPECT_TRUE(std::find(data.begin(), data.end(), v) != data.end());
    }
  }
}

TEST(BootstrapSetsTest, DefaultSetSizeIsDataSize) {
  const std::vector<double> data = {1, 2, 3};
  const auto sets = BootstrapSets(data, BootstrapOptions{}, 2);
  ASSERT_TRUE(sets.ok());
  EXPECT_EQ((*sets)[0].size(), 3u);
}

TEST(BootstrapSetsTest, DeterministicUnderSeed) {
  const std::vector<double> data = testing::NormalSample(50, 3);
  const auto a = BootstrapSets(data, BootstrapOptions{}, 42);
  const auto b = BootstrapSets(data, BootstrapOptions{}, 42);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(BootstrapSetsTest, EmptyDataRejected) {
  EXPECT_FALSE(BootstrapSets({}, BootstrapOptions{}, 1).ok());
}

TEST(BootstrapReplicatesTest, MeanReplicatesCenterOnSampleMean) {
  const std::vector<double> data = testing::NormalSample(400, 5, 10.0, 2.0);
  const double sample_mean = ComputeMoments(data).mean();
  BootstrapOptions options;
  options.num_sets = 200;
  const auto replicates = BootstrapReplicates(
      data, MomentStatisticFn(MomentStatistic::kMean), options, 7);
  ASSERT_TRUE(replicates.ok());
  ASSERT_EQ(replicates->size(), 200u);
  const Moments moments = ComputeMoments(*replicates);
  EXPECT_NEAR(moments.mean(), sample_mean, 0.05);
  // Replicate spread approximates the standard error s/sqrt(n).
  const double expected_se =
      ComputeMoments(data).SampleStdDev() / std::sqrt(400.0);
  EXPECT_NEAR(moments.SampleStdDev(), expected_se, expected_se * 0.3);
}

TEST(BootstrapReplicatesTest, MatchesReplicatesFromSets) {
  const std::vector<double> data = testing::NormalSample(100, 9);
  BootstrapOptions options;
  options.num_sets = 25;
  const auto direct = BootstrapReplicates(
      data, MomentStatisticFn(MomentStatistic::kVariance), options, 11);
  const auto sets = BootstrapSets(data, options, 11);
  ASSERT_TRUE(sets.ok());
  const auto via_sets = ReplicatesFromSets(
      *sets, MomentStatisticFn(MomentStatistic::kVariance));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_sets.ok());
  ASSERT_EQ(direct->size(), via_sets->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_DOUBLE_EQ((*direct)[i], (*via_sets)[i]);
  }
}

TEST(BootstrapIndexSetsTest, MatchesBootstrapSetsUnderSameSeed) {
  // The index stream is the value stream: gathering the index sets must
  // reproduce BootstrapSets bit for bit.
  const std::vector<double> data = testing::NormalSample(50, 13);
  BootstrapOptions options;
  options.num_sets = 20;
  const auto index_sets =
      BootstrapIndexSets(static_cast<int>(data.size()), options, 99);
  const auto sets = BootstrapSets(data, options, 99);
  ASSERT_TRUE(index_sets.ok());
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(index_sets->size(), sets->size());
  for (size_t s = 0; s < sets->size(); ++s) {
    const std::vector<int>& indices = (*index_sets)[s];
    ASSERT_EQ(indices.size(), (*sets)[s].size());
    for (size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(data[static_cast<size_t>(indices[i])], (*sets)[s][i]);
    }
  }
}

TEST(BootstrapIndexSetsTest, Validation) {
  EXPECT_FALSE(BootstrapIndexSets(0, BootstrapOptions{}, 1).ok());
  BootstrapOptions bad;
  bad.num_sets = 0;
  EXPECT_FALSE(BootstrapIndexSets(10, bad, 1).ok());
}

TEST(ReplicatesFromIndexSetsTest, MatchesReplicatesFromSets) {
  const std::vector<double> data = testing::NormalSample(80, 17);
  BootstrapOptions options;
  options.num_sets = 30;
  const auto index_sets =
      BootstrapIndexSets(static_cast<int>(data.size()), options, 5);
  const auto sets = BootstrapSets(data, options, 5);
  ASSERT_TRUE(index_sets.ok());
  ASSERT_TRUE(sets.ok());
  const auto via_indices = ReplicatesFromIndexSets(
      data, *index_sets, MomentStatisticFn(MomentStatistic::kSkewness));
  const auto via_sets = ReplicatesFromSets(
      *sets, MomentStatisticFn(MomentStatistic::kSkewness));
  ASSERT_TRUE(via_indices.ok());
  ASSERT_TRUE(via_sets.ok());
  EXPECT_EQ(via_indices.value(), via_sets.value());
}

TEST(ReplicatesFromIndexSetsTest, RejectsOutOfRangeIndices) {
  const std::vector<double> data = {1.0, 2.0, 3.0};
  const std::vector<std::vector<int>> bad = {{0, 1, 3}};
  EXPECT_EQ(ReplicatesFromIndexSets(data, bad,
                                    MomentStatisticFn(MomentStatistic::kMean))
                .status()
                .code(),
            StatusCode::kOutOfRange);
  const std::vector<std::vector<int>> negative = {{0, -1}};
  EXPECT_FALSE(ReplicatesFromIndexSets(
                   data, negative, MomentStatisticFn(MomentStatistic::kMean))
                   .ok());
}

TEST(BootstrapPoolTest, PooledReplicatesAreBitIdenticalToSerial) {
  const std::vector<double> data = testing::NormalSample(120, 23);
  BootstrapOptions options;
  options.num_sets = 40;
  const auto serial = BootstrapReplicates(
      data, MomentStatisticFn(MomentStatistic::kVariance), options, 31);
  ThreadPool pool(ThreadPoolOptions{.num_threads = 4});
  const auto pooled = BootstrapReplicates(
      data, MomentStatisticFn(MomentStatistic::kVariance), options, 31, &pool);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(serial.value(), pooled.value());

  const auto sets = BootstrapSets(data, options, 31);
  ASSERT_TRUE(sets.ok());
  const auto from_sets_serial =
      ReplicatesFromSets(*sets, MomentStatisticFn(MomentStatistic::kMean));
  const auto from_sets_pooled = ReplicatesFromSets(
      *sets, MomentStatisticFn(MomentStatistic::kMean), &pool);
  ASSERT_TRUE(from_sets_serial.ok());
  ASSERT_TRUE(from_sets_pooled.ok());
  EXPECT_EQ(from_sets_serial.value(), from_sets_pooled.value());
}

TEST(ReplicatesFromSetsTest, RejectsEmptyInput) {
  EXPECT_FALSE(
      ReplicatesFromSets({}, MomentStatisticFn(MomentStatistic::kMean)).ok());
  const std::vector<std::vector<double>> sets = {{}};
  EXPECT_FALSE(
      ReplicatesFromSets(sets, MomentStatisticFn(MomentStatistic::kMean))
          .ok());
}

TEST(BagTest, MeanAndMedianAggregators) {
  const std::vector<double> replicates = {1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(Bag(replicates, BagAggregator::kMean).value(), 22.0);
  EXPECT_DOUBLE_EQ(Bag(replicates, BagAggregator::kMedian).value(), 3.0);
  EXPECT_FALSE(Bag({}, BagAggregator::kMean).ok());
}

TEST(BagTest, BaggingReducesEstimatorVariance) {
  // Variance of bagged means across independent runs should be smaller than
  // variance of single-set estimates.
  const std::vector<double> data = testing::NormalSample(100, 21, 0.0, 5.0);
  BootstrapOptions one_set;
  one_set.num_sets = 1;
  BootstrapOptions many_sets;
  many_sets.num_sets = 40;

  Moments single, bagged;
  for (int trial = 0; trial < 60; ++trial) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(trial);
    const auto single_rep = BootstrapReplicates(
        data, MomentStatisticFn(MomentStatistic::kMean), one_set, seed);
    single.Add((*single_rep)[0]);
    const auto many_rep = BootstrapReplicates(
        data, MomentStatisticFn(MomentStatistic::kMean), many_sets, seed);
    bagged.Add(Bag(*many_rep, BagAggregator::kMean).value());
  }
  EXPECT_LT(bagged.SampleVariance(), single.SampleVariance());
}

}  // namespace
}  // namespace vastats
