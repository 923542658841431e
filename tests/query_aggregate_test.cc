#include "stats/aggregate.h"

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "test_util.h"
#include "util/random.h"

namespace vastats {
namespace {

const std::vector<double> kValues = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};

TEST(AggregateKindTest, ToStringRoundTrips) {
  for (const AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kAverage, AggregateKind::kCount,
        AggregateKind::kMin, AggregateKind::kMax, AggregateKind::kVariance,
        AggregateKind::kStdDev, AggregateKind::kMedian}) {
    const auto parsed = ParseAggregateKind(AggregateKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_TRUE(ParseAggregateKind("average").ok());
  EXPECT_TRUE(ParseAggregateKind("variance").ok());
  EXPECT_FALSE(ParseAggregateKind("mode").ok());
}

TEST(EvaluateAggregateTest, KnownValues) {
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kSum, kValues).value(),
                   31.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kAverage, kValues).value(),
                   31.0 / 8.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kCount, kValues).value(),
                   8.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kMin, kValues).value(),
                   1.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kMax, kValues).value(),
                   9.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kMedian, kValues).value(),
                   3.5);
}

TEST(EvaluateAggregateTest, VarianceIsPopulationVariance) {
  // Matches the paper's Eq. (1.1)-style averaging over the component set.
  double mean = 0.0;
  for (const double v : kValues) mean += v;
  mean /= static_cast<double>(kValues.size());
  double expected = 0.0;
  for (const double v : kValues) expected += (v - mean) * (v - mean);
  expected /= static_cast<double>(kValues.size());
  EXPECT_NEAR(EvaluateAggregate(AggregateKind::kVariance, kValues).value(),
              expected, 1e-12);
  EXPECT_NEAR(EvaluateAggregate(AggregateKind::kStdDev, kValues).value(),
              std::sqrt(expected), 1e-12);
}

TEST(EvaluateAggregateTest, EmptyInput) {
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kCount, {}).value(), 0.0);
  for (const AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kAverage, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kMedian}) {
    EXPECT_FALSE(EvaluateAggregate(kind, {}).ok())
        << AggregateKindToString(kind);
  }
}

TEST(EvaluateAggregateTest, SingleValue) {
  const std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kSum, one).value(), 7.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kAverage, one).value(),
                   7.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kVariance, one).value(),
                   0.0);
  EXPECT_DOUBLE_EQ(EvaluateAggregate(AggregateKind::kMedian, one).value(),
                   7.0);
}

TEST(QuantileAggregateTest, MatchesQuantileFunction) {
  const std::vector<double> values = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(
        EvaluateAggregate(AggregateKind::kQuantile, values, q).value(),
        Quantile(values, q).value())
        << "q=" << q;
  }
  // Median is the q = 0.5 special case.
  EXPECT_DOUBLE_EQ(
      EvaluateAggregate(AggregateKind::kQuantile, values, 0.5).value(),
      EvaluateAggregate(AggregateKind::kMedian, values).value());
}

TEST(QuantileAggregateTest, PartialMergeWorks) {
  const auto left = NewAggregator(AggregateKind::kQuantile, 0.9);
  const auto right = NewAggregator(AggregateKind::kQuantile, 0.9);
  for (int i = 1; i <= 5; ++i) left->Add(i);
  for (int i = 6; i <= 10; ++i) right->Add(i);
  ASSERT_TRUE(left->Merge(*right).ok());
  const std::vector<double> all = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(left->Finalize().value(), Quantile(all, 0.9).value());
}

TEST(QuantileAggregateTest, ClassifiedAsHolisticAndMonotone) {
  EXPECT_FALSE(IsAlgebraic(AggregateKind::kQuantile));
  EXPECT_TRUE(IsComponentwiseMonotone(AggregateKind::kQuantile));
  EXPECT_EQ(ParseAggregateKind("quantile").value(),
            AggregateKind::kQuantile);
}

TEST(QuantileAggregateTest, QueryValidationChecksQ) {
  AggregateQuery query = MakeRangeQuery("q", AggregateKind::kQuantile, 0, 3);
  query.quantile_q = 0.95;
  EXPECT_TRUE(query.Validate().ok());
  query.quantile_q = 1.5;
  EXPECT_FALSE(query.Validate().ok());
  query.quantile_q = -0.1;
  EXPECT_FALSE(query.Validate().ok());
}

TEST(PartialAggregatorTest, MergeKindMismatchRejected) {
  const auto sum = NewAggregator(AggregateKind::kSum);
  const auto avg = NewAggregator(AggregateKind::kAverage);
  EXPECT_FALSE(sum->Merge(*avg).ok());
  const auto min = NewAggregator(AggregateKind::kMin);
  const auto max = NewAggregator(AggregateKind::kMax);
  EXPECT_FALSE(min->Merge(*max).ok());
}

TEST(PartialAggregatorTest, NewEmptyPreservesKind) {
  for (const AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kMin, AggregateKind::kMedian}) {
    const auto agg = NewAggregator(kind);
    const auto fresh = agg->NewEmpty();
    EXPECT_EQ(fresh->kind(), kind);
    EXPECT_EQ(fresh->Count(), 0);
  }
}

TEST(PartialAggregatorTest, CountTracksAdds) {
  const auto agg = NewAggregator(AggregateKind::kSum);
  EXPECT_EQ(agg->Count(), 0);
  agg->Add(1.0);
  agg->Add(2.0);
  EXPECT_EQ(agg->Count(), 2);
}

TEST(IsAlgebraicTest, OnlyMedianIsHolistic) {
  EXPECT_TRUE(IsAlgebraic(AggregateKind::kSum));
  EXPECT_TRUE(IsAlgebraic(AggregateKind::kVariance));
  EXPECT_FALSE(IsAlgebraic(AggregateKind::kMedian));
}

TEST(IsComponentwiseMonotoneTest, Classification) {
  EXPECT_TRUE(IsComponentwiseMonotone(AggregateKind::kSum));
  EXPECT_TRUE(IsComponentwiseMonotone(AggregateKind::kAverage));
  EXPECT_TRUE(IsComponentwiseMonotone(AggregateKind::kMedian));
  EXPECT_FALSE(IsComponentwiseMonotone(AggregateKind::kVariance));
  EXPECT_FALSE(IsComponentwiseMonotone(AggregateKind::kStdDev));
}

// Property: for every kind and every split point, partial-merge-finalize
// equals one-shot evaluation (the partial/final decomposition of §4.2).
// gtest prints a parameter that has no printer as its raw bytes, and those
// bytes become part of the discovered ctest name. `padding` fills the gap
// after `kind` with a fixed zero; left as compiler padding it held stack
// leftovers (parts of addresses) and the name changed from run to run.
struct MergeCase {
  AggregateKind kind;
  uint32_t padding = 0;
  size_t split;
};
static_assert(sizeof(MergeCase) == sizeof(AggregateKind) + sizeof(uint32_t) +
                                       sizeof(size_t));

class PartialFinalProperty : public ::testing::TestWithParam<MergeCase> {};

TEST_P(PartialFinalProperty, MergeEqualsBulk) {
  const AggregateKind kind = GetParam().kind;
  const size_t split = GetParam().split;
  Rng rng(99);
  std::vector<double> values(37);
  for (double& v : values) v = rng.Uniform(-10.0, 50.0);

  const auto left = NewAggregator(kind);
  const auto right = NewAggregator(kind);
  for (size_t i = 0; i < values.size(); ++i) {
    (i < split ? left : right)->Add(values[i]);
  }
  ASSERT_TRUE(left->Merge(*right).ok());
  const auto merged = left->Finalize();
  const auto bulk = EvaluateAggregate(kind, values);
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(bulk.ok());
  EXPECT_NEAR(merged.value(), bulk.value(), 1e-9)
      << AggregateKindToString(kind) << " split=" << split;
}

std::vector<MergeCase> AllMergeCases() {
  std::vector<MergeCase> cases;
  for (const AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kAverage, AggregateKind::kCount,
        AggregateKind::kMin, AggregateKind::kMax, AggregateKind::kVariance,
        AggregateKind::kStdDev, AggregateKind::kMedian}) {
    for (const size_t split : {0u, 1u, 18u, 36u, 37u}) {
      cases.push_back({.kind = kind, .split = split});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllKindsAndSplits, PartialFinalProperty,
                         ::testing::ValuesIn(AllMergeCases()));

}  // namespace
}  // namespace vastats
