#include "sampling/unis.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sampling/exhaustive.h"
#include "stats/descriptive.h"
#include "test_util.h"

namespace vastats {
namespace {

UniSSampler MakeFigure1Sampler(const SourceSet& sources,
                               AggregateKind kind = AggregateKind::kSum) {
  return UniSSampler::Create(&sources, testing::MakeFigure1Query(kind))
      .value();
}

TEST(UniSSamplerTest, CreateValidatesCoverage) {
  const SourceSet sources = testing::MakeFigure1Sources();
  AggregateQuery query = testing::MakeFigure1Query(AggregateKind::kSum);
  query.components.push_back(42);  // nobody binds 42
  EXPECT_FALSE(UniSSampler::Create(&sources, query).ok());
  EXPECT_FALSE(UniSSampler::Create(nullptr,
                                   testing::MakeFigure1Query(
                                       AggregateKind::kSum))
                   .ok());
}

TEST(UniSSamplerTest, SampleCoversAllComponents) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto sample = sampler.SampleOne(rng);
    ASSERT_TRUE(sample.ok());
    EXPECT_DOUBLE_EQ(sample->coverage, 1.0);
    EXPECT_GE(sample->sources_contributing, 2);
    EXPECT_LE(sample->sources_visited, 4);
  }
}

TEST(UniSSamplerTest, AnswersWithinViableRange) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  const auto range =
      ViableRange(sources, testing::MakeFigure1Query(AggregateKind::kSum));
  ASSERT_TRUE(range.ok());
  Rng rng(2);
  const auto samples = sampler.Sample(500, rng);
  ASSERT_TRUE(samples.ok());
  for (const double v : *samples) {
    EXPECT_GE(v, range->first);
    EXPECT_LE(v, range->second);
  }
}

TEST(UniSSamplerTest, SampleValuesMatchOrderEnumeration) {
  // Every uniS answer must be producible by some source permutation, and
  // with enough draws every permutation answer should appear.
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  const auto all = EnumerateOrderAnswers(
      sources, testing::MakeFigure1Query(AggregateKind::kSum));
  ASSERT_TRUE(all.ok());
  std::set<double> permutation_answers(all->begin(), all->end());

  Rng rng(3);
  const auto samples = sampler.Sample(2000, rng);
  ASSERT_TRUE(samples.ok());
  std::set<double> seen(samples->begin(), samples->end());
  for (const double v : seen) {
    EXPECT_TRUE(permutation_answers.count(v) > 0) << "unexpected answer " << v;
  }
  EXPECT_EQ(seen, permutation_answers);  // 4! = 24 draws cover the space
}

TEST(UniSSamplerTest, FrequenciesMatchPermutationDistribution) {
  // uniS visits sources in a uniformly random order, so the empirical answer
  // frequencies must match the permutation-enumeration frequencies.
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  const auto all = EnumerateOrderAnswers(
      sources, testing::MakeFigure1Query(AggregateKind::kSum));
  ASSERT_TRUE(all.ok());

  std::map<double, double> expected;
  for (const double v : *all) expected[v] += 1.0 / 24.0;

  Rng rng(4);
  const int kDraws = 24000;
  std::map<double, double> observed;
  const auto samples = sampler.Sample(kDraws, rng);
  ASSERT_TRUE(samples.ok());
  for (const double v : *samples) observed[v] += 1.0 / kDraws;

  for (const auto& [answer, probability] : expected) {
    EXPECT_NEAR(observed[answer], probability, 0.02) << "answer " << answer;
  }
}

TEST(UniSSamplerTest, DeterministicUnderSeed) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  Rng rng_a(7), rng_b(7);
  EXPECT_EQ(sampler.Sample(50, rng_a).value(),
            sampler.Sample(50, rng_b).value());
}

TEST(UniSSamplerTest, CoverableWithout) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  // Component 5 is bound only by D2 (index 1); component 4 only by D3.
  EXPECT_FALSE(sampler.CoverableWithout(std::vector<int>{1}));
  EXPECT_FALSE(sampler.CoverableWithout(std::vector<int>{2}));
  EXPECT_TRUE(sampler.CoverableWithout(std::vector<int>{0}));
  EXPECT_TRUE(sampler.CoverableWithout(std::vector<int>{3}));
  EXPECT_TRUE(sampler.CoverableWithout(std::vector<int>{0, 3}));
}

TEST(UniSSamplerTest, SampleExcludingRespectsExclusion) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  Rng rng(8);
  // Excluding D1: component 1 must come from D2 (21) or D3 (19) — both also
  // possible with D1, but D1's 19-for-c2 disappears only via frequencies.
  const auto samples = sampler.SampleExcluding(200, std::vector<int>{0}, rng);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples->size(), 200u);

  // Excluding a source that breaks coverage fails fast.
  EXPECT_EQ(sampler.SampleExcluding(10, std::vector<int>{1}, rng)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sampler.SampleExcluding(10, std::vector<int>{99}, rng)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST(UniSSamplerTest, PartialCoverageModeFinalizesSubset) {
  SourceSet sources = testing::MakeFigure1Sources();
  UniSOptions options;
  options.require_full_coverage = false;
  const UniSSampler sampler =
      UniSSampler::Create(&sources,
                          testing::MakeFigure1Query(AggregateKind::kSum),
                          options)
          .value();
  Rng rng(9);
  // Exclude D2: component 5 becomes uncoverable; samples still finalize.
  std::vector<char> mask = {0, 1, 0, 0};
  const auto sample = sampler.SampleOne(rng, mask);
  ASSERT_TRUE(sample.ok());
  EXPECT_DOUBLE_EQ(sample->coverage, 0.8);
}

TEST(UniSSamplerTest, EstimateSourcesPerAnswer) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  const auto y = sampler.EstimateSourcesPerAnswer(500, /*seed=*/10);
  ASSERT_TRUE(y.ok());
  // Components 4 and 5 are single-source (D3, D2), so every answer needs at
  // least those two sources; never more than 4.
  EXPECT_GE(y.value(), 2.0);
  EXPECT_LE(y.value(), 4.0);
}

TEST(UniSSamplerTest, AverageQueryProducesAverages) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler =
      MakeFigure1Sampler(sources, AggregateKind::kAverage);
  Rng rng(11);
  const auto samples = sampler.Sample(100, rng);
  ASSERT_TRUE(samples.ok());
  for (const double v : *samples) {
    EXPECT_GT(v, 15.0);
    EXPECT_LT(v, 22.0);
  }
}

TEST(UniSSamplerTest, RejectsNonPositiveCounts) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  Rng rng(12);
  EXPECT_FALSE(sampler.Sample(0, rng).ok());
  EXPECT_FALSE(sampler.EstimateSourcesPerAnswer(0, /*seed=*/12).ok());
}

// A draw's takes depend on the rng and the component set only, never on
// the aggregate kind: replaying one recorded draw through any kind's
// aggregator must equal that kind's own draw on the same rng, bit for bit.
TEST(UniSRecordReplayTest, ReplayEqualsEveryKindsOwnDraw) {
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler recorder = MakeFigure1Sampler(sources);
  const AggregateKind kinds[] = {
      AggregateKind::kSum,      AggregateKind::kAverage, AggregateKind::kCount,
      AggregateKind::kMin,      AggregateKind::kMax,
      AggregateKind::kVariance, AggregateKind::kStdDev,
      AggregateKind::kMedian,   AggregateKind::kQuantile};
  // D1 and D4 excluded: D2 and D3 still cover every component.
  const std::vector<std::vector<char>> exclusions = {{}, {1, 0, 0, 1}};
  for (const std::vector<char>& excluded : exclusions) {
    for (const AggregateKind kind : kinds) {
      AggregateQuery query = testing::MakeFigure1Query(kind);
      query.quantile_q = 0.8;
      const auto own = UniSSampler::Create(&sources, query);
      ASSERT_TRUE(own.ok());
      Rng record_rng(21);
      Rng own_rng(21);
      std::vector<UniSTake> takes;
      for (int draw = 0; draw < 200; ++draw) {
        const auto recorded =
            recorder.SampleOneRecorded(record_rng, takes, excluded);
        const auto direct = own->SampleOne(own_rng, excluded);
        ASSERT_TRUE(recorded.ok());
        ASSERT_TRUE(direct.ok());
        const auto replayed = UniSSampler::ReplayTakes(takes, kind, 0.8);
        ASSERT_TRUE(replayed.ok());
        EXPECT_EQ(std::bit_cast<uint64_t>(*replayed),
                  std::bit_cast<uint64_t>(direct->value))
            << AggregateKindToString(kind) << " draw " << draw;
        EXPECT_EQ(recorded->sources_visited, direct->sources_visited);
      }
    }
  }
}

TEST(UniSRecordReplayTest, ReplayedKindsAreMutuallyConsistent) {
  // Every kind replayed from one recorded draw sees the same assignment,
  // so the answers cohere exactly.
  const SourceSet sources = testing::MakeFigure1Sources();
  const UniSSampler sampler = MakeFigure1Sampler(sources);
  Rng rng(1);
  std::vector<UniSTake> takes;
  for (int i = 0; i < 200; ++i) {
    const auto recorded = sampler.SampleOneRecorded(rng, takes);
    ASSERT_TRUE(recorded.ok());
    ASSERT_EQ(takes.size(), 5u);
    const double sum =
        UniSSampler::ReplayTakes(takes, AggregateKind::kSum, 0.5).value();
    const double avg =
        UniSSampler::ReplayTakes(takes, AggregateKind::kAverage, 0.5).value();
    const double min =
        UniSSampler::ReplayTakes(takes, AggregateKind::kMin, 0.5).value();
    const double max =
        UniSSampler::ReplayTakes(takes, AggregateKind::kMax, 0.5).value();
    EXPECT_EQ(sum, recorded->value);
    EXPECT_NEAR(avg, sum / 5.0, 1e-12);
    EXPECT_LE(min, avg);
    EXPECT_GE(max, avg);
  }
}

}  // namespace
}  // namespace vastats
