#include "sampling/adaptive.h"

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "stats/descriptive.h"
#include "datagen/source_builder.h"
#include "test_util.h"

namespace vastats {
namespace {

TEST(AdaptiveOptionsTest, Validation) {
  AdaptiveSamplingOptions options;
  EXPECT_FALSE(options.Validate().ok());  // no target set
  options.target_ci_length = 1.0;
  EXPECT_TRUE(options.Validate().ok());
  options.initial_size = 2;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.target_ci_length = 1.0;
  options.max_size = options.initial_size - 1;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.target_relative_length = 0.01;
  options.confidence_level = 1.5;
  EXPECT_FALSE(options.Validate().ok());
}

class AdaptiveSamplingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto mixture = MakeD2(11);
    SyntheticSourceSetOptions options;
    options.num_sources = 30;
    options.num_components = 50;
    options.seed = 12;
    sources_ = BuildSyntheticSourceSet(*mixture, options).value();
    query_ = MakeRangeQuery("sum", AggregateKind::kSum, 0, 50);
    sampler_.emplace(UniSSampler::Create(&sources_, query_).value());
  }

  SourceSet sources_;
  AggregateQuery query_;
  std::optional<UniSSampler> sampler_;
};

TEST_F(AdaptiveSamplingTest, StopsImmediatelyWithLooseTarget) {
  AdaptiveSamplingOptions options;
  options.initial_size = 50;
  options.increment = 50;
  options.max_size = 500;
  options.target_ci_length = 1e9;  // trivially satisfied
  const auto result = AdaptiveUniSSampling(*sampler_, options, /*seed=*/1);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
  EXPECT_EQ(result->samples.size(), 50u);
  EXPECT_EQ(result->trace.size(), 1u);
}

TEST_F(AdaptiveSamplingTest, GrowsUntilTargetMet) {
  AdaptiveSamplingOptions options;
  options.initial_size = 30;
  options.increment = 30;
  options.max_size = 2000;
  // A target the initial sample will not meet but a larger one will.
  Rng probe_rng(2);
  const auto initial = sampler_->Sample(30, probe_rng);
  ASSERT_TRUE(initial.ok());
  const double spread = ComputeMoments(*initial).SampleStdDev();
  options.target_ci_length = spread / 4.0;
  const auto result = AdaptiveUniSSampling(*sampler_, options, /*seed=*/3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
  EXPECT_GT(result->samples.size(), 30u);
  EXPECT_GE(result->trace.size(), 2u);
  // Trace CI lengths must end below the target.
  EXPECT_LE(result->trace.back().mean_ci.Length(), options.target_ci_length);
}

TEST_F(AdaptiveSamplingTest, RespectsBudget) {
  AdaptiveSamplingOptions options;
  options.initial_size = 20;
  options.increment = 20;
  options.max_size = 100;
  options.target_ci_length = 1e-9;  // unreachable
  const auto result = AdaptiveUniSSampling(*sampler_, options, /*seed=*/4);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfied);
  EXPECT_EQ(result->samples.size(), 100u);
}

TEST_F(AdaptiveSamplingTest, RelativeTargetUsesMeanScale) {
  AdaptiveSamplingOptions options;
  options.initial_size = 50;
  options.increment = 100;
  options.max_size = 3000;
  options.target_relative_length = 0.01;  // 1% of the mean
  const auto result = AdaptiveUniSSampling(*sampler_, options, /*seed=*/5);
  ASSERT_TRUE(result.ok());
  if (result->satisfied) {
    const double mean = ComputeMoments(result->samples).mean();
    EXPECT_LE(result->trace.back().mean_ci.Length(),
              0.01 * std::fabs(mean) + 1e-12);
  }
}

TEST_F(AdaptiveSamplingTest, RelativeTargetSurvivesZeroCenteredData) {
  // True component values ~ 0, so the viable sum is centered at ~0 and its
  // spread comes entirely from the per-source conflict noise. Pre-fix,
  // target = target_relative_length * |mean| ~ 0 could never be met, so
  // every such run burned straight to max_size; the std-dev floor makes the
  // relative target meaningful again.
  const NormalDistribution centered(0.0, 0.01);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 30;
  source_options.num_components = 50;
  source_options.seed = 13;
  SourceSet sources = BuildSyntheticSourceSet(centered, source_options).value();
  const AggregateQuery query = MakeRangeQuery("sum", AggregateKind::kSum, 0, 50);
  const auto sampler = UniSSampler::Create(&sources, query);
  ASSERT_TRUE(sampler.ok());

  AdaptiveSamplingOptions options;
  options.initial_size = 100;
  options.increment = 100;
  options.max_size = 4000;
  options.target_relative_length = 0.5;  // of max(|mean|, std-dev)
  const auto result = AdaptiveUniSSampling(*sampler, options, /*seed=*/7);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->relative_target_floored);
  EXPECT_TRUE(result->satisfied);
  EXPECT_LT(result->samples.size(), static_cast<size_t>(options.max_size));
}

TEST_F(AdaptiveSamplingTest, TraceSizesIncrease) {
  AdaptiveSamplingOptions options;
  options.initial_size = 20;
  options.increment = 40;
  options.max_size = 180;
  options.target_ci_length = 1e-9;
  const auto result = AdaptiveUniSSampling(*sampler_, options, /*seed=*/6);
  ASSERT_TRUE(result.ok());
  int prev = 0;
  for (const AdaptiveStep& step : result->trace) {
    EXPECT_GT(step.sample_size, prev);
    prev = step.sample_size;
  }
  EXPECT_EQ(result->trace.back().sample_size, 180);
}

}  // namespace
}  // namespace vastats
