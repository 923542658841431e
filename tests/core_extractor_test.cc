#include "core/extractor.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "datagen/source_builder.h"
#include "sampling/exhaustive.h"
#include "stats/descriptive.h"
#include "test_util.h"

namespace vastats {
namespace {

TEST(ExtractorOptionsTest, DefaultsMatchTable2) {
  const ExtractorOptions options;
  EXPECT_EQ(options.initial_sample_size, 400);
  EXPECT_EQ(options.bootstrap.num_sets, 50);
  EXPECT_EQ(options.bootstrap.set_size, 0);  // = |S_uniS|
  EXPECT_DOUBLE_EQ(options.confidence_level, 0.90);
  EXPECT_DOUBLE_EQ(options.cio.theta, 0.9);
  EXPECT_EQ(options.kde.grid_size, 4096u);
  EXPECT_TRUE(options.Validate().ok());
}

TEST(ExtractorOptionsTest, Validation) {
  ExtractorOptions options;
  options.initial_sample_size = 2;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.confidence_level = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.stability_r = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.weight_probes = 0;
  EXPECT_FALSE(options.Validate().ok());
}

class ExtractorFigure1Test : public ::testing::Test {
 protected:
  void SetUp() override { sources_ = testing::MakeFigure1Sources(); }

  AnswerStatistics RunExtractor(ExtractorOptions options = {}) {
    options.initial_sample_size =
        options.initial_sample_size == 400 ? 200 : options.initial_sample_size;
    options.weight_probes = 10;
    const auto extractor = AnswerStatisticsExtractor::Create(
        &sources_, testing::MakeFigure1Query(AggregateKind::kSum), options);
    EXPECT_TRUE(extractor.ok()) << extractor.status().ToString();
    auto stats = extractor->Extract();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return std::move(stats).value();
  }

  SourceSet sources_;
};

TEST_F(ExtractorFigure1Test, EndToEndProducesSaneStatistics) {
  const AnswerStatistics stats = RunExtractor();
  // Viable answers for Figure 1 sums lie in [89, 96].
  EXPECT_GT(stats.mean.value, 89.0);
  EXPECT_LT(stats.mean.value, 96.0);
  EXPECT_TRUE(stats.mean.ci.Contains(stats.mean.value));
  EXPECT_GE(stats.variance.value, 0.0);
  EXPECT_NEAR(stats.std_dev.value, std::sqrt(stats.variance.value),
              0.5);
  EXPECT_EQ(stats.samples.size(), 200u);

  // Density and coverage intervals live within (a padding of) the range.
  EXPECT_NEAR(stats.density.TotalMass(), 1.0, 1e-9);
  EXPECT_GT(stats.coverage.total_coverage, 0.3);
  EXPECT_LE(stats.coverage.total_length_fraction, 1.0);
  for (const CoverageInterval& interval : stats.coverage.intervals) {
    EXPECT_GE(interval.lo, stats.density.x_min() - 1e-9);
    EXPECT_LE(interval.hi, stats.density.x_max() + 1e-9);
  }

  // Stability is finite and positive for this tiny scenario.
  EXPECT_TRUE(std::isfinite(stats.stability.stab_l2));
  EXPECT_GT(stats.stability.change_ratio, 0.0);
  EXPECT_LT(stats.stability.change_ratio, 1.0);
  EXPECT_GE(stats.answer_weight_y, 2.0);
  EXPECT_LE(stats.answer_weight_y, 4.0);
}

TEST_F(ExtractorFigure1Test, DeterministicUnderSeed) {
  ExtractorOptions options;
  options.seed = 1234;
  const AnswerStatistics a = RunExtractor(options);
  const AnswerStatistics b = RunExtractor(options);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_DOUBLE_EQ(a.mean.value, b.mean.value);
  EXPECT_DOUBLE_EQ(a.mean.ci.lo, b.mean.ci.lo);
  EXPECT_DOUBLE_EQ(a.stability.stab_l2, b.stability.stab_l2);
  EXPECT_DOUBLE_EQ(a.coverage.total_coverage, b.coverage.total_coverage);
}

TEST_F(ExtractorFigure1Test, DifferentSeedsDifferentSamples) {
  ExtractorOptions options_a;
  options_a.seed = 1;
  ExtractorOptions options_b;
  options_b.seed = 2;
  const AnswerStatistics a = RunExtractor(options_a);
  const AnswerStatistics b = RunExtractor(options_b);
  EXPECT_NE(a.samples, b.samples);
}

TEST_F(ExtractorFigure1Test, MeanCiContainsTrueMeanOfOrderAnswers) {
  // The mean of the uniS answer distribution equals the mean over all
  // source permutations; the 90% CI should usually contain it.
  const auto all = EnumerateOrderAnswers(
      sources_, testing::MakeFigure1Query(AggregateKind::kSum));
  ASSERT_TRUE(all.ok());
  const double true_mean = ComputeMoments(*all).mean();
  ExtractorOptions options;
  options.initial_sample_size = 400;
  const AnswerStatistics stats = RunExtractor(options);
  EXPECT_TRUE(stats.mean.ci.Contains(true_mean))
      << "CI [" << stats.mean.ci.lo << ", " << stats.mean.ci.hi
      << "] vs true mean " << true_mean;
}

TEST_F(ExtractorFigure1Test, TimingsPopulated) {
  const AnswerStatistics stats = RunExtractor();
  EXPECT_GT(stats.timings.sampling_seconds, 0.0);
  EXPECT_GT(stats.timings.kde_seconds, 0.0);
  EXPECT_GE(stats.timings.TotalSeconds(),
            stats.timings.sampling_seconds + stats.timings.kde_seconds);
}

TEST(ExtractorTest, AdaptiveSamplingPath) {
  const auto mixture = MakeD2(31);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 30;
  source_options.num_components = 40;
  source_options.seed = 32;
  SourceSet sources = BuildSyntheticSourceSet(*mixture, source_options).value();
  ExtractorOptions options;
  AdaptiveSamplingOptions adaptive;
  adaptive.initial_size = 50;
  adaptive.increment = 50;
  adaptive.max_size = 400;
  adaptive.target_relative_length = 0.002;
  options.adaptive = adaptive;
  options.weight_probes = 10;
  const auto extractor = AnswerStatisticsExtractor::Create(
      &sources, MakeRangeQuery("sum", AggregateKind::kSum, 0, 40), options);
  ASSERT_TRUE(extractor.ok());
  const auto stats = extractor->Extract();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->samples.size(), 50u);
  EXPECT_LE(stats->samples.size(), 400u);
}

TEST(ExtractorTest, MultiModalWorkloadYieldsMultipleIntervals) {
  // Independent redraws from a well-separated mixture make the per-answer
  // distribution multi-modal for small component counts.
  const auto mixture = MakeD2(41);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 40;
  source_options.num_components = 3;
  source_options.min_copies = 4;
  source_options.max_copies = 8;
  source_options.conflict_model = ConflictModel::kIndependentRedraw;
  source_options.seed = 42;
  SourceSet sources = BuildSyntheticSourceSet(*mixture, source_options).value();
  ExtractorOptions options;
  options.initial_sample_size = 400;
  options.weight_probes = 10;
  const auto extractor = AnswerStatisticsExtractor::Create(
      &sources, MakeRangeQuery("sum", AggregateKind::kSum, 0, 3), options);
  ASSERT_TRUE(extractor.ok());
  const auto stats = extractor->Extract();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->coverage.intervals.size(), 2u);
  EXPECT_LT(stats->coverage.total_length_fraction, 0.9);
}

TEST(ExtractorTest, ParallelSamplingPathProducesSaneStatistics) {
  const auto mixture = MakeD2(51);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 30;
  source_options.num_components = 40;
  source_options.seed = 52;
  SourceSet sources = BuildSyntheticSourceSet(*mixture, source_options).value();
  const AggregateQuery query =
      MakeRangeQuery("sum", AggregateKind::kSum, 0, 40);

  ExtractorOptions serial_options;
  serial_options.initial_sample_size = 200;
  serial_options.weight_probes = 10;
  ExtractorOptions parallel_options = serial_options;
  parallel_options.sampling_threads = 4;

  const auto serial = AnswerStatisticsExtractor::Create(&sources, query,
                                                        serial_options)
                          ->Extract();
  const auto parallel = AnswerStatisticsExtractor::Create(&sources, query,
                                                          parallel_options)
                            ->Extract();
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->samples.size(), 200u);
  // Different seed stream than the serial sampler, same distribution: means
  // agree within a few standard errors.
  const double se = std::sqrt(serial->variance.value / 200.0);
  EXPECT_NEAR(parallel->mean.value, serial->mean.value, 6.0 * se);
  // Invalid thread counts are rejected.
  ExtractorOptions bad = serial_options;
  bad.sampling_threads = -2;
  EXPECT_FALSE(
      AnswerStatisticsExtractor::Create(&sources, query, bad).ok());
}

TEST(ExtractorTest, ResolveSamplingThreads) {
  EXPECT_EQ(ResolveSamplingThreads(1, 8), 1);
  EXPECT_EQ(ResolveSamplingThreads(3, 1), 3);
  EXPECT_EQ(ResolveSamplingThreads(0, 8), 8);
  EXPECT_EQ(ResolveSamplingThreads(0, 1), 1);
  // hardware_concurrency() may legitimately report 0 ("unknown").
  EXPECT_EQ(ResolveSamplingThreads(0, 0), 1);
}

TEST(ExtractorTest, ParallelSamplingIsThreadCountInvariant) {
  // Every draw reads its own keyed stream, so Extract() gets the same bits
  // for every thread count, with or without a pool attached.
  const auto mixture = MakeD2(53);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 30;
  source_options.num_components = 40;
  source_options.seed = 54;
  SourceSet sources = BuildSyntheticSourceSet(*mixture, source_options).value();
  const AggregateQuery query =
      MakeRangeQuery("sum", AggregateKind::kSum, 0, 40);

  ExtractorOptions base;
  base.initial_sample_size = 200;
  base.weight_probes = 10;
  base.sampling_threads = 2;
  const auto reference =
      AnswerStatisticsExtractor::Create(&sources, query, base)->Extract();
  ASSERT_TRUE(reference.ok());

  ExtractorOptions four = base;
  four.sampling_threads = 4;
  const auto with_four =
      AnswerStatisticsExtractor::Create(&sources, query, four)->Extract();
  ASSERT_TRUE(with_four.ok());
  EXPECT_EQ(with_four->samples, reference->samples);
  EXPECT_EQ(with_four->mean.value, reference->mean.value);

  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  ExtractorOptions pooled = four;
  pooled.pool = &pool;
  const auto with_pool =
      AnswerStatisticsExtractor::Create(&sources, query, pooled)->Extract();
  ASSERT_TRUE(with_pool.ok());
  EXPECT_EQ(with_pool->samples, reference->samples);
  // The whole pipeline — not just sampling — is pool-invariant.
  EXPECT_EQ(with_pool->mean.value, reference->mean.value);
  EXPECT_EQ(with_pool->variance.value, reference->variance.value);
  EXPECT_EQ(with_pool->skewness.value, reference->skewness.value);
  const auto reference_density = reference->density.values();
  const auto pooled_density = with_pool->density.values();
  ASSERT_EQ(pooled_density.size(), reference_density.size());
  for (size_t i = 0; i < reference_density.size(); ++i) {
    EXPECT_EQ(pooled_density[i], reference_density[i]);
  }
}

TEST(ExtractorTest, ResolvedSingleWorkerUsesTheSerialSampler) {
  // sampling_threads = 0 resolves to the hardware concurrency. Every width
  // draws the one keyed sample stream, so it reproduces sampling_threads =
  // 1 exactly on any host.
  const auto mixture = MakeD2(55);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 30;
  source_options.num_components = 40;
  source_options.seed = 56;
  SourceSet sources = BuildSyntheticSourceSet(*mixture, source_options).value();
  const AggregateQuery query =
      MakeRangeQuery("sum", AggregateKind::kSum, 0, 40);

  ExtractorOptions serial;
  serial.initial_sample_size = 150;
  serial.weight_probes = 10;
  serial.sampling_threads = 1;
  ExtractorOptions zero = serial;
  zero.sampling_threads = 0;
  const auto one =
      AnswerStatisticsExtractor::Create(&sources, query, serial)->Extract();
  const auto resolved =
      AnswerStatisticsExtractor::Create(&sources, query, zero)->Extract();
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved->samples, one->samples);
  EXPECT_EQ(resolved->mean.value, one->mean.value);
}

TEST(ExtractorTest, QuantileAggregateEndToEnd) {
  SourceSet sources = testing::MakeFigure1Sources();
  AggregateQuery query = testing::MakeFigure1Query(AggregateKind::kQuantile);
  query.quantile_q = 0.8;
  ExtractorOptions options;
  options.initial_sample_size = 150;
  options.weight_probes = 5;
  options.kde.rule = BandwidthRule::kSilverman;
  const auto extractor =
      AnswerStatisticsExtractor::Create(&sources, query, options);
  ASSERT_TRUE(extractor.ok());
  const auto stats = extractor->Extract();
  ASSERT_TRUE(stats.ok());
  // 0.8-quantiles of the Figure 1 values lie within the value range.
  EXPECT_GT(stats->mean.value, 15.0);
  EXPECT_LT(stats->mean.value, 22.0);
}

class ExtractorCiMethodSweep : public ::testing::TestWithParam<CiMethod> {};

TEST_P(ExtractorCiMethodSweep, AllMethodsProduceOrderedFiniteIntervals) {
  SourceSet sources = testing::MakeFigure1Sources();
  ExtractorOptions options;
  options.initial_sample_size = 150;
  options.weight_probes = 5;
  options.ci_method = GetParam();
  options.kde.rule = BandwidthRule::kSilverman;
  const auto extractor = AnswerStatisticsExtractor::Create(
      &sources, testing::MakeFigure1Query(AggregateKind::kSum), options);
  ASSERT_TRUE(extractor.ok());
  const auto stats = extractor->Extract();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  for (const PointEstimate* estimate :
       {&stats->mean, &stats->variance, &stats->std_dev, &stats->skewness}) {
    EXPECT_LE(estimate->ci.lo, estimate->ci.hi);
    EXPECT_TRUE(std::isfinite(estimate->ci.lo));
    EXPECT_TRUE(std::isfinite(estimate->ci.hi));
    EXPECT_DOUBLE_EQ(estimate->ci.level, 0.90);
  }
  // Viable sums live in [89, 96]; any sane mean CI does too.
  EXPECT_GT(stats->mean.ci.lo, 85.0);
  EXPECT_LT(stats->mean.ci.hi, 99.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, ExtractorCiMethodSweep,
                         ::testing::Values(CiMethod::kNormal,
                                           CiMethod::kPercentile,
                                           CiMethod::kBasic, CiMethod::kBca));

TEST(ExtractorTest, ExtractFromSamplesSkipsSampling) {
  SourceSet sources = testing::MakeFigure1Sources();
  const auto extractor = AnswerStatisticsExtractor::Create(
      &sources, testing::MakeFigure1Query(AggregateKind::kSum),
      ExtractorOptions{});
  ASSERT_TRUE(extractor.ok());
  std::vector<double> fake_samples = testing::NormalSample(100, 7, 92.0, 1.0);
  const auto stats = extractor->ExtractFromSamples(fake_samples);
  ASSERT_TRUE(stats.ok());
  EXPECT_DOUBLE_EQ(stats->timings.sampling_seconds, 0.0);
  EXPECT_NEAR(stats->mean.value, 92.0, 0.5);
  // Too few samples is rejected.
  std::vector<double> tiny = {1, 2, 3};
  EXPECT_FALSE(extractor->ExtractFromSamples(tiny).ok());
}

}  // namespace
}  // namespace vastats
