#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "datagen/distributions.h"
#include "datagen/source_builder.h"
#include "datagen/fault_model.h"
#include "obs/metrics.h"
#include "stats/aggregate_query.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

using ::vastats::testing::MakeFigure1Query;
using ::vastats::testing::MakeFigure1Sources;

// A redundant synthetic universe: with >= 3 copies per component, a partial
// outage leaves every component reachable through a live source.
Result<SourceSet> BuildRedundantSources(uint64_t seed) {
  SyntheticSourceSetOptions options;
  options.num_sources = 30;
  options.num_components = 60;
  options.min_copies = 3;
  options.max_copies = 5;
  options.seed = seed;
  const auto d2 = MakeD2(seed + 1);
  return BuildSyntheticSourceSet(*d2, options);
}

ExtractorOptions FastOptions() {
  ExtractorOptions options;
  options.initial_sample_size = 96;
  options.bootstrap.num_sets = 20;
  options.weight_probes = 5;
  options.seed = 2024;
  return options;
}

TEST(ExtractorChaosTest, DefaultPathReportsNoDegradation) {
  const SourceSet set = MakeFigure1Sources();
  const auto extractor = AnswerStatisticsExtractor::Create(
      &set, MakeFigure1Query(AggregateKind::kAverage), FastOptions());
  ASSERT_TRUE(extractor.ok());
  const auto stats = extractor->Extract();
  ASSERT_TRUE(stats.ok());
  // Zero-overhead default: no fault_tolerance means the seam never ran and
  // the report is the default-constructed "never degraded" value.
  EXPECT_FALSE(stats->degradation.degraded);
  EXPECT_EQ(stats->degradation.draws_requested, 0);
  EXPECT_EQ(stats->degradation.draws_kept, 0);
  EXPECT_DOUBLE_EQ(stats->degradation.min_coverage, 1.0);
  EXPECT_EQ(stats->degradation.access.visits, 0u);
}

TEST(ExtractorChaosTest, PartialOutageDegradesButExtracts) {
  const auto set = BuildRedundantSources(51);
  ASSERT_TRUE(set.ok());
  FaultModelOptions fault_options;
  fault_options.transient_failure_prob = 0.15;
  fault_options.corrupt_value_prob = 0.02;
  fault_options.outage_fraction = 0.2;
  fault_options.outage_epoch = 16;
  fault_options.seed = 31337;
  const auto model = FaultModel::Create(30, fault_options);
  ASSERT_TRUE(model.ok());

  const auto extract =
      [&](const FaultModel* fault_model,
          MetricsRegistry* metrics) -> Result<AnswerStatistics> {
    ExtractorOptions options = FastOptions();
    options.obs.metrics = metrics;
    FaultToleranceOptions fault;
    fault.model = fault_model;
    fault.min_draw_coverage = 0.4;
    options.fault_tolerance = fault;
    VASTATS_ASSIGN_OR_RETURN(
        const AnswerStatisticsExtractor extractor,
        AnswerStatisticsExtractor::Create(
            &*set, MakeRangeQuery("chaos", AggregateKind::kAverage, 0, 60),
            options));
    return extractor.Extract();
  };

  // The seam with a null model is plumbing only: every visit succeeds.
  const auto null_seam = extract(nullptr, nullptr);
  ASSERT_TRUE(null_seam.ok());
  EXPECT_FALSE(null_seam->degradation.degraded);
  EXPECT_EQ(null_seam->degradation.draws_dropped, 0);
  EXPECT_EQ(null_seam->degradation.min_coverage, 1.0);

  MetricsRegistry metrics;
  const auto stats = extract(&*model, &metrics);
  ASSERT_TRUE(stats.ok());

  const DegradationReport& report = stats->degradation;
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.draws_requested, 96);
  EXPECT_EQ(report.draws_kept, static_cast<int>(stats->samples.size()));
  EXPECT_EQ(report.draws_requested, report.draws_kept + report.draws_dropped);
  EXPECT_GE(report.draws_kept, 8);
  EXPECT_GT(report.min_coverage, 0.0);
  EXPECT_LE(report.min_coverage, report.mean_coverage);
  EXPECT_LE(report.mean_coverage, 1.0);
  EXPECT_GT(report.access.visits, 0u);
  EXPECT_GT(report.access.retries, 0u);
  EXPECT_GT(report.access.transient_failures, 0u);
  // The scheduled outage trips breakers open, and open breakers skip visits.
  EXPECT_GT(report.access.SourcesOpen(), 0);
  EXPECT_GT(report.access.breaker_open_skips, 0u);
  const MetricsSnapshot snapshot = metrics.Snapshot();
  ASSERT_NE(snapshot.FindCounter("extract_degraded_total"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("extract_degraded_total")->value, 1u);
  ASSERT_NE(snapshot.FindCounter("source_access_visits_total"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("source_access_visits_total")->value,
            report.access.visits);
  // The point estimates still came out of the usual pipeline.
  EXPECT_TRUE(std::isfinite(stats->mean.value));
  EXPECT_GT(stats->mean.ci.hi, stats->mean.ci.lo);
}

TEST(ExtractorChaosTest, ChaosExtractionIsBitIdenticalAcrossWidths) {
  const auto set = BuildRedundantSources(51);
  ASSERT_TRUE(set.ok());
  FaultModelOptions fault_options;
  fault_options.transient_failure_prob = 0.2;
  fault_options.failure_spread_sigma = 0.5;
  fault_options.corrupt_value_prob = 0.05;
  fault_options.latency_jitter_sigma = 0.3;
  fault_options.outage_fraction = 0.2;
  fault_options.outage_epoch = 32;
  fault_options.seed = 777;
  const auto model = FaultModel::Create(30, fault_options);
  ASSERT_TRUE(model.ok());

  const auto extract_with = [&](int sampling_threads,
                                ThreadPool* pool) -> Result<AnswerStatistics> {
    ExtractorOptions options = FastOptions();
    FaultToleranceOptions fault;
    fault.model = &*model;
    fault.min_draw_coverage = 0.3;
    options.fault_tolerance = fault;
    options.sampling_threads = sampling_threads;
    options.pool = pool;
    VASTATS_ASSIGN_OR_RETURN(
        const AnswerStatisticsExtractor extractor,
        AnswerStatisticsExtractor::Create(
            &*set, MakeRangeQuery("chaos", AggregateKind::kAverage, 0, 60),
            options));
    return extractor.Extract();
  };

  const auto reference = extract_with(1, nullptr);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->degradation.degraded);

  const auto expect_identical = [&](const AnswerStatistics& got) {
    ASSERT_EQ(got.samples.size(), reference->samples.size());
    for (size_t i = 0; i < got.samples.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.samples[i], reference->samples[i]);
    }
    EXPECT_DOUBLE_EQ(got.mean.value, reference->mean.value);
    const DegradationReport& a = got.degradation;
    const DegradationReport& b = reference->degradation;
    EXPECT_EQ(a.draws_requested, b.draws_requested);
    EXPECT_EQ(a.draws_kept, b.draws_kept);
    EXPECT_EQ(a.draws_dropped, b.draws_dropped);
    EXPECT_DOUBLE_EQ(a.min_coverage, b.min_coverage);
    EXPECT_DOUBLE_EQ(a.mean_coverage, b.mean_coverage);
    EXPECT_EQ(a.access.visits, b.access.visits);
    EXPECT_EQ(a.access.attempts, b.access.attempts);
    EXPECT_EQ(a.access.retries, b.access.retries);
    EXPECT_EQ(a.access.failed_visits, b.access.failed_visits);
    EXPECT_EQ(a.access.breaker_open_skips, b.access.breaker_open_skips);
    EXPECT_EQ(a.access.corrupt_values_rejected,
              b.access.corrupt_values_rejected);
    EXPECT_DOUBLE_EQ(a.access.virtual_ms, b.access.virtual_ms);
    EXPECT_EQ(a.access.breaker_severity, b.access.breaker_severity);
  };

  for (const int threads : {4, 16}) {
    const auto got = extract_with(threads, nullptr);
    ASSERT_TRUE(got.ok());
    expect_identical(*got);
  }
  for (const int pool_threads : {1, 4, 16}) {
    ThreadPool pool(ThreadPoolOptions{pool_threads});
    const auto got = extract_with(1, &pool);
    ASSERT_TRUE(got.ok());
    expect_identical(*got);
  }
}

TEST(ExtractorChaosTest, TotalOutageFailsWithClearError) {
  const SourceSet set = MakeFigure1Sources();
  FaultModelOptions fault_options;
  fault_options.outage_fraction = 1.0;
  fault_options.outage_epoch = 0;
  const auto model = FaultModel::Create(4, fault_options);
  ASSERT_TRUE(model.ok());
  ExtractorOptions options = FastOptions();
  FaultToleranceOptions fault;
  fault.model = &*model;
  options.fault_tolerance = fault;
  const auto extractor = AnswerStatisticsExtractor::Create(
      &set, MakeFigure1Query(AggregateKind::kAverage), options);
  ASSERT_TRUE(extractor.ok());
  const auto stats = extractor->Extract();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExtractorChaosTest, FaultToleranceOptionsAreValidated) {
  const SourceSet set = MakeFigure1Sources();
  ExtractorOptions options = FastOptions();
  FaultToleranceOptions fault;
  fault.min_draw_coverage = 1.5;
  options.fault_tolerance = fault;
  EXPECT_FALSE(AnswerStatisticsExtractor::Create(
                   &set, MakeFigure1Query(AggregateKind::kAverage), options)
                   .ok());
  options.fault_tolerance->min_draw_coverage = 0.5;
  options.fault_tolerance->retry.max_attempts = 0;
  EXPECT_FALSE(AnswerStatisticsExtractor::Create(
                   &set, MakeFigure1Query(AggregateKind::kAverage), options)
                   .ok());
}

TEST(ExtractorChaosTest, AdaptiveDegradedPathPopulatesReport) {
  const auto set = BuildRedundantSources(77);
  ASSERT_TRUE(set.ok());
  FaultModelOptions fault_options;
  fault_options.transient_failure_prob = 0.2;
  fault_options.seed = 99;
  const auto model = FaultModel::Create(30, fault_options);
  ASSERT_TRUE(model.ok());
  ExtractorOptions options = FastOptions();
  AdaptiveSamplingOptions adaptive;
  adaptive.initial_size = 48;
  adaptive.increment = 24;
  adaptive.max_size = 144;
  adaptive.target_ci_length = 1e6;  // met after the first round
  options.adaptive = adaptive;
  FaultToleranceOptions fault;
  fault.model = &*model;
  options.fault_tolerance = fault;
  const auto extractor = AnswerStatisticsExtractor::Create(
      &*set, MakeRangeQuery("adaptive_chaos", AggregateKind::kAverage, 0, 60),
      options);
  ASSERT_TRUE(extractor.ok());
  const auto stats = extractor->Extract();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->degradation.draws_requested,
            static_cast<int>(stats->samples.size()));
  EXPECT_EQ(stats->degradation.draws_kept,
            static_cast<int>(stats->samples.size()));
  EXPECT_GT(stats->degradation.access.visits, 0u);
}

}  // namespace
}  // namespace vastats
