#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "datagen/source_builder.h"
#include "datagen/fault_model.h"
#include "datagen/source_accessor.h"
#include "stats/aggregate_query.h"
#include "sampling/adaptive.h"
#include "sampling/parallel.h"
#include "sampling/unis.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

using ::vastats::testing::MakeFigure1Query;
using ::vastats::testing::MakeFigure1Sources;

// Three disjoint sources: each component is bound exactly once, so any
// partial draw's aggregate is an exact function of which sources answered.
// Excluding C leaves components {1, 2, 3, 4} with values {1, 2, 3, 4}.
SourceSet MakePartitionSources() {
  SourceSet set;
  DataSource a("A");
  a.Bind(1, 1.0);
  a.Bind(2, 2.0);
  DataSource b("B");
  b.Bind(3, 3.0);
  b.Bind(4, 4.0);
  DataSource c("C");
  c.Bind(5, 100.0);
  set.AddSource(std::move(a));
  set.AddSource(std::move(b));
  set.AddSource(std::move(c));
  return set;
}

AggregateQuery PartitionQuery(AggregateKind kind) {
  AggregateQuery query;
  query.name = "partition";
  query.kind = kind;
  query.components = {1, 2, 3, 4, 5};
  return query;
}

struct PartialCase {
  AggregateKind kind;
  double expected;  // aggregate over {1, 2, 3, 4} with source C excluded
};

// Satellite: partially-covered draws must finalize to the exact aggregate
// of the covered subset for all five paper aggregates — MEDIAN (holistic)
// and VARIANCE (population, Eq. 1.1-style) included.
TEST(PartialCoverageTest, FiveAggregatesFinalizeExactlyOverCoveredSubset) {
  const PartialCase cases[] = {
      {AggregateKind::kSum, 10.0},     {AggregateKind::kAverage, 2.5},
      {AggregateKind::kCount, 4.0},    {AggregateKind::kVariance, 1.25},
      {AggregateKind::kMedian, 2.5},
  };
  const SourceSet set = MakePartitionSources();
  const std::vector<char> excluded = {0, 0, 1};  // drop C -> coverage 4/5
  for (const PartialCase& c : cases) {
    UniSOptions options;
    options.require_full_coverage = false;
    const auto sampler =
        UniSSampler::Create(&set, PartitionQuery(c.kind), options);
    ASSERT_TRUE(sampler.ok());
    Rng rng(99);
    const auto sample = sampler->SampleOne(rng, excluded);
    ASSERT_TRUE(sample.ok());
    EXPECT_TRUE(sample->value_valid);
    EXPECT_DOUBLE_EQ(sample->coverage, 0.8);
    EXPECT_DOUBLE_EQ(sample->value, c.expected);
    EXPECT_EQ(sample->sources_contributing, 2);
  }
}

TEST(PartialCoverageTest, DegradedDrawMatchesExactSubsetAggregates) {
  const PartialCase cases[] = {
      {AggregateKind::kSum, 10.0},     {AggregateKind::kAverage, 2.5},
      {AggregateKind::kCount, 4.0},    {AggregateKind::kVariance, 1.25},
      {AggregateKind::kMedian, 2.5},
  };
  const SourceSet set = MakePartitionSources();
  const std::vector<char> excluded = {0, 0, 1};
  const auto accessor = SourceAccessor::Create(3, nullptr);
  ASSERT_TRUE(accessor.ok());
  for (const PartialCase& c : cases) {
    const auto sampler = UniSSampler::Create(&set, PartitionQuery(c.kind));
    ASSERT_TRUE(sampler.ok());
    AccessSession session = accessor->StartSession();
    Rng rng(99);
    session.BeginNextDraw();
    const auto sample = sampler->SampleOneDegraded(rng, session, excluded);
    ASSERT_TRUE(sample.ok());
    EXPECT_TRUE(sample->value_valid);
    EXPECT_DOUBLE_EQ(sample->coverage, 0.8);
    EXPECT_DOUBLE_EQ(sample->value, c.expected);
  }
}

TEST(DegradedSamplingTest, ZeroCoverageDrawIsInvalidAndBatchDropsIt) {
  const SourceSet set = MakeFigure1Sources();
  FaultModelOptions fault;
  fault.outage_fraction = 1.0;  // every source dark from epoch 0
  fault.outage_epoch = 0;
  const auto model = FaultModel::Create(4, fault);
  ASSERT_TRUE(model.ok());
  RetryPolicy retry;
  retry.max_attempts = 2;
  const auto accessor = SourceAccessor::Create(4, &*model, retry);
  ASSERT_TRUE(accessor.ok());
  const auto sampler =
      UniSSampler::Create(&set, MakeFigure1Query(AggregateKind::kAverage));
  ASSERT_TRUE(sampler.ok());

  AccessSession one_session = accessor->StartSession();
  Rng rng(3);
  one_session.BeginNextDraw();
  const auto sample = sampler->SampleOneDegraded(rng, one_session);
  ASSERT_TRUE(sample.ok());
  EXPECT_FALSE(sample->value_valid);
  EXPECT_DOUBLE_EQ(sample->coverage, 0.0);
  EXPECT_GT(sample->sources_failed + sample->sources_skipped_open, 0);

  AccessSession batch_session = accessor->StartSession();
  const auto batch =
      sampler->SampleDegraded(16, /*seed=*/3, batch_session);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
  const AccessStats stats = batch_session.Finish();
  EXPECT_GT(stats.failed_visits, 0u);
}

TEST(DegradedSamplingTest, NullModelDegradedMatchesPlainSampler) {
  const SourceSet set = MakeFigure1Sources();
  const auto sampler =
      UniSSampler::Create(&set, MakeFigure1Query(AggregateKind::kAverage));
  ASSERT_TRUE(sampler.ok());
  const auto accessor = SourceAccessor::Create(4, nullptr);
  ASSERT_TRUE(accessor.ok());
  AccessSession session = accessor->StartSession();
  Rng plain_rng(12345);
  Rng degraded_rng(12345);
  for (int draw = 0; draw < 32; ++draw) {
    const auto plain = sampler->SampleOne(plain_rng);
    ASSERT_TRUE(plain.ok());
    session.BeginNextDraw();
    const auto degraded = sampler->SampleOneDegraded(degraded_rng, session);
    ASSERT_TRUE(degraded.ok());
    EXPECT_TRUE(degraded->value_valid);
    EXPECT_DOUBLE_EQ(degraded->value, plain->value);
    EXPECT_DOUBLE_EQ(degraded->coverage, plain->coverage);
    EXPECT_EQ(degraded->sources_visited, plain->sources_visited);
    EXPECT_EQ(degraded->sources_contributing, plain->sources_contributing);
  }
}

// A chaos run's kept values, coverages, dropped count, and merged access
// telemetry are bit-identical across serial execution, call-scoped pools
// (4/16 workers), and persistent pools (1/4/16 threads).
TEST(ParallelFaultDeterminismTest, ChaosRunIsBitIdenticalAcrossWidths) {
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 30;
  source_options.num_components = 60;
  source_options.min_copies = 3;
  source_options.max_copies = 5;
  source_options.seed = 51;
  const auto d2 = MakeD2(7);
  const auto set = BuildSyntheticSourceSet(*d2, source_options);
  ASSERT_TRUE(set.ok());
  const auto sampler = UniSSampler::Create(
      &*set, MakeRangeQuery("chaos", AggregateKind::kAverage, 0, 60));
  ASSERT_TRUE(sampler.ok());

  FaultModelOptions fault;
  fault.transient_failure_prob = 0.2;
  fault.failure_spread_sigma = 0.5;
  fault.corrupt_value_prob = 0.05;
  fault.latency_jitter_sigma = 0.3;
  fault.outage_fraction = 0.2;
  fault.outage_epoch = 128;
  fault.seed = 4242;
  const auto model = FaultModel::Create(30, fault);
  ASSERT_TRUE(model.ok());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff_base_ms = 2.0;
  const auto accessor = SourceAccessor::Create(30, &*model, retry);
  ASSERT_TRUE(accessor.ok());

  ParallelSampleOptions base;
  base.seed = 0xc0ffee;
  base.chunk_draws = 64;
  base.num_threads = 1;
  const auto reference =
      ParallelUniSSampleWithFaults(*sampler, 256, *accessor, 0.3, base);
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference->values.empty());
  EXPECT_EQ(reference->values.size(), reference->coverages.size());
  EXPECT_GT(reference->access.visits, 0u);

  const auto expect_identical = [&](const FaultAwareSampleResult& got) {
    ASSERT_EQ(got.values.size(), reference->values.size());
    for (size_t i = 0; i < got.values.size(); ++i) {
      EXPECT_DOUBLE_EQ(got.values[i], reference->values[i]);
      EXPECT_DOUBLE_EQ(got.coverages[i], reference->coverages[i]);
    }
    EXPECT_EQ(got.dropped_draws, reference->dropped_draws);
    EXPECT_EQ(got.access.visits, reference->access.visits);
    EXPECT_EQ(got.access.attempts, reference->access.attempts);
    EXPECT_EQ(got.access.retries, reference->access.retries);
    EXPECT_EQ(got.access.transient_failures,
              reference->access.transient_failures);
    EXPECT_EQ(got.access.failed_visits, reference->access.failed_visits);
    EXPECT_EQ(got.access.breaker_open_skips,
              reference->access.breaker_open_skips);
    EXPECT_EQ(got.access.corrupt_values_rejected,
              reference->access.corrupt_values_rejected);
    EXPECT_EQ(got.access.breaker_transitions,
              reference->access.breaker_transitions);
    EXPECT_DOUBLE_EQ(got.access.virtual_ms, reference->access.virtual_ms);
    EXPECT_DOUBLE_EQ(got.access.backoff_ms, reference->access.backoff_ms);
    EXPECT_EQ(got.access.breaker_severity, reference->access.breaker_severity);
  };

  for (const int threads : {4, 16}) {
    ParallelSampleOptions options = base;
    options.num_threads = threads;
    const auto result =
        ParallelUniSSampleWithFaults(*sampler, 256, *accessor, 0.3, options);
    ASSERT_TRUE(result.ok());
    expect_identical(*result);
  }
  for (const int pool_threads : {1, 4, 16}) {
    ThreadPool pool(ThreadPoolOptions{pool_threads});
    ParallelSampleOptions options = base;
    options.pool = &pool;
    const auto result =
        ParallelUniSSampleWithFaults(*sampler, 256, *accessor, 0.3, options);
    ASSERT_TRUE(result.ok());
    expect_identical(*result);
  }
}

TEST(ParallelFaultDeterminismTest, RejectsBadArguments) {
  const SourceSet set = MakeFigure1Sources();
  const auto sampler =
      UniSSampler::Create(&set, MakeFigure1Query(AggregateKind::kAverage));
  ASSERT_TRUE(sampler.ok());
  const auto accessor = SourceAccessor::Create(4, nullptr);
  ASSERT_TRUE(accessor.ok());
  ParallelSampleOptions options;
  options.num_threads = 1;
  EXPECT_FALSE(
      ParallelUniSSampleWithFaults(*sampler, 0, *accessor, 0.5, options).ok());
  EXPECT_FALSE(
      ParallelUniSSampleWithFaults(*sampler, 8, *accessor, 1.5, options).ok());
  // An accessor narrower than the source set cannot cover its visits.
  const auto narrow = SourceAccessor::Create(2, nullptr);
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(
      ParallelUniSSampleWithFaults(*sampler, 8, *narrow, 0.5, options).ok());
}

TEST(AdaptiveDegradedTest, ReportsCoveragesAndRequestedDraws) {
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 20;
  source_options.num_components = 30;
  source_options.min_copies = 3;
  source_options.max_copies = 5;
  source_options.seed = 9;
  const auto d2 = MakeD2(11);
  const auto set = BuildSyntheticSourceSet(*d2, source_options);
  ASSERT_TRUE(set.ok());
  const auto sampler = UniSSampler::Create(
      &*set, MakeRangeQuery("adaptive", AggregateKind::kAverage, 0, 30));
  ASSERT_TRUE(sampler.ok());

  FaultModelOptions fault;
  fault.transient_failure_prob = 0.3;
  fault.seed = 5;
  const auto model = FaultModel::Create(20, fault);
  ASSERT_TRUE(model.ok());
  const auto accessor = SourceAccessor::Create(20, &*model);
  ASSERT_TRUE(accessor.ok());
  AccessSession session = accessor->StartSession();

  AdaptiveSamplingOptions options;
  options.initial_size = 40;
  options.increment = 20;
  options.max_size = 120;
  options.target_ci_length = 1e6;  // satisfied after the first check
  const auto result = AdaptiveUniSSamplingDegraded(
      *sampler, options, session, 0.5, /*seed=*/88);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied);
  EXPECT_EQ(result->coverages.size(), result->samples.size());
  EXPECT_GE(result->draws_requested,
            static_cast<int>(result->samples.size()) + result->dropped_draws);
  for (const double coverage : result->coverages) {
    EXPECT_GE(coverage, 0.5);
    EXPECT_LE(coverage, 1.0);
  }
}

TEST(AdaptiveDegradedTest, FailsWhenNoUsableDrawsExist) {
  const SourceSet set = MakeFigure1Sources();
  const auto sampler =
      UniSSampler::Create(&set, MakeFigure1Query(AggregateKind::kAverage));
  ASSERT_TRUE(sampler.ok());
  FaultModelOptions fault;
  fault.outage_fraction = 1.0;
  fault.outage_epoch = 0;
  const auto model = FaultModel::Create(4, fault);
  ASSERT_TRUE(model.ok());
  const auto accessor = SourceAccessor::Create(4, &*model);
  ASSERT_TRUE(accessor.ok());
  AccessSession session = accessor->StartSession();
  AdaptiveSamplingOptions options;
  options.initial_size = 8;
  options.increment = 8;
  options.max_size = 32;
  options.target_ci_length = 1.0;
  const auto result = AdaptiveUniSSamplingDegraded(
      *sampler, options, session, 0.5, /*seed=*/88);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace vastats
