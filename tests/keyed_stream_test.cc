// The keyed-stream contract (util/random.h, sampling/parallel.h): uniS draw
// i reads its own stream keyed by (seed, kUniSDraw, i), so an extraction's
// samples, and everything computed from them, are identical at every
// sampling width, with or without a pool, at every chunk size, and an
// adaptive run's draws extend a fixed run's. Named so that the sanitizer
// job's thread filter picks the suite up.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "datagen/distributions.h"
#include "datagen/fault_model.h"
#include "datagen/source_builder.h"
#include "sampling/adaptive.h"
#include "sampling/parallel.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

// 30 sources over 60 components, every component bound 3-5 times.
SourceSet MakeSources() {
  SyntheticSourceSetOptions options;
  options.num_sources = 30;
  options.num_components = 60;
  options.min_copies = 3;
  options.max_copies = 5;
  options.seed = 71;
  return BuildSyntheticSourceSet(*MakeD2(72), options).value();
}

AggregateQuery MakeQuery() {
  return MakeRangeQuery("keyed", AggregateKind::kAverage, 0, 60);
}

ExtractorOptions SmallOptions() {
  ExtractorOptions options;
  options.initial_sample_size = 150;
  options.bootstrap.num_sets = 12;
  options.kde.grid_size = 256;
  options.weight_probes = 6;
  options.seed = 0x6b657965;
  return options;
}

FaultModelOptions ChaosFaults() {
  FaultModelOptions faults;
  faults.transient_failure_prob = 0.2;
  faults.failure_spread_sigma = 0.5;
  faults.corrupt_value_prob = 0.05;
  faults.latency_jitter_sigma = 0.3;
  faults.seed = 4343;
  return faults;
}

Result<AnswerStatistics> ExtractWith(const SourceSet& sources,
                                     ExtractorOptions options) {
  VASTATS_ASSIGN_OR_RETURN(
      const AnswerStatisticsExtractor extractor,
      AnswerStatisticsExtractor::Create(&sources, MakeQuery(), options));
  return extractor.Extract();
}

// Bitwise equality over every seeded result field (timings excluded).
void ExpectSameAnswer(const AnswerStatistics& got,
                      const AnswerStatistics& want) {
  EXPECT_EQ(got.samples, want.samples);
  EXPECT_EQ(got.mean.value, want.mean.value);
  EXPECT_EQ(got.mean.ci.lo, want.mean.ci.lo);
  EXPECT_EQ(got.mean.ci.hi, want.mean.ci.hi);
  EXPECT_EQ(got.std_dev.value, want.std_dev.value);
  EXPECT_EQ(got.skewness.value, want.skewness.value);
  EXPECT_TRUE(
      std::ranges::equal(got.density.values(), want.density.values()));
  EXPECT_EQ(got.coverage.total_coverage, want.coverage.total_coverage);
  EXPECT_EQ(got.stability.stab_l2, want.stability.stab_l2);
  EXPECT_EQ(got.answer_weight_y, want.answer_weight_y);
  const DegradationReport& a = got.degradation;
  const DegradationReport& b = want.degradation;
  EXPECT_EQ(a.draws_kept, b.draws_kept);
  EXPECT_EQ(a.draws_dropped, b.draws_dropped);
  EXPECT_EQ(a.mean_coverage, b.mean_coverage);
  EXPECT_EQ(a.access.visits, b.access.visits);
  EXPECT_EQ(a.access.attempts, b.access.attempts);
  EXPECT_EQ(a.access.failed_visits, b.access.failed_visits);
  EXPECT_EQ(a.access.corrupt_values_rejected, b.access.corrupt_values_rejected);
  EXPECT_EQ(a.access.virtual_ms, b.access.virtual_ms);
  EXPECT_EQ(a.access.breaker_severity, b.access.breaker_severity);
}

// Runs `options` at sampling widths 1/2/4/16 without a pool and on pools of
// 1 and 4 workers, expecting one answer throughout.
void ExpectWidthInvariant(const SourceSet& sources,
                          const ExtractorOptions& options) {
  ExtractorOptions serial = options;
  serial.sampling_threads = 1;
  const auto want = ExtractWith(sources, serial);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (const int threads : {2, 4, 16}) {
    ExtractorOptions wide = options;
    wide.sampling_threads = threads;
    const auto got = ExtractWith(sources, wide);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    SCOPED_TRACE(threads);
    ExpectSameAnswer(*got, *want);
  }
  for (const int workers : {1, 4}) {
    ThreadPool pool(ThreadPoolOptions{.num_threads = workers});
    ExtractorOptions pooled = options;
    pooled.sampling_threads = 4;
    pooled.pool = &pool;
    const auto got = ExtractWith(sources, pooled);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    SCOPED_TRACE(workers);
    ExpectSameAnswer(*got, *want);
  }
}

TEST(KeyedStreamDeterminismTest, ExtractIsIdenticalAtEveryWidthAndPool) {
  const SourceSet sources = MakeSources();
  ExpectWidthInvariant(sources, SmallOptions());
}

TEST(KeyedStreamDeterminismTest, ChaosExtractIsIdenticalAtEveryWidthAndPool) {
  const SourceSet sources = MakeSources();
  FaultModelOptions faults = ChaosFaults();
  faults.outage_fraction = 0.3;
  faults.outage_epoch = 40;
  const FaultModel model = FaultModel::Create(30, faults).value();
  ExtractorOptions options = SmallOptions();
  FaultToleranceOptions fault;
  fault.model = &model;
  fault.min_draw_coverage = 0.5;
  options.fault_tolerance = fault;
  const auto chaos = ExtractWith(sources, options);
  ASSERT_TRUE(chaos.ok());
  ASSERT_TRUE(chaos->degradation.degraded);
  ASSERT_GT(chaos->degradation.access.breaker_transitions, 0u);
  ExpectWidthInvariant(sources, options);
}

TEST(KeyedStreamDeterminismTest, SamplesDoNotDependOnTheChunkSize) {
  const SourceSet sources = MakeSources();
  const ExtractorOptions options = SmallOptions();
  const auto extracted = ExtractWith(sources, options);
  ASSERT_TRUE(extracted.ok());
  const UniSSampler sampler =
      UniSSampler::Create(&sources, MakeQuery()).value();
  ThreadPool pool(ThreadPoolOptions{.num_threads = 4});
  for (const int chunk_draws : {1, 8, 64}) {
    for (ThreadPool* dispatch : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ParallelSampleOptions parallel;
      parallel.num_threads = 4;
      parallel.seed = options.seed;
      parallel.chunk_draws = chunk_draws;
      parallel.pool = dispatch;
      const auto samples =
          ParallelUniSSample(sampler, options.initial_sample_size, parallel);
      ASSERT_TRUE(samples.ok());
      EXPECT_EQ(*samples, extracted->samples) << "chunk_draws " << chunk_draws;
    }
  }
}

TEST(KeyedStreamDeterminismTest, ChaosSamplesDoNotDependOnTheChunkSize) {
  // Breaker state and the session budget live in one chunk's session, so a
  // chunk size can only matter through them: with a breaker that cannot
  // trip and no session budget, every chunk size gives one outcome.
  const SourceSet sources = MakeSources();
  const UniSSampler sampler =
      UniSSampler::Create(&sources, MakeQuery()).value();
  const FaultModel model = FaultModel::Create(30, ChaosFaults()).value();
  CircuitBreakerOptions breaker;
  breaker.window = 64;
  breaker.min_samples = 64;
  breaker.open_failure_rate = 1.0;
  const SourceAccessor accessor =
      SourceAccessor::Create(30, &model, RetryPolicy{}, breaker).value();

  const auto run = [&](int chunk_draws) {
    ParallelSampleOptions parallel;
    parallel.num_threads = 4;
    parallel.seed = 99;
    parallel.chunk_draws = chunk_draws;
    return ParallelUniSSampleWithFaults(sampler, 200, accessor, 0.5, parallel);
  };
  const auto want = run(64);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want->access.breaker_transitions, 0u);
  ASSERT_GT(want->access.transient_failures, 0u);
  for (const int chunk_draws : {1, 8}) {
    const auto got = run(chunk_draws);
    ASSERT_TRUE(got.ok());
    SCOPED_TRACE(chunk_draws);
    EXPECT_EQ(got->values, want->values);
    EXPECT_EQ(got->coverages, want->coverages);
    EXPECT_EQ(got->dropped_draws, want->dropped_draws);
    EXPECT_EQ(got->access.visits, want->access.visits);
    EXPECT_EQ(got->access.attempts, want->access.attempts);
    EXPECT_EQ(got->access.transient_failures, want->access.transient_failures);
    EXPECT_EQ(got->access.failed_visits, want->access.failed_visits);
    EXPECT_EQ(got->access.corrupt_values_rejected,
              want->access.corrupt_values_rejected);
    // Sessions merge in chunk order, so only the float sum's grouping
    // differs.
    EXPECT_DOUBLE_EQ(got->access.virtual_ms, want->access.virtual_ms);
  }
}

TEST(KeyedStreamDeterminismTest, AdaptiveRunExtendsTheFixedRun) {
  const SourceSet sources = MakeSources();
  const UniSSampler sampler =
      UniSSampler::Create(&sources, MakeQuery()).value();
  AdaptiveSamplingOptions adaptive;
  adaptive.initial_size = 40;
  adaptive.increment = 30;
  adaptive.max_size = 160;
  adaptive.target_ci_length = 1e-9;  // unreachable: grow to the budget
  const uint64_t seed = 0xada9;
  const auto grown = AdaptiveUniSSampling(sampler, adaptive, seed);
  ASSERT_TRUE(grown.ok());
  ASSERT_EQ(grown->samples.size(), 160u);
  ASSERT_GE(grown->trace.size(), 2u);

  // Every round's sample is exactly the fixed run of that size.
  ParallelSampleOptions fixed;
  fixed.num_threads = 1;
  fixed.seed = seed;
  for (const AdaptiveStep& step : grown->trace) {
    const auto samples = ParallelUniSSample(sampler, step.sample_size, fixed);
    ASSERT_TRUE(samples.ok());
    EXPECT_EQ(*samples, std::vector<double>(grown->samples.begin(),
                                            grown->samples.begin() +
                                                step.sample_size));
  }

  // Through the seam with nothing failing, the degraded loop draws the same
  // stream: a fresh session's epoch i is draw i.
  const SourceAccessor accessor =
      SourceAccessor::Create(30, nullptr, RetryPolicy{}).value();
  AccessSession session = accessor.StartSession();
  const auto degraded =
      AdaptiveUniSSamplingDegraded(sampler, adaptive, session, 0.0, seed);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->samples, grown->samples);

  // And an adaptive extraction's first draws are the fixed extraction's.
  ExtractorOptions options = SmallOptions();
  options.initial_sample_size = 40;
  const auto fixed_answer = ExtractWith(sources, options);
  options.adaptive = adaptive;
  const auto adaptive_answer = ExtractWith(sources, options);
  ASSERT_TRUE(fixed_answer.ok());
  ASSERT_TRUE(adaptive_answer.ok());
  ASSERT_GE(adaptive_answer->samples.size(), 40u);
  EXPECT_EQ(std::vector<double>(adaptive_answer->samples.begin(),
                                adaptive_answer->samples.begin() + 40),
            fixed_answer->samples);
}

TEST(StreamKeyTest, ConsecutiveSeedsShareNoDecisionStream) {
  // An identifier XORed into the seed before mixing would give seed s,
  // index i the stream of seed s ^ 1, index i ^ 1: neighbouring seeds
  // would draw the same samples in another order.
  std::set<uint64_t> keys;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    for (uint64_t index = 0; index < 64; ++index) {
      keys.insert(StreamKey(seed, StreamTag::kUniSDraw, index));
    }
  }
  EXPECT_EQ(keys.size(), 64u * 64u);
  EXPECT_NE(StreamKey(7, StreamTag::kUniSDraw, 3),
            StreamKey(7, StreamTag::kBootstrapSet, 3));
}

}  // namespace
}  // namespace vastats
