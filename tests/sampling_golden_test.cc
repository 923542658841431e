// Golden sample streams: pins the exact bits that every uniS sampling path
// draws at fixed seeds, so a change to the sampling layer can show that it
// moved no value. The parity suites only compare runs of one build with
// each other; these constants hold across commits.
//
// Each stream is pinned by an FNV-1a hash over the bit patterns of what it
// produced (see StreamHash); on a mismatch the test prints the new hash. A
// deliberate stream change (new seeding, new order draw) updates the
// constants here and nowhere else.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "datagen/distributions.h"
#include "datagen/fault_model.h"
#include "datagen/source_accessor.h"
#include "datagen/source_builder.h"
#include "sampling/adaptive.h"
#include "sampling/parallel.h"
#include "sampling/unis.h"
#include "sampling/weighted.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

// FNV-1a over 64-bit words, fed byte by byte.
class StreamHash {
 public:
  StreamHash& Bits(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  StreamHash& Double(double value) {
    return Bits(std::bit_cast<uint64_t>(value));
  }
  StreamHash& Doubles(std::span<const double> values) {
    Bits(values.size());
    for (const double value : values) Double(value);
    return *this;
  }
  StreamHash& Access(const AccessStats& stats) {
    Bits(stats.visits).Bits(stats.attempts).Bits(stats.retries);
    Bits(stats.transient_failures).Bits(stats.failed_visits);
    Bits(stats.breaker_open_skips).Bits(stats.corrupt_values_rejected);
    Bits(stats.breaker_transitions).Bits(stats.deadline_truncated_draws);
    Double(stats.virtual_ms).Double(stats.backoff_ms);
    Bits(stats.breaker_severity.size());
    for (const uint8_t severity : stats.breaker_severity) Bits(severity);
    return *this;
  }
  StreamHash& Trace(std::span<const AdaptiveStep> trace) {
    Bits(trace.size());
    for (const AdaptiveStep& step : trace) {
      Bits(static_cast<uint64_t>(step.sample_size));
      Double(step.mean_ci.lo).Double(step.mean_ci.hi);
    }
    return *this;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// 30 sources over 60 components, every component bound 3-5 times.
SourceSet MakeGoldenSources() {
  SyntheticSourceSetOptions options;
  options.num_sources = 30;
  options.num_components = 60;
  options.min_copies = 3;
  options.max_copies = 5;
  options.seed = 51;
  return BuildSyntheticSourceSet(*MakeD2(7), options).value();
}

// Transient failures, stragglers, corrupt values and an outage of half the
// sources from draw 128 on, so later draws lose coverage.
FaultModel MakeChaosModel() {
  FaultModelOptions fault;
  fault.transient_failure_prob = 0.2;
  fault.failure_spread_sigma = 0.5;
  fault.corrupt_value_prob = 0.05;
  fault.latency_jitter_sigma = 0.3;
  fault.outage_fraction = 0.5;
  fault.outage_epoch = 128;
  fault.seed = 4242;
  return FaultModel::Create(30, fault).value();
}

SourceAccessor MakeChaosAccessor(const FaultModel* model) {
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_base_ms = 2.0;
  return SourceAccessor::Create(30, model, retry).value();
}

class SampleStreamGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sources_ = MakeGoldenSources();
    sampler_.emplace(
        UniSSampler::Create(
            &sources_, MakeRangeQuery("golden", AggregateKind::kAverage, 0, 60))
            .value());
  }

  SourceSet sources_;
  std::optional<UniSSampler> sampler_;
};

TEST_F(SampleStreamGoldenTest, SerialSample) {
  Rng rng(11);
  const auto values = sampler_->Sample(300, rng);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(StreamHash().Doubles(*values).value(), 0x82e0741f9d25d538ULL)
      << std::hex << StreamHash().Doubles(*values).value();
}

TEST_F(SampleStreamGoldenTest, SerialSampleExcluding) {
  Rng rng(12);
  const std::vector<int> excluded = {0, 5};
  const auto values = sampler_->SampleExcluding(300, excluded, rng);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(StreamHash().Doubles(*values).value(), 0x7d8804087145be92ULL)
      << std::hex << StreamHash().Doubles(*values).value();
}

TEST_F(SampleStreamGoldenTest, ParallelSampleAtEveryWidth) {
  ThreadPool pool1(ThreadPoolOptions{.num_threads = 1});
  ThreadPool pool4(ThreadPoolOptions{.num_threads = 4});
  ParallelSampleOptions options;
  options.seed = 0xabc;
  options.chunk_draws = 64;
  for (ThreadPool* pool : {&pool1, &pool4, static_cast<ThreadPool*>(nullptr)}) {
    options.pool = pool;
    options.num_threads = 4;  // the no-pool width
    const auto values = ParallelUniSSample(*sampler_, 500, options);
    ASSERT_TRUE(values.ok());
    EXPECT_EQ(StreamHash().Doubles(*values).value(), 0xe7c2bb8b967ac179ULL)
        << std::hex << StreamHash().Doubles(*values).value();
  }
}

TEST_F(SampleStreamGoldenTest, ParallelSampleWithChaosFaults) {
  const FaultModel model = MakeChaosModel();
  const SourceAccessor accessor = MakeChaosAccessor(&model);
  ThreadPool pool4(ThreadPoolOptions{.num_threads = 4});
  ParallelSampleOptions options;
  options.seed = 0xc0ffee;
  options.chunk_draws = 64;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
    options.pool = pool;
    options.num_threads = 1;
    const auto result =
        ParallelUniSSampleWithFaults(*sampler_, 256, accessor, 0.9, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->dropped_draws, 3);
    EXPECT_EQ(StreamHash().Doubles(result->values).value(), 0xcc78c623aa88202fULL)
        << std::hex << StreamHash().Doubles(result->values).value();
    EXPECT_EQ(StreamHash().Doubles(result->coverages).value(), 0x9f9a3dafda529261ULL)
        << std::hex << StreamHash().Doubles(result->coverages).value();
    EXPECT_EQ(StreamHash().Access(result->access).value(), 0x6718d2ad9effc381ULL)
        << std::hex << StreamHash().Access(result->access).value();
  }
}

TEST_F(SampleStreamGoldenTest, WeightedSample) {
  std::vector<double> weights(30);
  for (size_t s = 0; s < weights.size(); ++s) {
    weights[s] = 1.0 + static_cast<double>(s % 4);
  }
  const auto weighted = WeightedUniSSampler::Create(
      &sources_, sampler_->query(), std::move(weights));
  ASSERT_TRUE(weighted.ok());
  Rng rng(13);
  const auto values = weighted->Sample(300, rng);
  ASSERT_TRUE(values.ok());
  EXPECT_EQ(StreamHash().Doubles(*values).value(), 0xfa64b6d5925152c5ULL)
      << std::hex << StreamHash().Doubles(*values).value();
}

AdaptiveSamplingOptions GoldenAdaptiveOptions() {
  AdaptiveSamplingOptions options;
  options.initial_size = 40;
  options.increment = 20;
  options.max_size = 200;
  options.target_relative_length = 0.01;
  return options;
}

TEST_F(SampleStreamGoldenTest, AdaptiveSampling) {
  const auto result =
      AdaptiveUniSSampling(*sampler_, GoldenAdaptiveOptions(), /*seed=*/14);
  ASSERT_TRUE(result.ok());
  StreamHash hash;
  hash.Doubles(result->samples).Trace(result->trace);
  hash.Bits(result->satisfied);
  EXPECT_EQ(hash.value(), 0x3ff70ae7174e1ce4ULL) << std::hex << hash.value();
}

TEST_F(SampleStreamGoldenTest, AdaptiveSamplingDegraded) {
  const FaultModel model = MakeChaosModel();
  const SourceAccessor accessor = MakeChaosAccessor(&model);
  AccessSession session = accessor.StartSession();
  const auto result = AdaptiveUniSSamplingDegraded(
      *sampler_, GoldenAdaptiveOptions(), session, 0.3, /*seed=*/15);
  ASSERT_TRUE(result.ok());
  StreamHash hash;
  hash.Doubles(result->samples).Doubles(result->coverages);
  hash.Trace(result->trace).Bits(result->satisfied);
  hash.Bits(static_cast<uint64_t>(result->draws_requested));
  hash.Bits(static_cast<uint64_t>(result->dropped_draws));
  hash.Access(session.Finish());
  EXPECT_EQ(hash.value(), 0x41cfb5eb9a932beaULL) << std::hex << hash.value();
}

TEST_F(SampleStreamGoldenTest, EstimateSourcesPerAnswer) {
  const auto y = sampler_->EstimateSourcesPerAnswer(200, /*seed=*/16);
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, 0x1.0666666666666p+4) << std::hexfloat << *y;
}

// One Algorithm-1 extraction at the Table-2 defaults over the D2 universe
// perfbench's extract_d2 runs: its bagged mean and the mean's CI.
TEST(SampleStreamGoldenExtractTest, D2ExtractMeanAndCi) {
  SyntheticSourceSetOptions options;
  options.num_sources = 100;
  options.num_components = 500;
  options.min_copies = 2;
  options.max_copies = 6;
  options.conflict_model = ConflictModel::kSharedBaseNoise;
  options.conflict_sigma = 0.5;
  options.seed = 3;
  const SourceSet sources =
      BuildSyntheticSourceSet(*MakeD2(2), options).value();
  const auto extractor = AnswerStatisticsExtractor::Create(
      &sources, MakeRangeQuery("sum-d2", AggregateKind::kSum, 0, 500), {});
  ASSERT_TRUE(extractor.ok());
  const auto stats = extractor->Extract();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->mean.value, 0x1.8a704371fc6e7p+13) << std::hexfloat << stats->mean.value;
  EXPECT_EQ(stats->mean.ci.lo, 0x1.8a6b79a9bedecp+13) << std::hexfloat << stats->mean.ci.lo;
  EXPECT_EQ(stats->mean.ci.hi, 0x1.8a74b13748d9ap+13) << std::hexfloat << stats->mean.ci.hi;
}

}  // namespace
}  // namespace vastats
