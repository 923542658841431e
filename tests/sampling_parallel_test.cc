#include "sampling/parallel.h"

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "datagen/source_builder.h"
#include "sampling/exhaustive.h"
#include "stats/descriptive.h"
#include "test_util.h"

namespace vastats {
namespace {

class ParallelSamplingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto d2 = MakeD2(60);
    SyntheticSourceSetOptions options;
    options.num_sources = 40;
    options.num_components = 80;
    options.seed = 61;
    sources_ = BuildSyntheticSourceSet(*d2, options).value();
    query_ = MakeRangeQuery("sum", AggregateKind::kSum, 0, 80);
    sampler_.emplace(UniSSampler::Create(&sources_, query_).value());
  }

  SourceSet sources_;
  AggregateQuery query_;
  std::optional<UniSSampler> sampler_;
};

TEST_F(ParallelSamplingTest, ProducesRequestedCount) {
  ParallelSampleOptions options;
  options.num_threads = 4;
  const auto samples = ParallelUniSSample(*sampler_, 1000, options);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples->size(), 1000u);
}

TEST_F(ParallelSamplingTest, DeterministicForFixedSeedAndThreads) {
  ParallelSampleOptions options;
  options.num_threads = 3;
  options.seed = 77;
  const auto a = ParallelUniSSample(*sampler_, 500, options);
  const auto b = ParallelUniSSample(*sampler_, 500, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST_F(ParallelSamplingTest, BitIdenticalAcrossThreadCounts) {
  // The keyed draw streams make the output a function of (seed, n) only:
  // every execution width must produce the same bits.
  ParallelSampleOptions one;
  one.num_threads = 1;
  one.seed = 88;
  const auto reference = ParallelUniSSample(*sampler_, 2000, one);
  ASSERT_TRUE(reference.ok());

  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int threads : {2, 4, hardware}) {
    ParallelSampleOptions options;
    options.num_threads = threads;
    options.seed = 88;
    const auto samples = ParallelUniSSample(*sampler_, 2000, options);
    ASSERT_TRUE(samples.ok());
    EXPECT_EQ(samples.value(), reference.value())
        << "thread-per-call width " << threads;
  }
}

TEST_F(ParallelSamplingTest, BitIdenticalAcrossPoolSizes) {
  ParallelSampleOptions serial;
  serial.num_threads = 1;
  serial.seed = 88;
  const auto reference = ParallelUniSSample(*sampler_, 2000, serial);
  ASSERT_TRUE(reference.ok());

  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (const int size : {1, 2, 4, hardware}) {
    ThreadPool pool(ThreadPoolOptions{.num_threads = size});
    ParallelSampleOptions options;
    options.seed = 88;
    options.pool = &pool;
    const auto samples = ParallelUniSSample(*sampler_, 2000, options);
    ASSERT_TRUE(samples.ok());
    EXPECT_EQ(samples.value(), reference.value()) << "pool size " << size;
  }
}

TEST_F(ParallelSamplingTest, PoolRunsAreRepeatable) {
  ThreadPool pool;
  ParallelSampleOptions options;
  options.seed = 77;
  options.pool = &pool;
  const auto a = ParallelUniSSample(*sampler_, 500, options);
  const auto b = ParallelUniSSample(*sampler_, 500, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST_F(ParallelSamplingTest, ChunkedDriverPropagatesLowestChunkError) {
  // Chunks 3 and 1 both fail; the reported error must be chunk 1's,
  // independent of which worker hits which chunk first.
  ParallelSampleOptions options;
  options.num_threads = 4;
  options.chunk_draws = 8;
  auto chunk_fn = [](int first_slot, std::span<double> out) -> Status {
    const int chunk_index = first_slot / 8;
    if (chunk_index == 1 || chunk_index == 3) {
      return Status::Internal("chunk " + std::to_string(chunk_index) +
                              " failed");
    }
    std::fill(out.begin(), out.end(), 1.0);
    return Status::Ok();
  };
  for (int repeat = 0; repeat < 20; ++repeat) {
    const auto result = ParallelChunkedSample(64, options, chunk_fn);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), "chunk 1 failed");
  }
}

TEST(ThreadPerCallParallelForTest, ReportsTheLowestFailingTaskIndex) {
  // Without a pool, width 4 fans one-draw chunks out on a call-scoped pool
  // of three workers plus the caller (what a thread-per-call fan-out did).
  // Tasks 5 and 11 both fail; the reported error must be task 5's.
  ParallelSampleOptions options;
  options.num_threads = 4;
  options.chunk_draws = 1;
  auto chunk_fn = [](int first_slot, std::span<double>) -> Status {
    if (first_slot == 5 || first_slot == 11) {
      return Status::Internal("task " + std::to_string(first_slot));
    }
    return Status::Ok();
  };
  for (int repeat = 0; repeat < 50; ++repeat) {
    const auto result = ParallelChunkedSample(16, options, chunk_fn);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), "task 5");
  }
}

TEST_F(ParallelSamplingTest, FailingChunkYieldsNoPartialResult) {
  // The sampler errors after a few draws of chunk 2; the call must surface
  // that error and hand back no samples at all.
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  ParallelSampleOptions options;
  options.chunk_draws = 8;
  options.pool = &pool;
  std::atomic<int> draws{0};
  auto chunk_fn = [&](int first_slot, std::span<double> out) -> Status {
    for (double& slot : out) {
      if (first_slot / 8 == 2 && draws.fetch_add(1) >= 3) {
        return Status::NotFound("source went away");
      }
      slot = 1.0;
    }
    return Status::Ok();
  };
  const auto result = ParallelChunkedSample(64, options, chunk_fn);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ParallelSamplingTest, NoPoolWidthRunsEveryChunkOnce) {
  // Without a pool, width 4 runs the chunks on a call-scoped pool of three
  // workers plus the caller.
  ParallelSampleOptions options;
  options.num_threads = 4;
  options.chunk_draws = 1;
  std::vector<std::atomic<int>> runs(40);
  auto chunk_fn = [&](int first_slot, std::span<double> out) {
    runs[static_cast<size_t>(first_slot)].fetch_add(1);
    out[0] = static_cast<double>(first_slot);
    return Status::Ok();
  };
  const auto result = ParallelChunkedSample(40, options, chunk_fn);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1);
    EXPECT_EQ((*result)[i], static_cast<double>(i));
  }
}

TEST_F(ParallelSamplingTest, NoPoolWidthOneStopsAtTheFirstFailingChunk) {
  // Width 1 runs the chunks inline, in order, and stops at a failure.
  ParallelSampleOptions options;
  options.num_threads = 1;
  options.chunk_draws = 1;
  int ran = 0;
  auto chunk_fn = [&](int first_slot, std::span<double>) -> Status {
    ++ran;
    if (first_slot == 2) return Status::Internal("chunk 2");
    return Status::Ok();
  };
  const auto result = ParallelChunkedSample(10, options, chunk_fn);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(), "chunk 2");
  EXPECT_EQ(ran, 3);
}

TEST_F(ParallelSamplingTest, NullFaultModelMatchesFaultFreeDrawsAndCounters) {
  // Through the seam with nothing failing, the fault path draws the
  // fault-free path's values and reports the same uniS counters.
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  ParallelSampleOptions options;
  options.seed = 0x51de;
  options.pool = &pool;
  MetricsRegistry plain_metrics;
  options.obs.metrics = &plain_metrics;
  const auto plain = ParallelUniSSample(*sampler_, 300, options);
  ASSERT_TRUE(plain.ok());

  const auto accessor = SourceAccessor::Create(sources_.NumSources(), nullptr);
  ASSERT_TRUE(accessor.ok());
  MetricsRegistry seam_metrics;
  options.obs.metrics = &seam_metrics;
  const auto seam =
      ParallelUniSSampleWithFaults(*sampler_, 300, *accessor, 1.0, options);
  ASSERT_TRUE(seam.ok());
  EXPECT_EQ(seam->values, *plain);
  EXPECT_EQ(seam->dropped_draws, 0);

  const MetricsSnapshot a = plain_metrics.Snapshot();
  const MetricsSnapshot b = seam_metrics.Snapshot();
  for (const char* name :
       {"unis_draws_total", "unis_source_visits_total",
        "unis_contributing_sources_total", "unis_component_takeovers_total"}) {
    ASSERT_NE(a.FindCounter(name), nullptr) << name;
    ASSERT_NE(b.FindCounter(name), nullptr) << name;
    EXPECT_EQ(a.FindCounter(name)->value, b.FindCounter(name)->value) << name;
  }
  EXPECT_EQ(a.FindCounter("unis_draws_total")->value, 300u);
  const HistogramSample* visited_a =
      a.FindHistogram("unis_sources_visited_per_draw");
  const HistogramSample* visited_b =
      b.FindHistogram("unis_sources_visited_per_draw");
  ASSERT_NE(visited_a, nullptr);
  ASSERT_NE(visited_b, nullptr);
  EXPECT_EQ(visited_a->count, 300u);
  EXPECT_EQ(visited_a->bucket_counts, visited_b->bucket_counts);
}

TEST_F(ParallelSamplingTest, UnevenSplitCoversAllSlots) {
  // 7 is not divisible by 3: every slot must still be written.
  ParallelSampleOptions options;
  options.num_threads = 3;
  const auto samples = ParallelUniSSample(*sampler_, 7, options);
  ASSERT_TRUE(samples.ok());
  ASSERT_EQ(samples->size(), 7u);
  // All uniS sums of this workload are far from zero; an unwritten slot
  // would remain exactly 0.
  for (const double v : *samples) EXPECT_NE(v, 0.0);
}

TEST_F(ParallelSamplingTest, MoreThreadsThanSamplesClamps) {
  ParallelSampleOptions options;
  options.num_threads = 64;
  const auto samples = ParallelUniSSample(*sampler_, 5, options);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples->size(), 5u);
}

TEST_F(ParallelSamplingTest, DefaultThreadCountWorks) {
  ParallelSampleOptions options;  // num_threads = 0 -> hardware concurrency
  const auto samples = ParallelUniSSample(*sampler_, 100, options);
  ASSERT_TRUE(samples.ok());
  EXPECT_EQ(samples->size(), 100u);
}

TEST_F(ParallelSamplingTest, Validation) {
  ParallelSampleOptions options;
  EXPECT_FALSE(ParallelUniSSample(*sampler_, 0, options).ok());
  options.num_threads = -1;
  EXPECT_FALSE(ParallelUniSSample(*sampler_, 10, options).ok());
  options.num_threads = 1;
  options.chunk_draws = 0;
  EXPECT_FALSE(ParallelUniSSample(*sampler_, 10, options).ok());
}

TEST_F(ParallelSamplingTest, AnswersWithinViableRange) {
  const auto range = ViableRange(sources_, query_);
  ASSERT_TRUE(range.ok());
  ParallelSampleOptions options;
  options.num_threads = 4;
  const auto samples = ParallelUniSSample(*sampler_, 500, options);
  ASSERT_TRUE(samples.ok());
  for (const double v : *samples) {
    EXPECT_GE(v, range->first);
    EXPECT_LE(v, range->second);
  }
}

}  // namespace
}  // namespace vastats
