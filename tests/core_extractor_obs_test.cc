// Telemetry integration tests for the extraction pipeline: span taxonomy,
// PhaseTimings/span agreement, metrics coverage, and the parallel-sampling
// reporting path.

#include <cmath>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace vastats {
namespace {

std::string FindAnnotation(const SpanRecord& span, std::string_view key) {
  for (const SpanAnnotation& annotation : span.annotations) {
    if (annotation.key == key) return annotation.value;
  }
  return "";
}

ExtractorOptions SmallOptions() {
  ExtractorOptions options;
  options.initial_sample_size = 40;
  options.bootstrap.num_sets = 10;
  options.kde.grid_size = 256;
  options.weight_probes = 5;
  return options;
}

Result<AnswerStatistics> RunInstrumented(Trace* trace,
                                         MetricsRegistry* metrics,
                                         ExtractorOptions options) {
  const SourceSet sources = testing::MakeFigure1Sources();
  options.obs.trace = trace;
  options.obs.metrics = metrics;
  VASTATS_ASSIGN_OR_RETURN(
      const AnswerStatisticsExtractor extractor,
      AnswerStatisticsExtractor::Create(
          &sources, testing::MakeFigure1Query(AggregateKind::kSum), options));
  return extractor.Extract();
}

TEST(ExtractorObsTest, RecordsTheFullSpanTaxonomy) {
  Trace trace;
  const auto stats = RunInstrumented(&trace, nullptr, SmallOptions());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  for (const char* name :
       {"extract", "sampling", "parallel_sample", "extract_from_samples",
        "bootstrap", "point_statistics", "kde", "bagged_kde", "cio",
        "cio_greedy", "stability", "unis_estimate_weight"}) {
    EXPECT_GE(trace.CountOf(name), 1) << "missing span: " << name;
  }
  // The binned bag runs no per-set EstimateKde, so it has no kde_estimate
  // children; its span counts the bootstrap sets instead.
  EXPECT_EQ(trace.CountOf("kde_estimate"), 0);
  const SpanRecord* bag = trace.Find("bagged_kde");
  ASSERT_NE(bag, nullptr);
  EXPECT_EQ(FindAnnotation(*bag, "sets"), "10");
  // The phases nest under the pipeline roots.
  const SpanRecord* sampling = trace.Find("sampling");
  ASSERT_NE(sampling, nullptr);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(sampling->parent)].name,
            "extract");
  const SpanRecord* kde = trace.Find("kde");
  ASSERT_NE(kde, nullptr);
  EXPECT_EQ(trace.spans()[static_cast<size_t>(kde->parent)].name,
            "extract_from_samples");
  // Every recorded span name passes the exporter's naming rules.
  EXPECT_TRUE(TraceToJson(trace).ok());
}

TEST(ExtractorObsTest, PhaseTimingsDeriveFromTheSpans) {
  Trace trace;
  const auto stats = RunInstrumented(&trace, nullptr, SmallOptions());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const PhaseTimings& timings = stats->timings;
  // Close() hands back the trace-recorded elapsed, so (absent a clamp, which
  // cannot trigger here since phases are disjoint sub-spans of the root)
  // PhaseTimings and the trace are the same numbers.
  EXPECT_DOUBLE_EQ(timings.sampling_seconds,
                   trace.Find("sampling")->elapsed_seconds);
  EXPECT_DOUBLE_EQ(timings.bootstrap_seconds,
                   trace.Find("bootstrap")->elapsed_seconds);
  EXPECT_DOUBLE_EQ(timings.point_statistics_seconds,
                   trace.Find("point_statistics")->elapsed_seconds);
  EXPECT_DOUBLE_EQ(timings.kde_seconds, trace.Find("kde")->elapsed_seconds);
  EXPECT_DOUBLE_EQ(timings.cio_seconds, trace.Find("cio")->elapsed_seconds);
  EXPECT_DOUBLE_EQ(timings.stability_seconds,
                   trace.Find("stability")->elapsed_seconds);
  // The breakdown never exceeds the root span's wall time.
  EXPECT_LE(timings.TotalSeconds(),
            trace.Find("extract")->elapsed_seconds * 1.05);
}

TEST(ExtractorObsTest, PopulatesPipelineMetrics) {
  MetricsRegistry metrics;
  const auto stats = RunInstrumented(nullptr, &metrics, SmallOptions());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  const CounterSample* draws = snapshot.FindCounter("unis_draws_total");
  ASSERT_NE(draws, nullptr);
  // 40 pipeline draws plus 5 weight probes.
  EXPECT_EQ(draws->value, 45u);
  EXPECT_EQ(snapshot.FindCounter("extractions_total")->value, 1u);
  EXPECT_EQ(snapshot.FindCounter("bagged_kde_sets_total")->value, 10u);
  // The binned bag fits no set with EstimateKde, so no per-fit path count.
  EXPECT_EQ(snapshot.FindCounter("kde_binned_path_total"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("cio_runs_total")->value, 1u);
  ASSERT_NE(snapshot.FindCounter("kde_botev_iterations_total"), nullptr);
  EXPECT_GT(snapshot.FindCounter("kde_botev_iterations_total")->value, 0u);
  const HistogramSample* visited =
      snapshot.FindHistogram("unis_sources_visited_per_draw");
  ASSERT_NE(visited, nullptr);
  EXPECT_EQ(visited->count, 40u);
  // Everything the pipeline emitted survives the exporters.
  EXPECT_TRUE(SnapshotToJson(snapshot).ok());
  EXPECT_TRUE(SnapshotToPrometheus(snapshot).ok());
}

TEST(ExtractorObsTest, ParallelSamplingReportsPerChunk) {
  Trace trace;
  MetricsRegistry metrics;
  ExtractorOptions options = SmallOptions();
  // 200 draws over the default 64-draw chunks -> 4 chunks (3 full + 1 tail).
  options.initial_sample_size = 200;
  options.sampling_threads = 4;
  const auto stats = RunInstrumented(&trace, &metrics, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_EQ(trace.CountOf("parallel_sample"), 1);
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.FindCounter("parallel_sampler_runs_total")->value, 1u);
  // Applied parallelism: 4 requested workers over 4 chunks.
  EXPECT_EQ(snapshot.FindGauge("parallel_sampler_threads")->value, 4.0);
  // Worker threads flush their draw counts into their own shards; the merged
  // histogram must see one observation per chunk and all 200 draws.
  const HistogramSample* per_chunk =
      snapshot.FindHistogram("parallel_sampler_draws_per_chunk");
  ASSERT_NE(per_chunk, nullptr);
  EXPECT_EQ(per_chunk->count, 4u);
  EXPECT_DOUBLE_EQ(per_chunk->sum, 200.0);
  // 200 pipeline draws plus the 5 weight probes.
  EXPECT_EQ(snapshot.FindCounter("unis_draws_total")->value, 205u);
}

TEST(ExtractorObsTest, PoolRunReportsPoolTelemetry) {
  Trace trace;
  MetricsRegistry metrics;
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  ExtractorOptions options = SmallOptions();
  options.initial_sample_size = 200;
  options.sampling_threads = 4;
  options.pool = &pool;
  const auto stats = RunInstrumented(&trace, &metrics, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  // Pool task accounting: 4 sampling chunks + 4 x 10 bootstrap statistic
  // evaluations + 10 per-set KDE stages, all with latency observations.
  const CounterSample* tasks = snapshot.FindCounter("thread_pool_tasks_total");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value, 54u);
  const HistogramSample* latency =
      snapshot.FindHistogram("thread_pool_task_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 54u);
  ASSERT_NE(snapshot.FindGauge("thread_pool_queue_depth"), nullptr);
  // The spans that dispatched onto the pool say so.
  const SpanRecord* sample_span = trace.Find("parallel_sample");
  ASSERT_NE(sample_span, nullptr);
  EXPECT_EQ(FindAnnotation(*sample_span, "pool"), "true");
  const SpanRecord* kde_span = trace.Find("bagged_kde");
  ASSERT_NE(kde_span, nullptr);
  EXPECT_EQ(FindAnnotation(*kde_span, "pool"), "true");
  // The per-set stages report metrics only (Trace is single-threaded).
  EXPECT_EQ(trace.CountOf("kde_estimate"), 0);
}

TEST(ExtractorObsTest, TelemetryDoesNotPerturbResults) {
  const auto plain = RunInstrumented(nullptr, nullptr, SmallOptions());
  Trace trace;
  MetricsRegistry metrics;
  const auto instrumented = RunInstrumented(&trace, &metrics, SmallOptions());
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(instrumented.ok());
  EXPECT_EQ(plain->mean.value, instrumented->mean.value);
  EXPECT_EQ(plain->variance.value, instrumented->variance.value);
  EXPECT_EQ(plain->stability.stab_l2, instrumented->stability.stab_l2);
  EXPECT_EQ(plain->samples, instrumented->samples);
}

TEST(ReconcilePhaseTimingsTest, ConsistentTimingsPassUntouched) {
  PhaseTimings timings;
  timings.sampling_seconds = 1.0;
  timings.kde_seconds = 2.0;
  EXPECT_TRUE(ReconcilePhaseTimings(timings, 3.1));
  EXPECT_DOUBLE_EQ(timings.sampling_seconds, 1.0);
  EXPECT_DOUBLE_EQ(timings.kde_seconds, 2.0);
  // Within tolerance of a slightly smaller total is still fine.
  EXPECT_TRUE(ReconcilePhaseTimings(timings, 2.95));
  EXPECT_DOUBLE_EQ(timings.kde_seconds, 2.0);
}

TEST(ReconcilePhaseTimingsTest, DoubleCountedTimingsAreClampedProportionally) {
  PhaseTimings timings;
  timings.sampling_seconds = 2.0;
  timings.bootstrap_seconds = 2.0;
  timings.kde_seconds = 2.0;
  // Sum 6 s against a 3 s wall clock: every phase was counted twice.
  EXPECT_FALSE(ReconcilePhaseTimings(timings, 3.0));
  EXPECT_DOUBLE_EQ(timings.sampling_seconds, 1.0);
  EXPECT_DOUBLE_EQ(timings.bootstrap_seconds, 1.0);
  EXPECT_DOUBLE_EQ(timings.kde_seconds, 1.0);
  EXPECT_DOUBLE_EQ(timings.TotalSeconds(), 3.0);
}

TEST(ReconcilePhaseTimingsTest, ZeroAndNegativeEdgeCases) {
  PhaseTimings zero;
  EXPECT_TRUE(ReconcilePhaseTimings(zero, 0.0));
  PhaseTimings timings;
  timings.cio_seconds = 1.0;
  // A zero wall clock clamps everything to zero.
  EXPECT_FALSE(ReconcilePhaseTimings(timings, 0.0));
  EXPECT_DOUBLE_EQ(timings.TotalSeconds(), 0.0);
}

}  // namespace
}  // namespace vastats
