#include "traced.h"

#include <string_view>
#include <thread>

namespace perfbench {

using namespace vastats;  // NOLINT: the benchmark drives the whole library

namespace {

uint64_t CounterValue(const MetricsSnapshot& snapshot, std::string_view name) {
  const CounterSample* sample = snapshot.FindCounter(name);
  return sample == nullptr ? 0 : sample->value;
}

double SpanMs(const Trace& trace, std::string_view name) {
  const vastats::SpanRecord* span = trace.Find(name);
  return span == nullptr ? 0.0 : span->elapsed_seconds * 1e3;
}

// One fault-free uniS sampling call with the extractor's sampling width,
// pool and op size. Only its CPU and wall time are used.
Status SampleOnce(const UniSSampler& sampler, const ExtractorOptions& options) {
  Rng rng(options.seed);
  if (ResolveSamplingThreads(options.sampling_threads,
                             std::thread::hardware_concurrency()) > 1) {
    ParallelSampleOptions parallel;
    parallel.num_threads = options.sampling_threads;
    parallel.seed = options.seed;
    parallel.pool = options.pool;
    return ParallelUniSSample(sampler, options.initial_sample_size, parallel)
        .status();
  }
  return sampler.Sample(options.initial_sample_size, rng).status();
}

}  // namespace

Result<AnswerStatistics> ExtractOnce(const SourceSet* sources,
                                     const AggregateQuery& query,
                                     const ExtractorOptions& options) {
  VASTATS_ASSIGN_OR_RETURN(
      const AnswerStatisticsExtractor extractor,
      AnswerStatisticsExtractor::Create(sources, query, options));
  return extractor.Extract();
}

Result<AnswerStatistics> ExtractTraced(const SourceSet* sources,
                                       const AggregateQuery& query,
                                       const ExtractorOptions& options,
                                       const TracedRun& run,
                                       LayerSample* sample) {
  // The sinks are set up outside the op span so their cost is not charged
  // to a layer.
  MetricsRegistry metrics;
  const int64_t trace_epoch_ns = NowNs();
  Trace trace;
  ExtractorOptions traced = options;
  traced.obs.trace = &trace;
  traced.obs.metrics = &metrics;
  DctPlan plan;
  bool first_request = true;
  if (run.plan_hook) {
    const std::thread::id caller = std::this_thread::get_id();
    const double delay_ms = run.plant_kde_delay_ms;
    traced.cache_hooks.plan_provider = [&plan, &first_request, caller,
                                        delay_ms]() -> DctPlan* {
      if (std::this_thread::get_id() != caller) {
        thread_local DctPlan worker_plan;
        return &worker_plan;
      }
      if (first_request && delay_ms > 0.0) SpinMs(delay_ms);
      first_request = false;
      return &plan;
    };
  }

  Span op_span(run.lane, "op", run.op);
  const int op_index = op_span.index();
  Span create_span(run.lane, kSlotNames[kCreate], run.op);
  VASTATS_ASSIGN_OR_RETURN(
      const AnswerStatisticsExtractor extractor,
      AnswerStatisticsExtractor::Create(sources, query, traced));
  sample->slot_ms[kCreate] += create_span.CloseMs();
  VASTATS_ASSIGN_OR_RETURN(AnswerStatistics answer, extractor.Extract());
  sample->op_ms += op_span.CloseMs();

  if (run.lane != nullptr) {
    run.lane->Import(trace, trace_epoch_ns, op_index, run.op);
  }
  const PhaseTimings& phases = answer.timings;
  const double probe_ms = SpanMs(trace, "unis_estimate_weight");
  double* const slot = sample->slot_ms;
  slot[kSamplingDraw] += phases.sampling_seconds * 1e3;
  slot[kWeightProbe] += probe_ms;
  slot[kBootstrap] += phases.bootstrap_seconds * 1e3;
  slot[kCi] += phases.point_statistics_seconds * 1e3;
  slot[kKde] += phases.kde_seconds * 1e3;
  slot[kCio] += phases.cio_seconds * 1e3;
  slot[kStability] += phases.stability_seconds * 1e3 - probe_ms;

  const MetricsSnapshot counts = metrics.Snapshot();
  if (options.fault_tolerance.has_value()) {
    sample->draws += static_cast<uint64_t>(options.initial_sample_size);
    sample->visits += answer.degradation.access.visits;
  } else {
    sample->draws += CounterValue(counts, "unis_draws_total");
    sample->visits += CounterValue(counts, "unis_source_visits_total");
  }
  sample->kde_fits += CounterValue(counts, "bagged_kde_sets_total");
  sample->botev_iterations += CounterValue(counts, "kde_botev_iterations_total");

  if (!options.fault_tolerance.has_value()) {
    const auto cpu_ms = run.thread_cpu ? ThreadCpuMs : ProcessCpuMs;
    const double cpu_before = cpu_ms();
    Span span(run.lane, "probe.sampling", run.op);
    VASTATS_RETURN_IF_ERROR(SampleOnce(extractor.sampler(), options));
    sample->probe_wall_ms += span.CloseMs();
    sample->probe_cpu_ms += cpu_ms() - cpu_before;
  }
  return answer;
}

}  // namespace perfbench
