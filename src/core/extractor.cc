#include "core/extractor.h"

#include <algorithm>
#include <utility>

#include "stats/descriptive.h"
#include "stats/jackknife.h"
#include "transport/async_transport.h"

namespace vastats {

Status FaultToleranceOptions::Validate() const {
  VASTATS_RETURN_IF_ERROR(retry.Validate());
  VASTATS_RETURN_IF_ERROR(breaker.Validate());
  if (!(min_draw_coverage >= 0.0 && min_draw_coverage <= 1.0)) {
    return Status::InvalidArgument("min_draw_coverage must be in [0, 1]");
  }
  return Status::Ok();
}

Status ExtractorOptions::Validate() const {
  if (initial_sample_size < 8) {
    return Status::InvalidArgument(
        "ExtractorOptions.initial_sample_size must be >= 8");
  }
  VASTATS_RETURN_IF_ERROR(bootstrap.Validate());
  if (!(confidence_level > 0.0 && confidence_level < 1.0)) {
    return Status::InvalidArgument("confidence_level must be in (0,1)");
  }
  VASTATS_RETURN_IF_ERROR(kde.Validate());
  VASTATS_RETURN_IF_ERROR(cio.Validate());
  if (stability_r <= 0) {
    return Status::InvalidArgument("stability_r must be > 0");
  }
  VASTATS_RETURN_IF_ERROR(stability.Validate());
  if (weight_probes <= 0) {
    return Status::InvalidArgument("weight_probes must be > 0");
  }
  if (adaptive.has_value()) {
    VASTATS_RETURN_IF_ERROR(adaptive->Validate());
  }
  if (fault_tolerance.has_value()) {
    VASTATS_RETURN_IF_ERROR(fault_tolerance->Validate());
  }
  if (sampling_threads < 0) {
    return Status::InvalidArgument("sampling_threads must be >= 0");
  }
  return Status::Ok();
}

Result<AnswerStatisticsExtractor> AnswerStatisticsExtractor::Create(
    const SourceSet* sources, AggregateQuery query, ExtractorOptions options) {
  VASTATS_RETURN_IF_ERROR(options.Validate());
  VASTATS_ASSIGN_OR_RETURN(UniSSampler sampler,
                           UniSSampler::Create(sources, std::move(query)));
  return AnswerStatisticsExtractor(std::move(sampler), std::move(options));
}

Result<PointEstimate> AnswerStatisticsExtractor::EstimatePoint(
    MomentStatistic statistic, std::span<const double> samples,
    std::span<const std::vector<double>> sets) const {
  // Replicates over the shared bootstrap sets, bagged into the estimate
  // (evaluated as pool tasks when a pool is attached).
  VASTATS_ASSIGN_OR_RETURN(
      const std::vector<double> replicates,
      ReplicatesFromSets(sets, MomentStatisticFn(statistic), options_.pool,
                         options_.obs.metrics, options_.obs.recorder));
  PointEstimate estimate;
  VASTATS_ASSIGN_OR_RETURN(estimate.value,
                           Bag(replicates, options_.bag_aggregator));

  std::vector<double> jackknife;
  if (options_.ci_method == CiMethod::kBca) {
    VASTATS_ASSIGN_OR_RETURN(jackknife, JackknifeMoment(samples, statistic));
  }
  // BCa centers on the plug-in estimate of the original sample.
  const double plug_in = EvaluateMomentStatistic(statistic, samples);
  VASTATS_ASSIGN_OR_RETURN(
      estimate.ci,
      ComputeBootstrapCi(options_.ci_method, replicates, plug_in,
                         options_.confidence_level, jackknife));
  return estimate;
}

bool ReconcilePhaseTimings(PhaseTimings& timings, double total_elapsed_seconds,
                           double tolerance_fraction) {
  const double sum = timings.TotalSeconds();
  if (sum <= 0.0) return true;
  if (sum <= total_elapsed_seconds * (1.0 + tolerance_fraction)) return true;
  const double scale = std::max(total_elapsed_seconds, 0.0) / sum;
  timings.sampling_seconds *= scale;
  timings.bootstrap_seconds *= scale;
  timings.point_statistics_seconds *= scale;
  timings.kde_seconds *= scale;
  timings.cio_seconds *= scale;
  timings.stability_seconds *= scale;
  return false;
}

ParallelSampleOptions AnswerStatisticsExtractor::SamplingOptions() const {
  ParallelSampleOptions sampling;
  sampling.num_threads = options_.sampling_threads;
  sampling.seed = options_.seed;
  sampling.pool = options_.pool;
  sampling.obs = options_.obs;
  return sampling;
}

Result<AnswerStatistics> AnswerStatisticsExtractor::Extract() const {
  const ObsOptions& obs = options_.obs;
  ScopedSpan extract_span(obs, "extract");

  // Phase 1: uniS sampling (Algorithm 1 line 2), draws 0 .. n-1 of the keyed
  // sample stream at any width.
  ScopedSpan sampling_span(obs, "sampling");
  std::vector<double> samples;
  DegradationReport degradation;
  if (options_.fault_tolerance.has_value()) {
    VASTATS_ASSIGN_OR_RETURN(degradation, SampleDegradedPhase(&samples));
  } else if (options_.adaptive.has_value()) {
    VASTATS_ASSIGN_OR_RETURN(
        AdaptiveSamplingResult adaptive,
        AdaptiveUniSSampling(sampler_, *options_.adaptive, options_.seed, obs));
    samples = std::move(adaptive.samples);
  } else {
    VASTATS_ASSIGN_OR_RETURN(
        samples, ParallelUniSSample(sampler_, options_.initial_sample_size,
                                    SamplingOptions()));
  }
  const double sampling_seconds = sampling_span.Close();

  VASTATS_ASSIGN_OR_RETURN(AnswerStatistics stats,
                           ExtractFromSamples(std::move(samples)));
  stats.timings.sampling_seconds = sampling_seconds;
  stats.degradation = std::move(degradation);

  const double total_seconds = extract_span.Close();
  if (!ReconcilePhaseTimings(stats.timings, total_seconds)) {
    obs.GetCounter("phase_timing_clamps_total").Increment();
  }
  return stats;
}

Result<DegradationReport> AnswerStatisticsExtractor::SampleDegradedPhase(
    std::vector<double>* samples) const {
  const FaultToleranceOptions& fault = *options_.fault_tolerance;
  const ObsOptions& obs = options_.obs;
  VASTATS_ASSIGN_OR_RETURN(
      const SourceAccessor accessor,
      SourceAccessor::Create(sampler_.sources().NumSources(), fault.model,
                             fault.retry, fault.breaker));

  DegradationReport report;
  std::vector<double> coverages;
  if (options_.adaptive.has_value()) {
    // The adaptive growth loop is inherently sequential: one session spans
    // the whole phase, and epochs advance per draw — so it uses one
    // transport channel for the whole phase, too.
    std::unique_ptr<transport::TransportChannel> channel;
    if (fault.transport != nullptr) {
      VASTATS_ASSIGN_OR_RETURN(
          channel, fault.transport->OpenChannel(obs.metrics, obs.recorder));
    }
    AccessSession session =
        accessor.StartSession(obs.metrics, obs.recorder, channel.get());
    VASTATS_ASSIGN_OR_RETURN(
        AdaptiveSamplingResult adaptive,
        AdaptiveUniSSamplingDegraded(sampler_, *options_.adaptive, session,
                                     fault.min_draw_coverage, options_.seed,
                                     obs));
    *samples = std::move(adaptive.samples);
    coverages = std::move(adaptive.coverages);
    report.draws_requested = adaptive.draws_requested;
    report.draws_dropped = adaptive.dropped_draws;
    report.access = session.Finish();
  } else {
    // The chunk driver at every width, as on the fault-free path: the
    // drawn samples, the fault schedule, and the breaker transitions are
    // bit-identical across serial, call-scoped-pool and persistent-pool
    // execution.
    ParallelSampleOptions parallel = SamplingOptions();
    if (fault.transport != nullptr) {
      // Each chunk stream opens its own channel; endpoint outcomes stay
      // keyed by global slot epochs, so transported chunks keep the
      // width-invariance contract. A channel that cannot open (fd
      // exhaustion under the socket-pair backend) falls back to the
      // simulated seam for that chunk — same keyed outcomes, no transport.
      transport::AsyncSourceTransport* async = fault.transport;
      parallel.transport_factory =
          [async, &obs]() -> std::unique_ptr<VisitTransport> {
        Result<std::unique_ptr<transport::TransportChannel>> channel =
            async->OpenChannel(obs.metrics, obs.recorder);
        if (!channel.ok()) return nullptr;
        return std::move(channel).value();
      };
    }
    VASTATS_ASSIGN_OR_RETURN(
        FaultAwareSampleResult result,
        ParallelUniSSampleWithFaults(sampler_, options_.initial_sample_size,
                                     accessor, fault.min_draw_coverage,
                                     parallel));
    *samples = std::move(result.values);
    coverages = std::move(result.coverages);
    report.draws_requested = options_.initial_sample_size;
    report.draws_dropped = result.dropped_draws;
    report.access = std::move(result.access);
  }

  report.draws_kept = static_cast<int>(samples->size());
  if (!coverages.empty()) {
    double min_cov = 1.0;
    double sum = 0.0;
    for (const double c : coverages) {
      min_cov = std::min(min_cov, c);
      sum += c;
    }
    report.min_coverage = min_cov;
    report.mean_coverage = sum / static_cast<double>(coverages.size());
  }
  report.degraded = report.draws_dropped > 0 || report.min_coverage < 1.0 ||
                    report.access.failed_visits > 0 ||
                    report.access.transient_failures > 0 ||
                    report.access.breaker_open_skips > 0 ||
                    report.access.deadline_truncated_draws > 0;
  if (obs.metrics != nullptr && report.degraded) {
    obs.GetCounter("extract_degraded_total").Increment();
  }
  if (samples->size() < 8) {
    // The one way a degraded extraction still fails: not even a minimal
    // answer sample survived (e.g. some component lost every live source).
    return Status::FailedPrecondition(
        "degraded sampling kept only " + std::to_string(samples->size()) +
        " of " + std::to_string(report.draws_requested) +
        " draws (>= 8 needed); sources too degraded to extract");
  }
  return report;
}

Result<AnswerStatistics> AnswerStatisticsExtractor::ExtractFromSamples(
    std::vector<double> samples) const {
  if (samples.size() < 8) {
    return Status::InvalidArgument(
        "ExtractFromSamples requires >= 8 viable answer samples");
  }
  AnswerStatistics stats{
      .mean = {},
      .variance = {},
      .std_dev = {},
      .skewness = {},
      .density = GridDensity::Create(0.0, 1.0, {0.0, 0.0}).value(),
      .coverage = {},
      .stability = {},
      .samples = std::move(samples),
      .answer_weight_y = 0.0,
      .timings = {},
      .degradation = {}};
  const ObsOptions& obs = options_.obs;
  ScopedSpan pipeline_span(obs, "extract_from_samples");
  pipeline_span.Annotate("samples", static_cast<int64_t>(stats.samples.size()));
  obs.GetCounter("extractions_total").Increment();

  // Phase 2: bootstrap resampling (line 3). Each PhaseTimings entry is the
  // Close() of the phase's own span, so the Figure 6 table and an exported
  // trace are two views of one measurement.
  ScopedSpan bootstrap_span(obs, "bootstrap");
  bootstrap_span.Annotate("pool", options_.pool != nullptr);
  VASTATS_ASSIGN_OR_RETURN(
      const std::vector<std::vector<double>> sets,
      BootstrapSets(stats.samples, options_.bootstrap, options_.seed));
  stats.timings.bootstrap_seconds = bootstrap_span.Close();

  // Phases 3-4: bagged point statistics + confidence intervals (lines 4-5).
  ScopedSpan point_span(obs, "point_statistics");
  VASTATS_ASSIGN_OR_RETURN(
      stats.mean, EstimatePoint(MomentStatistic::kMean, stats.samples, sets));
  VASTATS_ASSIGN_OR_RETURN(
      stats.variance,
      EstimatePoint(MomentStatistic::kVariance, stats.samples, sets));
  VASTATS_ASSIGN_OR_RETURN(
      stats.std_dev,
      EstimatePoint(MomentStatistic::kStdDev, stats.samples, sets));
  VASTATS_ASSIGN_OR_RETURN(
      stats.skewness,
      EstimatePoint(MomentStatistic::kSkewness, stats.samples, sets));
  stats.timings.point_statistics_seconds = point_span.Close();

  // Phase 5: bagged density estimation (line 6).
  ScopedSpan kde_span(obs, "kde");
  BaggedKdeOptions bagged_options;
  bagged_options.kde = options_.kde;
  bagged_options.bandwidth_mode = options_.kde_bandwidth_mode;
  bagged_options.plan_provider = options_.cache_hooks.plan_provider;
  // Bandwidth cache seam: only the shared-bandwidth mode runs the selector
  // exactly once on S_uniS, so only there can a cached h stand in for the
  // whole selector run. A hit is injected as a manual override — the
  // selector returns overrides verbatim, so the density is bit-identical to
  // the cold run that stored the value.
  const bool bandwidth_cacheable =
      options_.kde_bandwidth_mode == BandwidthMode::kShared &&
      !(options_.kde.bandwidth > 0.0);
  bool bandwidth_from_cache = false;
  if (bandwidth_cacheable && options_.cache_hooks.bandwidth_lookup) {
    if (const std::optional<double> cached =
            options_.cache_hooks.bandwidth_lookup()) {
      bagged_options.kde.bandwidth = *cached;
      bandwidth_from_cache = true;
    }
  }
  VASTATS_ASSIGN_OR_RETURN(
      const BaggedKde kde,
      EstimateBaggedKde(sets, stats.samples, bagged_options, obs,
                        options_.pool));
  if (bandwidth_cacheable && !bandwidth_from_cache &&
      options_.cache_hooks.bandwidth_store) {
    options_.cache_hooks.bandwidth_store(kde.bandwidth);
  }
  stats.density = kde.density;
  stats.timings.kde_seconds = kde_span.Close();

  // Phase 6: high coverage intervals (line 7).
  ScopedSpan cio_span(obs, "cio");
  VASTATS_ASSIGN_OR_RETURN(stats.coverage,
                           GreedyCio(stats.density, options_.cio, obs));
  stats.timings.cio_seconds = cio_span.Close();

  // Phase 7: stability score (line 8) — analytic, no removal simulation.
  ScopedSpan stability_span(obs, "stability");
  VASTATS_ASSIGN_OR_RETURN(
      stats.answer_weight_y,
      sampler_.EstimateSourcesPerAnswer(options_.weight_probes, options_.seed,
                                        obs));
  thread_local DctPlan stability_plan;  // lint-invariants: allow(A5)
  DctPlan* const plan = options_.cache_hooks.plan_provider
                            ? options_.cache_hooks.plan_provider()
                            : &stability_plan;
  const uint64_t plan_evictions_before = plan->evictions();
  VASTATS_ASSIGN_OR_RETURN(
      stats.stability,
      ComputeStability(stats.samples, kde.bandwidth, stats.answer_weight_y,
                       sampler_.sources().NumSources(), options_.stability_r,
                       options_.change_ratio_estimator, options_.stability,
                       obs, plan));
  if (plan->evictions() > plan_evictions_before) {
    obs.GetCounter("dct_plan_evictions_total")
        .Increment(plan->evictions() - plan_evictions_before);
  }
  stability_span.Annotate(
      "psi_mode", stats.stability.psi_mode == StabilityPsiMode::kBinned
                      ? "binned"
                      : "exact");
  stability_span.Annotate(
      "psi_grid_size", static_cast<int64_t>(options_.stability.grid_size));
  stats.timings.stability_seconds = stability_span.Close();
  return stats;
}

}  // namespace vastats
