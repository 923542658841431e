// AnswerStatisticsExtractor — the paper's Algorithm 1, end to end:
//
//   1. uniS-sample viable answers from the data sources        (§4.2)
//   2. bootstrap-resample the answer set                        (§2.1)
//   3. bagged point estimates: mean, variance, skewness         (§4.2)
//   4. BCa confidence intervals for each point estimate         (§4.2)
//   5. bagged KDE of the viable answer distribution             (§4.3)
//   6. greedy CIO high-coverage intervals                       (§4.3)
//   7. analytic stability scores                                (§4.4)
//
// Defaults follow Table 2: |S_uniS| = 400, |S_boot| = 50,
// |B^i_boot| = |S_uniS|, confidence level 90%, theta = 0.9, L2 distance.

#ifndef VASTATS_CORE_EXTRACTOR_H_
#define VASTATS_CORE_EXTRACTOR_H_

#include <functional>
#include <optional>
#include <vector>

#include "core/cio.h"
#include "core/stability.h"
#include "density/bagged_kde.h"
#include "sampling/adaptive.h"
#include "sampling/parallel.h"
#include "sampling/unis.h"
#include "stats/bootstrap.h"
#include "stats/confidence.h"
#include "util/status.h"

namespace vastats {

namespace transport {
class AsyncSourceTransport;
}  // namespace transport

// Fault-tolerant sampling configuration (see datagen/source_accessor.h).
// Attached to ExtractorOptions.fault_tolerance; when absent the sampling
// phase never touches the access seam and pays nothing for it existing.
struct FaultToleranceOptions {
  // Borrowed fault model driving the injected chaos; may be null, in which
  // case the seam still applies (visits always succeed instantly, breakers
  // never trip) — useful for exercising the degraded plumbing alone.
  const FaultModel* model = nullptr;
  RetryPolicy retry;
  CircuitBreakerOptions breaker;
  // Draws whose component coverage falls below this floor are dropped
  // instead of entering S_uniS; draws at or above it are kept as partial
  // viable answers (the paper's require_full_coverage = false path).
  double min_draw_coverage = 0.5;
  // Borrowed async transport (src/transport); null — the default — keeps
  // the deterministic inline fault simulation. When set, every sampling
  // session routes its source visits through a transport channel:
  // prefetched pipelined requests to worker-thread endpoints, optionally
  // hedged. Retry/backoff, breakers, and deadline budgets still run in the
  // session; build the transport over the SAME `model` and the extraction
  // (samples, DegradationReport, breaker transitions) is bit-identical to
  // the simulated run. Must outlive every Extract call that uses it.
  transport::AsyncSourceTransport* transport = nullptr;

  Status Validate() const;
};

// Seams a serving layer uses to share work across extractions. Every hook is
// optional (a default-constructed struct changes nothing), and every hook
// must preserve the bit-identity contract: a bandwidth served from a cache
// must be the exact double a cold selector run would have produced for the
// same samples and options, and a plan provider only moves where transform
// tables live — never what the transforms compute.
struct ExtractionCacheHooks {
  // Returns the DctPlan the *calling* thread should use for the KDE and
  // stability transforms. Invoked on whichever thread runs the transform
  // (pooled bagged-KDE workers included), so implementations must hand out
  // one plan per thread; plans are unsynchronized by design.
  std::function<DctPlan*()> plan_provider;
  // Botev bandwidth cache, consulted only under BandwidthMode::kShared with
  // no manual override. `bandwidth_lookup` returns the previously stored h
  // for this extraction's identity (or nullopt on a miss);
  // `bandwidth_store` publishes a freshly selected h for later hits.
  std::function<std::optional<double>()> bandwidth_lookup;
  std::function<void(double)> bandwidth_store;
};

struct ExtractorOptions {
  // |S_uniS| (Table 2 default 400); ignored when `adaptive` is set.
  int initial_sample_size = 400;
  BootstrapOptions bootstrap;           // 50 sets, |B| = |S_uniS|
  double confidence_level = 0.90;       // 1 - alpha
  CiMethod ci_method = CiMethod::kBca;  // paper uses BCa
  BagAggregator bag_aggregator = BagAggregator::kMean;
  KdeOptions kde;                       // 4096-point grid, Botev bandwidth
  // How the bagged density picks per-set bandwidths: kPerSet (paper
  // fidelity, one selector run per bootstrap set; the sets' smoothed
  // spectra are summed and transformed back once) or kShared (one selector
  // run on S_uniS reused across all sets — eliminates ~|S_boot| Botev runs
  // per extraction, and the bag becomes one binning pass and one DCT pair
  // instead of one fit per set). Bit-identical across pool widths either way.
  BandwidthMode kde_bandwidth_mode = BandwidthMode::kPerSet;
  CioOptions cio;                       // theta = 0.9
  // Stability parameters: r sources removed, c_r estimator, probes used to
  // estimate the per-answer weight y, and how Psi is evaluated (binned
  // Gauss transform by default; see core/stability.h).
  int stability_r = 1;
  ChangeRatioEstimator change_ratio_estimator = ChangeRatioEstimator::kGeometric;
  int weight_probes = 20;
  StabilityOptions stability;
  // Optional adaptive sample growth (§4.2) replacing the fixed initial size.
  std::optional<AdaptiveSamplingOptions> adaptive;
  // Optional fault-tolerant sampling: when set, phase 1 routes every source
  // visit through the SourceAccessor seam (retry/backoff, per-source
  // circuit breakers, corruption rejection) and the pipeline degrades to
  // partial draws instead of failing when sources misbehave. The resulting
  // AnswerStatistics carries a DegradationReport. Chaos runs use the same
  // chunk driver as fault-free ones, so with a fixed seed the extraction is
  // bit-identical across serial, call-scoped-pool and persistent-pool
  // sampling of any width.
  std::optional<FaultToleranceOptions> fault_tolerance;
  // uniS worker threads for the sampling phase: 1 = in-line (default),
  // 0 = hardware concurrency, k = k threads. Ignored under `adaptive`
  // (whose growth loop draws its rounds in-line). Every draw reads its own
  // keyed stream (sampling/parallel.h), so the drawn samples are identical
  // for every thread count, 1 included, and for any pool size; only the
  // dispatch differs.
  int sampling_threads = 1;
  // Borrowed persistent worker pool (optional, may be null). When set, the
  // parallel sampling phase, the per-set bootstrap statistic evaluations,
  // and the per-set KDE fits run as pool tasks instead of spawning threads
  // per call. Results are bit-identical with or without a pool.
  ThreadPool* pool = nullptr;
  // Key seed of every random decision of the extraction: uniS draw i,
  // bootstrap set b, weight probe j and adaptive round r each read their
  // own stream Rng(StreamKey(seed, tag, index)) (util/random.h). Runs with
  // equal seeds and options are bit-identical.
  uint64_t seed = 0x5eed;
  // Optional cross-extraction sharing seams (see ExtractionCacheHooks).
  // Default-constructed hooks are inert; results are bit-identical with or
  // without them by contract.
  ExtractionCacheHooks cache_hooks;
  // Optional telemetry sinks (borrowed, may both be null = disabled). With a
  // trace attached, every pipeline phase records a span under one `extract`
  // root, and PhaseTimings is derived from those same spans; with a metrics
  // registry attached, the samplers/KDE/CIO/stability stages publish
  // counters and histograms through it.
  ObsOptions obs;

  Status Validate() const;
};

struct PointEstimate {
  double value = 0.0;  // bagged estimate
  ConfidenceInterval ci;
};

// Wall-clock breakdown of the pipeline phases (drives Figure 6).
struct PhaseTimings {
  double sampling_seconds = 0.0;
  double bootstrap_seconds = 0.0;
  double point_statistics_seconds = 0.0;
  double kde_seconds = 0.0;
  double cio_seconds = 0.0;
  double stability_seconds = 0.0;

  double TotalSeconds() const {
    return sampling_seconds + bootstrap_seconds + point_statistics_seconds +
           kde_seconds + cio_seconds + stability_seconds;
  }
};

// Guards the Figure 6 invariant that the per-phase breakdown never exceeds
// the measured wall time of the whole pipeline (a phase counted twice would
// silently inflate the table). Returns true when TotalSeconds() is within
// `tolerance_fraction` of `total_elapsed_seconds`; otherwise scales every
// phase down proportionally so the sum equals the elapsed total and returns
// false.
bool ReconcilePhaseTimings(PhaseTimings& timings, double total_elapsed_seconds,
                           double tolerance_fraction = 0.05);

// How degraded an extraction ran. Populated only on the fault-tolerant
// path; a default-constructed report (degraded == false, coverage == 1)
// means the extraction never touched the access seam.
struct DegradationReport {
  // True when anything fell short of the fault-free ideal: dropped draws,
  // partial coverage, failed visits, breaker activity, or truncation.
  bool degraded = false;
  int draws_requested = 0;
  int draws_kept = 0;
  int draws_dropped = 0;
  // Coverage over the KEPT draws (min and mean); 1.0 when all were full.
  double min_coverage = 1.0;
  double mean_coverage = 1.0;
  // Merged access telemetry: retries, failures, breaker transitions and
  // per-source worst breaker severity (feeds the monitor's prioritization).
  AccessStats access;
};

// Everything Algorithm 1 returns (its grey-shaded outputs in Figure 3).
struct AnswerStatistics {
  PointEstimate mean;
  PointEstimate variance;
  PointEstimate std_dev;
  PointEstimate skewness;

  GridDensity density;          // the estimated viable answer distribution
  CoverageResult coverage;      // (I, L, C)
  StabilityReport stability;

  // Sampling metadata.
  std::vector<double> samples;  // S_uniS
  double answer_weight_y = 0.0;
  PhaseTimings timings;
  DegradationReport degradation;
};

class AnswerStatisticsExtractor {
 public:
  // `sources` must outlive the extractor.
  static Result<AnswerStatisticsExtractor> Create(const SourceSet* sources,
                                                  AggregateQuery query,
                                                  ExtractorOptions options);

  // Runs the full pipeline (draws fresh samples). Re-entrant: all mutable
  // state is call-local, so one extractor may serve concurrent Extract()
  // calls (the serving layer leans on this) — provided the attached obs
  // sinks are the thread-safe ones (metrics/recorder, no Trace) and any
  // cache hooks are themselves thread-safe.
  Result<AnswerStatistics> Extract() const;

  // Runs phases 2-7 on a pre-drawn viable answer sample (used by the
  // experiment harnesses and the serving batch path to share one expensive
  // sampling pass). Its random decisions are keyed by options().seed, so
  // on Extract()'s own samples it returns exactly what Extract() does.
  Result<AnswerStatistics> ExtractFromSamples(
      std::vector<double> samples) const;

  // The chunk-driver options of the sampling phase (width, seed, pool,
  // telemetry): what Extract() hands to ParallelUniSSample.
  ParallelSampleOptions SamplingOptions() const;

  const UniSSampler& sampler() const { return sampler_; }
  const ExtractorOptions& options() const { return options_; }

 private:
  AnswerStatisticsExtractor(UniSSampler sampler, ExtractorOptions options)
      : sampler_(std::move(sampler)), options_(std::move(options)) {}

  Result<PointEstimate> EstimatePoint(
      MomentStatistic statistic, std::span<const double> samples,
      std::span<const std::vector<double>> sets) const;

  // Phase 1 under options_.fault_tolerance: draws S_uniS through the access
  // seam (adaptive loop or chunk driver) and fills the report.
  Result<DegradationReport> SampleDegradedPhase(
      std::vector<double>* samples) const;

  UniSSampler sampler_;
  ExtractorOptions options_;
};

}  // namespace vastats

#endif  // VASTATS_CORE_EXTRACTOR_H_
