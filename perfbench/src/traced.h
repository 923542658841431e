// The traced extraction: AnswerStatisticsExtractor::Create + Extract(), the
// same calls the untraced op makes, with a vastats::Trace and a
// MetricsRegistry attached through ExtractorOptions::obs. The layer times are
// the extractor's own phase timings (PhaseTimings, the Close() of its phase
// spans) and the counts are the library's own counters, so they stay the
// times and counts of what Extract() does whatever its internals become.
//
// The benchmark adds only the splits PhaseTimings lacks: it times Create
// itself, splits the weight probe out of the stability phase by the probe's
// own span, and, after the op, times one sampling call for the sampling
// phase's CPU per wall second.

#ifndef VASTATS_PERFBENCH_TRACED_H_
#define VASTATS_PERFBENCH_TRACED_H_

#include <cstdint>

#include "harness.h"
#include "vastats/vastats.h"

namespace perfbench {

// Per-op layer times, in the order the pipeline runs them.
enum Slot {
  kCreate,          // core: AnswerStatisticsExtractor::Create (sampler index)
  kSamplingDraw,    // sampling: the uniS draws (through the transport on chaos)
  kWeightProbe,     // sampling: EstimateSourcesPerAnswer
  kBootstrap,       // stats: BootstrapSets
  kCi,              // stats: bagged point statistics and their CIs, x4
  kKde,             // density: EstimateBaggedKde (selector included)
  kCio,             // core: GreedyCio
  kStability,       // core: ComputeStability
  kNumSlots,
};

inline constexpr const char* kSlotNames[kNumSlots] = {
    "core.create", "sampling.draw", "sampling.weight_probe", "stats.bootstrap",
    "stats.ci",    "density.kde",   "core.cio",              "core.stability"};

// Everything one traced op measured.
struct LayerSample {
  double slot_ms[kNumSlots] = {};
  double op_ms = 0.0;  // the whole traced op: Create + Extract()
  // The sampling probe, timed after the op (fault-free ops only).
  double probe_wall_ms = 0.0;
  double probe_cpu_ms = 0.0;
  uint64_t draws = 0;
  uint64_t visits = 0;
  uint64_t kde_fits = 0;
  uint64_t botev_iterations = 0;
  // Fault-tolerant ops only: the sampling phase of the same extraction on
  // the simulated seam, to split out transport wait.
  double simulated_draw_ms = 0.0;

  double AttributedMs() const {
    double sum = 0.0;
    for (const double ms : slot_ms) sum += ms;
    return sum;
  }
};

struct TracedRun {
  SpanLane* lane = nullptr;  // null = time without recording spans
  int64_t op = 0;
  // Attribution self-test: route the extraction's DCT plan requests through
  // the benchmark (ExtractionCacheHooks::plan_provider, with a fresh plan
  // per op as EstimateBaggedKde's serial path builds) and busy-wait
  // `plant_kde_delay_ms` on the op's first request, which EstimateBaggedKde
  // makes on the calling thread before its first fit. Planted and plain ops
  // of a self-test run both set `plan_hook`, so only the delay differs.
  bool plan_hook = false;
  double plant_kde_delay_ms = 0.0;
  // Charge the sampling probe with the calling thread's CPU time instead of
  // the process's, for callers that run beside other busy threads.
  bool thread_cpu = false;
};

// Runs Create + Extract() for (sources, query, options) with the trace and
// counters attached, imports the extractor's spans into `run.lane` under an
// "op" span, and adds the op's layer times and counts to `sample`.
vastats::Result<vastats::AnswerStatistics> ExtractTraced(
    const vastats::SourceSet* sources, const vastats::AggregateQuery& query,
    const vastats::ExtractorOptions& options, const TracedRun& run,
    LayerSample* sample);

// Create + Extract(), the untraced op every workload times.
vastats::Result<vastats::AnswerStatistics> ExtractOnce(
    const vastats::SourceSet* sources, const vastats::AggregateQuery& query,
    const vastats::ExtractorOptions& options);

}  // namespace perfbench

#endif  // VASTATS_PERFBENCH_TRACED_H_
