// Adaptive sample growth (paper §4.2): start from a fixed initial uniS
// sample, bootstrap it, check the confidence-interval length at the
// requested level, and keep drawing increments until the interval is tight
// enough (or a budget is hit). Minimizing |S_uniS| matters because each uniS
// draw touches the (possibly remote) data sources.
//
// The loop is a stopping rule on one fixed sample stream: round by round it
// takes draws 0, 1, 2, ... of the keyed uniS stream of `seed` (see
// sampling/parallel.h), so its first n samples are exactly the samples of a
// fixed n-draw run, and round r bootstraps from the keyed seed
// StreamKey(seed, StreamTag::kAdaptiveRound, r).

#ifndef VASTATS_SAMPLING_ADAPTIVE_H_
#define VASTATS_SAMPLING_ADAPTIVE_H_

#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "sampling/unis.h"
#include "stats/bootstrap.h"
#include "stats/confidence.h"
#include "util/random.h"
#include "util/status.h"

namespace vastats {

struct AdaptiveSamplingOptions {
  int initial_size = 400;
  int increment = 100;
  // Hard budget on |S_uniS|.
  int max_size = 4000;
  // Stop once len(CI_mean) <= target_ci_length (absolute units), or — when
  // target_relative_length > 0 — once len <= target_relative_length * scale,
  // where scale = max(|mean|, sample std-dev). Flooring the scale by the
  // std-dev keeps the relative target meaningful on zero-centered data,
  // where |mean| alone collapses the target to ~0 and the loop would burn
  // straight to max_size.
  double target_ci_length = 0.0;
  double target_relative_length = 0.0;
  double confidence_level = 0.90;
  CiMethod ci_method = CiMethod::kBca;
  BootstrapOptions bootstrap;

  Status Validate() const;
};

struct AdaptiveStep {
  int sample_size = 0;
  ConfidenceInterval mean_ci;
};

struct AdaptiveSamplingResult {
  std::vector<double> samples;
  std::vector<AdaptiveStep> trace;
  // Whether the length target was met within the budget.
  bool satisfied = false;
  // True when the relative target was computed from the std-dev floor
  // instead of |mean| in at least one round (|mean| < std-dev, e.g.
  // zero-centered data). Also surfaced as the `relative_target_floored`
  // span annotation.
  bool relative_target_floored = false;
  // Degraded-mode accounting (empty/zero on the fault-free path).
  // coverages[i] is the coverage of samples[i]; draws_requested counts
  // source-touching draw attempts (the quantity max_size budgets), and
  // dropped_draws the requested draws that produced no usable answer.
  std::vector<double> coverages;
  int draws_requested = 0;
  int dropped_draws = 0;
};

// Runs the grow-bootstrap-check loop against `sampler`. `obs` (optional)
// records an `adaptive_sampling` span (with one child per uniS batch) and
// the grow-round counter.
Result<AdaptiveSamplingResult> AdaptiveUniSSampling(
    const UniSSampler& sampler, const AdaptiveSamplingOptions& options,
    uint64_t seed, const ObsOptions& obs = {});

// The grow-bootstrap-check loop with every source visit routed through the
// fault-tolerant access seam. Draws whose coverage falls below
// `min_draw_coverage` (or that covered nothing) are dropped rather than
// failing the round, so the loop keeps growing on whatever the surviving
// sources can supply; `options.max_size` budgets *requested* draws, since
// dropped draws still touched sources. Fails only when the budget cannot
// even produce the >= 4 usable draws bootstrapping needs. Draws run through
// UniSSampler::SampleDegraded, so on a fresh session draw i is keyed by i.
Result<AdaptiveSamplingResult> AdaptiveUniSSamplingDegraded(
    const UniSSampler& sampler, const AdaptiveSamplingOptions& options,
    AccessSession& session, double min_draw_coverage, uint64_t seed,
    const ObsOptions& obs = {});

}  // namespace vastats

#endif  // VASTATS_SAMPLING_ADAPTIVE_H_
