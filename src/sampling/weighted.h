// Provenance-aware sampling — the paper's §7 future work made concrete:
// "the current uniS sampling algorithm assumes equal importance for the
// sources and samples them uniformly and independently. However, the
// sources may have different levels of quality and coverage. Future work
// should consider some notion of provenance."
//
// Two pieces:
//  * EstimateSourceQuality — a data-driven quality score per source, from
//    how far its values sit from the per-component consensus (median across
//    covering sources). No external truth is needed.
//  * WeightedUniSSampler — uniS with a weighted-random visiting order
//    (successive sampling proportional to weight), so higher-quality
//    sources supply components more often while every source keeps a
//    non-zero chance of contributing.

#ifndef VASTATS_SAMPLING_WEIGHTED_H_
#define VASTATS_SAMPLING_WEIGHTED_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "datagen/source_set.h"
#include "obs/obs.h"
#include "stats/aggregate_query.h"
#include "sampling/unis.h"
#include "util/random.h"
#include "util/status.h"

namespace vastats {

struct SourceQualityOptions {
  // Deviation-to-weight softness: weight = 1 / (1 + dev / (softness * s))
  // where s is the median absolute deviation across all bindings. Smaller
  // values punish disagreement harder.
  double softness = 1.0;
  // Weight assigned to sources with no scored bindings (no overlap with any
  // other source on the scoped components).
  double default_weight = 1.0;
};

// Per-source quality weights in (0, 1], derived from agreement with the
// per-component median over `components`. Requires a non-empty scope.
Result<std::vector<double>> EstimateSourceQuality(
    const SourceSet& sources, std::span<const ComponentId> components,
    const SourceQualityOptions& options = {});

// How hard breaker severity discounts a source's quality prior. Factors
// are multiplicative and must sit in (0, 1]; `min_weight` keeps every
// source reachable (a zero weight would starve half-open probes and the
// breaker could never close again).
struct BreakerSeverityPriorOptions {
  double half_open_factor = 0.5;  // severity 1: probing after a cooldown
  double open_factor = 0.1;       // severity 2: breaker currently open
  double min_weight = 1e-6;
};

// Folds observed access health back into the visiting-order priors: each
// source's weight is discounted by the worst breaker severity a previous
// extraction recorded for it (AccessStats::breaker_severity), so degraded
// sources are actively avoided by the next weighted run instead of merely
// being refreshed first by the monitor. `breaker_severity` may be shorter
// than `weights` (or empty — e.g. before any degraded run finished);
// missing entries mean "closed" and keep their weight.
Result<std::vector<double>> ApplyBreakerSeverityPriors(
    std::vector<double> weights, std::span<const uint8_t> breaker_severity,
    const BreakerSeverityPriorOptions& options = {});

// uniS with a weighted-random source visiting order. With equal weights it
// coincides with UniSSampler (in distribution). The sampler owns only the
// order; every draw runs UniSSampler's draw loop over it.
class WeightedUniSSampler {
 public:
  // `weights` must have one strictly positive entry per source.
  // `sources` must outlive the sampler.
  static Result<WeightedUniSSampler> Create(const SourceSet* sources,
                                            AggregateQuery query,
                                            std::vector<double> weights);

  // Draws one viable answer.
  Result<double> SampleOne(Rng& rng) const;

  // Draws `n` viable answers. `obs` (optional) records a `weighted_sample`
  // span and the weighted draw counter.
  Result<std::vector<double>> Sample(int n, Rng& rng,
                                     const ObsOptions& obs = {}) const;

  const std::vector<double>& weights() const { return weights_; }

 private:
  WeightedUniSSampler(UniSSampler unis, std::vector<double> weights)
      : unis_(std::move(unis)), weights_(std::move(weights)) {}

  UniSSampler unis_;
  std::vector<double> weights_;
};

}  // namespace vastats

#endif  // VASTATS_SAMPLING_WEIGHTED_H_
