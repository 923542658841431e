#include "sampling/weighted.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace vastats {

Result<std::vector<double>> EstimateSourceQuality(
    const SourceSet& sources, std::span<const ComponentId> components,
    const SourceQualityOptions& options) {
  if (components.empty()) {
    return Status::InvalidArgument(
        "EstimateSourceQuality needs a component scope");
  }
  if (!(options.softness > 0.0) || !(options.default_weight > 0.0)) {
    return Status::InvalidArgument(
        "softness and default_weight must be > 0");
  }
  const size_t num_sources = static_cast<size_t>(sources.NumSources());
  std::vector<double> deviation_sum(num_sources, 0.0);
  std::vector<int> scored(num_sources, 0);
  std::vector<double> all_deviations;

  for (const ComponentId component : components) {
    const std::vector<int> covering = sources.Covering(component);
    if (covering.size() < 2) continue;  // no cross-check possible
    std::vector<double> values;
    values.reserve(covering.size());
    for (const int s : covering) {
      VASTATS_ASSIGN_OR_RETURN(const double v,
                               sources.source(s).Value(component));
      values.push_back(v);
    }
    VASTATS_ASSIGN_OR_RETURN(const double consensus, Median(values));
    for (size_t i = 0; i < covering.size(); ++i) {
      const double deviation = std::fabs(values[i] - consensus);
      deviation_sum[static_cast<size_t>(covering[i])] += deviation;
      ++scored[static_cast<size_t>(covering[i])];
      all_deviations.push_back(deviation);
    }
  }
  if (all_deviations.empty()) {
    // No overlap anywhere: all sources equally credible.
    return std::vector<double>(num_sources, options.default_weight);
  }
  VASTATS_ASSIGN_OR_RETURN(double scale, Median(all_deviations));
  if (scale <= 0.0) {
    // Majority of bindings agree exactly; fall back to the mean deviation,
    // and finally to 1 so the weight map stays defined.
    scale = ComputeMoments(all_deviations).mean();
    if (scale <= 0.0) scale = 1.0;
  }

  std::vector<double> weights(num_sources, options.default_weight);
  for (size_t s = 0; s < num_sources; ++s) {
    if (scored[s] == 0) continue;
    const double avg_deviation =
        deviation_sum[s] / static_cast<double>(scored[s]);
    weights[s] = 1.0 / (1.0 + avg_deviation / (options.softness * scale));
  }
  return weights;
}

Result<std::vector<double>> ApplyBreakerSeverityPriors(
    std::vector<double> weights, std::span<const uint8_t> breaker_severity,
    const BreakerSeverityPriorOptions& options) {
  if (!(options.half_open_factor > 0.0 && options.half_open_factor <= 1.0) ||
      !(options.open_factor > 0.0 && options.open_factor <= 1.0)) {
    return Status::InvalidArgument(
        "breaker severity factors must be in (0, 1]");
  }
  if (!(options.min_weight > 0.0)) {
    return Status::InvalidArgument("min_weight must be > 0");
  }
  if (breaker_severity.size() > weights.size()) {
    return Status::InvalidArgument(
        "breaker_severity covers more sources than the weight vector");
  }
  for (size_t s = 0; s < breaker_severity.size(); ++s) {
    double factor = 1.0;
    if (breaker_severity[s] == 1) {
      factor = options.half_open_factor;
    } else if (breaker_severity[s] >= 2) {
      factor = options.open_factor;
    }
    weights[s] = std::max(options.min_weight, weights[s] * factor);
  }
  return weights;
}

Result<WeightedUniSSampler> WeightedUniSSampler::Create(
    const SourceSet* sources, AggregateQuery query,
    std::vector<double> weights) {
  VASTATS_ASSIGN_OR_RETURN(UniSSampler unis,
                           UniSSampler::Create(sources, std::move(query)));
  if (static_cast<int>(weights.size()) != sources->NumSources()) {
    return Status::InvalidArgument(
        "weights must have one entry per source");
  }
  for (const double w : weights) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument("weights must be finite and > 0");
    }
  }
  return WeightedUniSSampler(std::move(unis), std::move(weights));
}

Result<double> WeightedUniSSampler::SampleOne(Rng& rng) const {
  // Weighted-random permutation via exponential keys: sorting ascending by
  // Exp(w_s) realizes successive sampling proportional to the weights.
  std::vector<std::pair<double, int>> keyed(weights_.size());
  for (size_t s = 0; s < weights_.size(); ++s) {
    keyed[s] = {rng.Exponential(weights_[s]), static_cast<int>(s)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<int> order(keyed.size());
  for (size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  VASTATS_ASSIGN_OR_RETURN(const UniSSample sample,
                           unis_.SampleOneInOrder(order));
  return sample.value;
}

Result<std::vector<double>> WeightedUniSSampler::Sample(
    int n, Rng& rng, const ObsOptions& obs) const {
  if (n <= 0) return Status::InvalidArgument("Sample requires n > 0");
  ScopedSpan span(obs, "weighted_sample");
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    VASTATS_ASSIGN_OR_RETURN(const double v, SampleOne(rng));
    values.push_back(v);
  }
  obs.GetCounter("weighted_draws_total").Increment(static_cast<uint64_t>(n));
  span.Annotate("draws", static_cast<int64_t>(n));
  return values;
}

}  // namespace vastats
