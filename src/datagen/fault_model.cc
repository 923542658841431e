#include "datagen/fault_model.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace vastats {

Status FaultModelOptions::Validate() const {
  const auto probability = [](double p) { return p >= 0.0 && p <= 1.0; };
  if (!probability(transient_failure_prob)) {
    return Status::InvalidArgument(
        "transient_failure_prob must be in [0, 1]");
  }
  if (!probability(corrupt_value_prob)) {
    return Status::InvalidArgument("corrupt_value_prob must be in [0, 1]");
  }
  if (!probability(outage_fraction)) {
    return Status::InvalidArgument("outage_fraction must be in [0, 1]");
  }
  if (failure_spread_sigma < 0.0 || latency_jitter_sigma < 0.0) {
    return Status::InvalidArgument("spread/jitter sigmas must be >= 0");
  }
  if (latency_base_ms < 0.0 || latency_per_component_ms < 0.0) {
    return Status::InvalidArgument("latency costs must be >= 0");
  }
  if (outage_epoch < 0) {
    return Status::InvalidArgument("outage_epoch must be >= 0");
  }
  return Status::Ok();
}

Result<FaultModel> FaultModel::Create(int num_sources,
                                      const FaultModelOptions& options) {
  if (num_sources <= 0) {
    return Status::InvalidArgument("FaultModel requires num_sources > 0");
  }
  VASTATS_RETURN_IF_ERROR(options.Validate());

  // Per-source parameters are drawn once here from a creation-time stream;
  // per-access decisions later use keyed streams and never touch this Rng.
  Rng rng(options.seed);
  std::vector<double> failure_prob(static_cast<size_t>(num_sources),
                                   options.transient_failure_prob);
  if (options.failure_spread_sigma > 0.0 &&
      options.transient_failure_prob > 0.0) {
    for (double& p : failure_prob) {
      p = std::clamp(
          p * std::exp(rng.Normal(0.0, options.failure_spread_sigma)), 0.0,
          1.0);
    }
  }

  std::vector<int64_t> outage_epoch(static_cast<size_t>(num_sources), -1);
  std::vector<int> outage_sources;
  const int num_out = static_cast<int>(
      options.outage_fraction * static_cast<double>(num_sources));
  if (num_out > 0) {
    std::vector<int> order = rng.Permutation(num_sources);
    outage_sources.assign(order.begin(), order.begin() + num_out);
    std::sort(outage_sources.begin(), outage_sources.end());
    for (const int s : outage_sources) {
      outage_epoch[static_cast<size_t>(s)] = options.outage_epoch;
    }
  }
  return FaultModel(options, std::move(failure_prob),
                    std::move(outage_epoch), std::move(outage_sources));
}

bool FaultModel::AttemptFails(int source, int64_t epoch, int attempt) const {
  const double p = failure_prob_[static_cast<size_t>(source)];
  if (p <= 0.0) return false;
  Rng rng(FaultKey(options_.seed, StreamTag::kFaultFail,
                   static_cast<uint64_t>(source),
                   static_cast<uint64_t>(epoch),
                   static_cast<uint64_t>(attempt)));
  return rng.Bernoulli(p);
}

bool FaultModel::ValueCorrupted(int source, int64_t epoch,
                                int component_pos) const {
  if (options_.corrupt_value_prob <= 0.0) return false;
  Rng rng(FaultKey(options_.seed, StreamTag::kFaultCorrupt,
                   static_cast<uint64_t>(source),
                   static_cast<uint64_t>(epoch),
                   static_cast<uint64_t>(component_pos)));
  return rng.Bernoulli(options_.corrupt_value_prob);
}

double FaultModel::AttemptLatencyMs(int source, int64_t epoch, int attempt,
                                    int num_components) const {
  double latency = options_.latency_base_ms +
                   options_.latency_per_component_ms *
                       static_cast<double>(std::max(num_components, 0));
  if (options_.latency_jitter_sigma > 0.0 && latency > 0.0) {
    Rng rng(FaultKey(options_.seed, StreamTag::kFaultLatency,
                     static_cast<uint64_t>(source),
                     static_cast<uint64_t>(epoch),
                     static_cast<uint64_t>(attempt)));
    latency *= std::exp(rng.Normal(0.0, options_.latency_jitter_sigma));
  }
  return latency;
}

double FaultModel::BackoffJitterU01(int source, int64_t epoch,
                                    int attempt) const {
  Rng rng(FaultKey(options_.seed, StreamTag::kFaultJitter,
                   static_cast<uint64_t>(source),
                   static_cast<uint64_t>(epoch),
                   static_cast<uint64_t>(attempt)));
  return rng.Uniform01();
}

}  // namespace vastats
