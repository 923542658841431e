// Deterministic fault injection for source access.
//
// The paper's premise is that sources are independently managed and
// unreliable (§4.4 models "r sources may leave the system"); a production
// deployment against remote sources sees transient failures, latency
// spikes, corrupt payloads, and permanent outages as steady state. This
// module lets every one of those be *simulated, bit-reproducibly*:
//
//  * `FaultModel` assigns each source a transient-failure probability, a
//    latency distribution, a payload-corruption probability, and an
//    optional scheduled permanent outage starting at draw epoch k. All
//    per-access decisions are PURE FUNCTIONS of (seed, source, epoch,
//    attempt) via keyed sub-streams of the seeded Rng facade — no shared
//    mutable RNG state — so the same fault hits the same access no matter
//    how draws are scheduled across threads or pools.
//  * `VirtualClock` extends the simulated-milliseconds idea of
//    integration/cost_model.h to the fault layer: access latencies and
//    retry backoffs advance simulated time, never wall clocks, so deadline
//    budgets and breaker cooldowns are deterministic and chaos experiments
//    run instantly. (tools/lint_invariants.py rule R7 keeps real
//    std::chrono clock reads out of this code.)

#ifndef VASTATS_DATAGEN_FAULT_MODEL_H_
#define VASTATS_DATAGEN_FAULT_MODEL_H_

#include <cstdint>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace vastats {

// Simulated-milliseconds clock. Starts at zero; only ever advanced by the
// access layer (latencies, backoff waits). Cheap value type — each access
// session owns one, which is what keeps chaos runs independent of how
// sessions are scheduled onto threads.
class VirtualClock {
 public:
  double NowMs() const { return now_ms_; }

  // Advances simulated time; negative advances are ignored (a fault model
  // jitter draw can never rewind time).
  void AdvanceMs(double ms) {
    if (ms > 0.0) now_ms_ += ms;
  }

 private:
  double now_ms_ = 0.0;
};

struct FaultModelOptions {
  // Baseline probability that one access attempt to a source fails
  // transiently (timeouts, connection resets, 5xx).
  double transient_failure_prob = 0.0;
  // Per-source spread: source s fails with probability
  // clamp(transient_failure_prob * exp(N(0, failure_spread_sigma)), 0, 1),
  // drawn once per source at model creation — some peers are flakier.
  double failure_spread_sigma = 0.0;
  // Probability that an individual component value inside a successful
  // payload arrives corrupted (the accessor surfaces it as NaN and rejects
  // it rather than binding garbage).
  double corrupt_value_prob = 0.0;
  // Simulated access latency: base + per-component transfer cost, scaled
  // by exp(N(0, latency_jitter_sigma)) per attempt.
  double latency_base_ms = 1.0;
  double latency_per_component_ms = 0.05;
  double latency_jitter_sigma = 0.0;
  // Scheduled permanent outage: a deterministic `outage_fraction` of the
  // sources goes dark for every draw epoch >= `outage_epoch` (epoch = the
  // global draw index within an extraction). 0 disables outages.
  double outage_fraction = 0.0;
  int64_t outage_epoch = 0;
  // Seed of every keyed decision stream; equal seeds + options + ids give
  // bit-identical fault schedules.
  uint64_t seed = 0xfa017ULL;

  Status Validate() const;
};

// Immutable per-source fault parameters plus the keyed decision streams.
// Shared read-only across threads; all methods are const and state-free.
class FaultModel {
 public:
  static Result<FaultModel> Create(int num_sources,
                                   const FaultModelOptions& options);

  int num_sources() const { return static_cast<int>(failure_prob_.size()); }
  const FaultModelOptions& options() const { return options_; }

  // Source s's effective per-attempt transient-failure probability.
  double TransientFailureProb(int source) const {
    return failure_prob_[static_cast<size_t>(source)];
  }

  // True when `source` is scheduled dark at draw `epoch`.
  bool PermanentlyOut(int source, int64_t epoch) const {
    const int64_t start = outage_epoch_[static_cast<size_t>(source)];
    return start >= 0 && epoch >= start;
  }

  // Sources carrying a scheduled outage (ascending).
  const std::vector<int>& outage_sources() const { return outage_sources_; }

  // Keyed per-access decisions — pure functions of the identifiers.
  bool AttemptFails(int source, int64_t epoch, int attempt) const;
  bool ValueCorrupted(int source, int64_t epoch, int component_pos) const;
  double AttemptLatencyMs(int source, int64_t epoch, int attempt,
                          int num_components) const;
  // Uniform [0,1) used by the retry policy's deterministic backoff jitter.
  double BackoffJitterU01(int source, int64_t epoch, int attempt) const;

 private:
  FaultModel(FaultModelOptions options, std::vector<double> failure_prob,
             std::vector<int64_t> outage_epoch,
             std::vector<int> outage_sources)
      : options_(options),
        failure_prob_(std::move(failure_prob)),
        outage_epoch_(std::move(outage_epoch)),
        outage_sources_(std::move(outage_sources)) {}

  FaultModelOptions options_;
  std::vector<double> failure_prob_;   // per source, in [0, 1]
  std::vector<int64_t> outage_epoch_;  // per source; -1 = never
  std::vector<int> outage_sources_;
};

}  // namespace vastats

#endif  // VASTATS_DATAGEN_FAULT_MODEL_H_
