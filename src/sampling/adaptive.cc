#include "sampling/adaptive.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sampling/parallel.h"
#include "stats/descriptive.h"
#include "stats/jackknife.h"

namespace vastats {
namespace {

// One bootstrap-and-check round of the growth loop:
// bootstraps the mean CI and resolves the (possibly relative) length target.
struct RoundCheck {
  ConfidenceInterval ci;
  double target = 0.0;
  bool floored = false;
};

Result<RoundCheck> CheckRound(const std::vector<double>& samples,
                              const AdaptiveSamplingOptions& options,
                              uint64_t seed) {
  RoundCheck round;
  const Moments moments = ComputeMoments(samples);
  const double mean = moments.mean();
  VASTATS_ASSIGN_OR_RETURN(
      const std::vector<double> replicates,
      BootstrapReplicates(samples, MomentStatisticFn(MomentStatistic::kMean),
                          options.bootstrap, seed));
  std::vector<double> jackknife;
  if (options.ci_method == CiMethod::kBca) {
    VASTATS_ASSIGN_OR_RETURN(jackknife,
                             JackknifeMoment(samples, MomentStatistic::kMean));
  }
  VASTATS_ASSIGN_OR_RETURN(
      round.ci, ComputeBootstrapCi(options.ci_method, replicates, mean,
                                   options.confidence_level, jackknife));
  round.target = options.target_ci_length;
  if (options.target_relative_length > 0.0) {
    // Floor |mean| by the sample std-dev: on zero-centered data |mean|
    // alone drives the relative target to ~0 and the loop can never
    // satisfy it (it just burns draws until max_size).
    const double sd = moments.SampleStdDev();
    const double scale = std::max(std::fabs(mean), sd);
    if (std::fabs(mean) < sd) round.floored = true;
    const double relative = options.target_relative_length * scale;
    round.target =
        (round.target > 0.0) ? std::min(round.target, relative) : relative;
  }
  return round;
}

// The grow-bootstrap-check loop behind both entry points. `draw(count)`
// requests `count` more draws, appending the usable ones to `result`;
// `exhausted()` reports a source-access budget that ran out before
// options.max_size requested draws.
Status GrowUntilTight(const AdaptiveSamplingOptions& options, uint64_t seed,
                      const ObsOptions& obs,
                      const std::function<Status(int)>& draw,
                      const std::function<bool()>& exhausted,
                      AdaptiveSamplingResult& result) {
  int requested = options.initial_size;
  VASTATS_RETURN_IF_ERROR(draw(requested));
  for (;;) {
    const int budget_left = options.max_size - requested;
    const bool out_of_budget = budget_left <= 0 || exhausted();
    if (static_cast<int>(result.samples.size()) >= 4) {
      obs.GetCounter("adaptive_rounds_total").Increment();
      VASTATS_ASSIGN_OR_RETURN(
          const RoundCheck round,
          CheckRound(result.samples, options,
                     StreamKey(seed, StreamTag::kAdaptiveRound,
                               result.trace.size())));
      result.trace.push_back(
          AdaptiveStep{static_cast<int>(result.samples.size()), round.ci});
      if (round.floored) result.relative_target_floored = true;
      if (round.ci.Length() <= round.target) {
        result.satisfied = true;
        break;
      }
      if (out_of_budget) break;
    } else if (out_of_budget) {
      // Too few usable draws to bootstrap, and the budget cannot produce
      // more. Only dropped draws get here; the fault-free path never drops.
      return Status::FailedPrecondition(
          "degraded adaptive sampling could not obtain 4 usable draws "
          "within the budget (sources too degraded)");
    }
    const int grow = std::min(options.increment, budget_left);
    requested += grow;
    VASTATS_RETURN_IF_ERROR(draw(grow));
  }
  return Status::Ok();
}

}  // namespace

Status AdaptiveSamplingOptions::Validate() const {
  if (initial_size < 4) {
    return Status::InvalidArgument("initial_size must be >= 4");
  }
  if (increment <= 0) return Status::InvalidArgument("increment must be > 0");
  if (max_size < initial_size) {
    return Status::InvalidArgument("max_size must be >= initial_size");
  }
  if (target_ci_length <= 0.0 && target_relative_length <= 0.0) {
    return Status::InvalidArgument(
        "one of target_ci_length / target_relative_length must be > 0");
  }
  if (!(confidence_level > 0.0 && confidence_level < 1.0)) {
    return Status::InvalidArgument("confidence_level must be in (0,1)");
  }
  return bootstrap.Validate();
}

Result<AdaptiveSamplingResult> AdaptiveUniSSampling(
    const UniSSampler& sampler, const AdaptiveSamplingOptions& options,
    uint64_t seed, const ObsOptions& obs) {
  VASTATS_RETURN_IF_ERROR(options.Validate());

  ScopedSpan span(obs, "adaptive_sampling");
  AdaptiveSamplingResult result;
  ParallelSampleOptions stream;
  stream.num_threads = 1;
  stream.seed = seed;
  stream.obs = obs;
  const auto draw = [&](int count) -> Status {
    VASTATS_ASSIGN_OR_RETURN(
        const std::vector<double> batch,
        ParallelUniSSample(sampler, count, stream,
                           static_cast<int>(result.samples.size())));
    result.samples.insert(result.samples.end(), batch.begin(), batch.end());
    return Status::Ok();
  };
  VASTATS_RETURN_IF_ERROR(GrowUntilTight(
      options, seed, obs, draw, [] { return false; }, result));
  span.Annotate("rounds", static_cast<int64_t>(result.trace.size()));
  span.Annotate("final_size", static_cast<int64_t>(result.samples.size()));
  span.Annotate("satisfied", result.satisfied);
  span.Annotate("relative_target_floored", result.relative_target_floored);
  return result;
}

Result<AdaptiveSamplingResult> AdaptiveUniSSamplingDegraded(
    const UniSSampler& sampler, const AdaptiveSamplingOptions& options,
    AccessSession& session, double min_draw_coverage, uint64_t seed,
    const ObsOptions& obs) {
  VASTATS_RETURN_IF_ERROR(options.Validate());
  if (!(min_draw_coverage >= 0.0 && min_draw_coverage <= 1.0)) {
    return Status::InvalidArgument("min_draw_coverage must be in [0, 1]");
  }

  ScopedSpan span(obs, "adaptive_sampling_degraded");
  AdaptiveSamplingResult result;
  const auto draw = [&](int count) -> Status {
    VASTATS_ASSIGN_OR_RETURN(const std::vector<UniSSample> batch,
                             sampler.SampleDegraded(count, seed, session, obs));
    result.draws_requested += count;
    for (const UniSSample& s : batch) {
      if (s.coverage < min_draw_coverage) {
        ++result.dropped_draws;
        continue;
      }
      result.samples.push_back(s.value);
      result.coverages.push_back(s.coverage);
    }
    // Zero-coverage and budget-abandoned draws never made it into the batch.
    result.dropped_draws += count - static_cast<int>(batch.size());
    return Status::Ok();
  };
  VASTATS_RETURN_IF_ERROR(GrowUntilTight(
      options, seed, obs, draw,
      [&session] { return session.SessionBudgetExhausted(); }, result));
  span.Annotate("rounds", static_cast<int64_t>(result.trace.size()));
  span.Annotate("final_size", static_cast<int64_t>(result.samples.size()));
  span.Annotate("requested", static_cast<int64_t>(result.draws_requested));
  span.Annotate("dropped", static_cast<int64_t>(result.dropped_draws));
  span.Annotate("satisfied", result.satisfied);
  span.Annotate("relative_target_floored", result.relative_target_floored);
  return result;
}

}  // namespace vastats
