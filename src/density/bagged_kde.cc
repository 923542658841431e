#include "density/bagged_kde.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "util/math.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

// Runs `fit_set(s, set_obs, plan)` for every set: in set order on the
// calling thread with `serial_plan`, or, with a pool, as pool tasks that
// each take the plan of their worker thread. The Trace may only be driven
// from the calling thread, so worker tasks report through the sharded
// metrics registry only. `fit_set` writes its result to slot s, and the
// caller combines the slots in set order, so pooled and serial results are
// bit-identical.
Status ForEachSet(
    size_t num_sets, const BaggedKdeOptions& options, const ObsOptions& obs,
    ThreadPool* pool, DctPlan& serial_plan,
    const std::function<Status(size_t, const ObsOptions&, DctPlan&)>&
        fit_set) {
  if (pool == nullptr) {
    for (size_t s = 0; s < num_sets; ++s) {
      VASTATS_RETURN_IF_ERROR(fit_set(s, obs, serial_plan));
    }
    return Status::Ok();
  }
  ObsOptions worker_obs;
  worker_obs.metrics = obs.metrics;
  auto task = [&](int s) -> Status {
    // Thread-confined plan cache; never shared across workers, so the
    // mutable static storage cannot leak state between extractions. A
    // plan_provider substitutes its own per-thread plan.
    thread_local DctPlan worker_plan;  // lint-invariants: allow(A5)
    DctPlan* const plan =
        options.plan_provider ? options.plan_provider() : &worker_plan;
    const uint64_t evictions_before = plan->evictions();
    VASTATS_RETURN_IF_ERROR(fit_set(static_cast<size_t>(s), worker_obs, *plan));
    if (plan->evictions() > evictions_before) {
      worker_obs.GetCounter("dct_plan_evictions_total")
          .Increment(plan->evictions() - evictions_before);
    }
    return Status::Ok();
  };
  PoolMetricsObserver pool_observer(obs);
  return pool->ParallelFor(static_cast<int>(num_sets), task, &pool_observer);
}

// The direct-summation oracle: fits every set with EstimateKde on the
// bag's fixed grid and averages the normalized fits point by point. The
// returned estimate is not yet normalized.
Result<BaggedKde> AverageSetFits(std::span<const std::vector<double>> sets,
                                 const KdeOptions& per_set,
                                 const BaggedKdeOptions& options,
                                 const ObsOptions& obs, ThreadPool* pool,
                                 DctPlan& serial_plan) {
  std::vector<std::optional<Kde>> fits(sets.size());
  VASTATS_RETURN_IF_ERROR(ForEachSet(
      sets.size(), options, obs, pool, serial_plan,
      [&](size_t s, const ObsOptions& set_obs, DctPlan& plan) -> Status {
        VASTATS_ASSIGN_OR_RETURN(fits[s],
                                 EstimateKde(sets[s], per_set, set_obs, &plan));
        return Status::Ok();
      }));

  std::vector<double> values(per_set.grid_size, 0.0);
  std::vector<double> set_bandwidths;
  set_bandwidths.reserve(sets.size());
  const double weight = 1.0 / static_cast<double>(sets.size());
  for (const std::optional<Kde>& kde : fits) {
    set_bandwidths.push_back(kde->bandwidth);
    const std::span<const double> fit = kde->density.values();
    for (size_t i = 0; i < values.size(); ++i) values[i] += weight * fit[i];
  }
  VASTATS_ASSIGN_OR_RETURN(
      GridDensity density,
      GridDensity::Create(per_set.x_min, per_set.x_max, std::move(values)));
  return BaggedKde{std::move(density), 0.0, std::move(set_bandwidths)};
}

// The kPerSet bag in the coefficient domain. Every set keeps its own
// binning, DCT-II, bandwidth selection, clamp and damping (PrepareKdeFit,
// the stage EstimateKde runs, so each h is the one EstimateKde selects).
// The DCT-III that follows is linear, so the mean of the per-set fits is
// the DCT-III of the weighted sum of their damped coefficients: one
// DCT-III, one clamp at 0 and one normalization per bag instead of one
// each per set.
//
// The weights carry the per-set normalization. Set s enters with weight
// 1 / (S * M_s), where M_s is its fit's trapezoid mass. For damped
// coefficients d, the DCT-III values sum to (m/2) d_0 and its end values
// are v_0 = sum_k r_k d_k and v_{m-1} = sum_k (-1)^k r_k d_k, with
// r_0 = 1/2 and r_k = cos(pi k / 2m). The densities are the values times
// `scale` = 2 (m-1) / (m range), and step * scale = 2/m, so
// M_s = (2/m) (m/2 d_0 - (v_0 + v_{m-1}) / 2), where the odd-k terms of
// v_0 + v_{m-1} cancel. The result is not yet normalized. It differs from
// the mean of normalized per-set fits by rounding, and where h sits at the
// 1.5-cell clamp also by the clamp at 0: each per-set fit would clamp its
// own below-zero ringing, the bag clamps the sum.
Result<BaggedKde> PerSetBandwidthBag(std::span<const std::vector<double>> sets,
                                     const KdeOptions& per_set,
                                     const BaggedKdeOptions& options,
                                     const ObsOptions& obs, ThreadPool* pool,
                                     DctPlan& serial_plan) {
  // Each set's damped coefficients up to its last live one, and its h.
  std::vector<KdeFitStage> stages(sets.size());
  VASTATS_RETURN_IF_ERROR(ForEachSet(
      sets.size(), options, obs, pool, serial_plan,
      [&](size_t s, const ObsOptions& set_obs, DctPlan& plan) -> Status {
        VASTATS_ASSIGN_OR_RETURN(
            KdeFitStage stage, PrepareKdeFit(sets[s], per_set, set_obs, plan));
        stage.coefficients.resize(stage.live_coefficients);
        stage.coefficients.shrink_to_fit();
        stages[s] = std::move(stage);
        return Status::Ok();
      }));

  const size_t m = per_set.grid_size;
  const double two_m = 2.0 * static_cast<double>(m);
  std::vector<double> end_row;  // r_k, grown to the longest live prefix
  std::vector<double> sum(m, 0.0);
  std::vector<double> set_bandwidths;
  set_bandwidths.reserve(sets.size());
  const double num_sets = static_cast<double>(sets.size());
  for (const KdeFitStage& stage : stages) {
    const std::vector<double>& d = stage.coefficients;
    while (end_row.size() < d.size()) {
      const size_t k = end_row.size();
      end_row.push_back(
          k == 0 ? 0.5 : std::cos(kPi * static_cast<double>(k) / two_m));
    }
    // v_0 + v_{m-1} = 2 * sum over even k of r_k d_k (odd terms cancel).
    double even_ends = 0.0;
    for (size_t k = 0; k < d.size(); k += 2) even_ends += end_row[k] * d[k];
    const double mass = d[0] - 2.0 * even_ends / static_cast<double>(m);
    if (!(mass > 0.0)) {
      return Status::FailedPrecondition("cannot normalize zero-mass density");
    }
    const double weight = 1.0 / (num_sets * mass);
    for (size_t k = 0; k < d.size(); ++k) sum[k] += weight * d[k];
    set_bandwidths.push_back(stage.bandwidth);
  }

  std::vector<double> values;
  VASTATS_RETURN_IF_ERROR(BinnedDctValues(
      sum, per_set.x_max - per_set.x_min, serial_plan, values));
  VASTATS_ASSIGN_OR_RETURN(
      GridDensity density,
      GridDensity::Create(per_set.x_min, per_set.x_max, std::move(values)));
  return BaggedKde{std::move(density), 0.0, std::move(set_bandwidths)};
}

// The kShared bag in the coefficient domain. Every set is fitted with one
// h on one grid, and each step of a binned fit (linear binning, DCT-II,
// the Gaussian factors, DCT-III) is linear, so the mean of the per-set
// fits is one fit of the weighted sum of the per-set histograms: one
// binning pass over all samples and one DCT pair instead of one per set.
//
// The weights carry the per-set normalization. A fit's values sum to
// 1/step, so its trapezoid mass is M_s = 1 - step/2 * (v_0 + v_{m-1}); the
// end values are linear in the set's bins, v_0 = <g, bins>, where g is the
// fit of the coefficients cos(pi k / 2m) (row 0 of the DCT-III), and by
// the reflective symmetry row m-1 is g reversed. Set s then enters the
// histogram with weight 1 / (S * n_s * M_s). The result is not yet
// normalized. It differs from the mean of normalized per-set fits by
// rounding, and where h sits at the 1.5-cell clamp also by the clamp at 0:
// there the truncated Gaussian spectrum rings below zero, each per-set fit
// clamps its own ringing and the bag clamps the sum (~1e-9 of the peak).
Result<BaggedKde> SharedBandwidthBag(std::span<const std::vector<double>> sets,
                                     const KdeOptions& grid, double bandwidth,
                                     DctPlan& plan) {
  const size_t m = grid.grid_size;
  const double lo = grid.x_min;
  const double range = grid.x_max - grid.x_min;
  const double step = range / static_cast<double>(m - 1);
  // The grid-resolution clamp every fit on this grid applies (see
  // EstimateKde), once for all sets.
  const double h = std::max(bandwidth, 1.5 * step);

  // SmoothBinnedDct flushes every coefficient whose Gaussian factor falls
  // below 1e-300 to zero, which covers all k with c k^2 >= 700; those need
  // no cosine.
  const double c = 0.5 * kPi * kPi * (h / range) * (h / range);
  const size_t live = static_cast<size_t>(
      std::min(static_cast<double>(m), std::sqrt(700.0 / c) + 1.0));
  std::vector<double> end_row_coefficients(m, 0.0);
  for (size_t k = 0; k < live; ++k) {
    end_row_coefficients[k] = std::cos(kPi * static_cast<double>(k) /
                                       (2.0 * static_cast<double>(m)));
  }
  std::vector<double> end_row;
  VASTATS_RETURN_IF_ERROR(
      SmoothBinnedDct(end_row_coefficients, h, range, plan, end_row));
  // The row falls off like the kernel. Past `reach` bins it stays below
  // 1e-15 of its peak, so a sample further than that from both edges moves
  // a set's mass by under 1e-15 and is skipped.
  size_t reach = m;
  while (reach > 1 && std::fabs(end_row[reach - 1]) <= 1e-15 * end_row[0]) {
    --reach;
  }
  const double near_lo = lo + static_cast<double>(reach + 1) * step;
  const double near_hi = grid.x_max - static_cast<double>(reach + 1) * step;

  std::vector<double> weighted(m, 0.0);
  const double num_sets = static_cast<double>(sets.size());
  for (const std::vector<double>& set : sets) {
    double first = 0.0;
    double last = 0.0;
    for (const double x : set) {
      if (x > near_lo && x < near_hi) continue;
      const BinSplit split = LinearBinSplit(x, lo, step, m);
      const size_t j = split.index;
      first += (1.0 - split.frac) * end_row[j] + split.frac * end_row[j + 1];
      last += (1.0 - split.frac) * end_row[m - 1 - j] +
              split.frac * end_row[m - 2 - j];
    }
    const double n = static_cast<double>(set.size());
    const double mass = 1.0 - 0.5 * step * (first + last) / n;
    if (!(mass > 0.0)) {
      return Status::FailedPrecondition("cannot normalize zero-mass density");
    }
    const double weight = 1.0 / (num_sets * n * mass);
    for (const double x : set) {
      const BinSplit split = LinearBinSplit(x, lo, step, m);
      weighted[split.index] += weight * (1.0 - split.frac);
      weighted[split.index + 1] += weight * split.frac;
    }
  }

  std::vector<double> coefficients;
  VASTATS_RETURN_IF_ERROR(plan.Dct2(weighted, coefficients));
  std::vector<double> values;
  VASTATS_RETURN_IF_ERROR(
      SmoothBinnedDct(coefficients, h, range, plan, values));
  VASTATS_ASSIGN_OR_RETURN(
      GridDensity density,
      GridDensity::Create(grid.x_min, grid.x_max, std::move(values)));
  return BaggedKde{std::move(density), 0.0,
                   std::vector<double>(sets.size(), h)};
}

}  // namespace

Result<BaggedKde> EstimateBaggedKde(
    std::span<const std::vector<double>> sets,
    std::span<const double> reference_samples, const BaggedKdeOptions& options,
    const ObsOptions& obs, ThreadPool* pool) {
  VASTATS_RETURN_IF_ERROR(options.Validate());
  if (sets.empty()) {
    return Status::InvalidArgument("EstimateBaggedKde needs >= 1 sample set");
  }
  const bool shared = options.bandwidth_mode == BandwidthMode::kShared;
  // The direct-summation oracle is not a DCT fit, so in either mode it
  // fits set by set. Only the binned kShared bag runs no per-set stage and
  // so leaves the pool unused.
  const bool binned = options.kde.binned;
  ScopedSpan span(obs, "bagged_kde");
  span.Annotate("sets", static_cast<int64_t>(sets.size()));
  span.Annotate("pool", pool != nullptr && !(shared && binned));
  span.Annotate("bandwidth_mode", shared ? "shared" : "per_set");
  obs.GetCounter("bagged_kde_sets_total")
      .Increment(static_cast<uint64_t>(sets.size()));
  for (const std::vector<double>& set : sets) {
    if (set.size() < 2) {
      return Status::InvalidArgument(
          "EstimateBaggedKde: every sample set needs >= 2 points");
    }
  }
  // A NaN would reach LinearBinning's double->size_t cast (UB) and poison
  // the selector, so reject non-finite input before either runs.
  auto all_finite = [](std::span<const double> samples) {
    return std::all_of(samples.begin(), samples.end(),
                       [](double x) { return std::isfinite(x); });
  };
  if (!all_finite(reference_samples) ||
      !std::all_of(sets.begin(), sets.end(), all_finite)) {
    return Status::InvalidArgument(
        "EstimateBaggedKde samples must be finite");
  }

  // Common grid across all sets (unless the caller fixed one).
  KdeOptions per_set = options.kde;
  if (!(per_set.x_min < per_set.x_max)) {
    double lo = sets[0][0];
    double hi = sets[0][0];
    for (const std::vector<double>& set : sets) {
      const auto [min_it, max_it] = std::minmax_element(set.begin(), set.end());
      lo = std::min(lo, *min_it);
      hi = std::max(hi, *max_it);
    }
    for (const double x : reference_samples) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    double span = hi - lo;
    if (!(span > 0.0)) span = std::max(std::fabs(lo), 1.0) * 1e-6;
    per_set.x_min = lo - per_set.padding_fraction * span;
    per_set.x_max = hi + per_set.padding_fraction * span;
  }

  const std::span<const double> reference =
      reference_samples.empty() ? std::span<const double>(sets[0])
                                : reference_samples;

  // The calling thread's plan serves the bandwidth selection and every
  // transform that runs on this thread; pooled per-set workers each hold
  // their own (thread-local, so pool threads reuse their tables across
  // batches without locking). A plan_provider overrides both with
  // caller-owned per-thread plans.
  DctPlan local_plan;
  DctPlan* const serial_plan =
      options.plan_provider ? options.plan_provider() : &local_plan;
  const uint64_t serial_evictions_before = serial_plan->evictions();

  // Under kShared the selector runs once, on the calling thread (a manual
  // bandwidth, e.g. a cached one, is returned verbatim).
  double shared_bandwidth = 0.0;
  if (shared) {
    VASTATS_ASSIGN_OR_RETURN(
        shared_bandwidth,
        SelectBandwidth(reference, options.kde, obs, serial_plan));
    per_set.bandwidth = shared_bandwidth;
    obs.GetCounter("bagged_kde_shared_bandwidth_total").Increment();
  }

  VASTATS_ASSIGN_OR_RETURN(
      BaggedKde out,
      !binned ? AverageSetFits(sets, per_set, options, obs, pool, *serial_plan)
      : shared
          ? SharedBandwidthBag(sets, per_set, shared_bandwidth, *serial_plan)
          : PerSetBandwidthBag(sets, per_set, options, obs, pool,
                               *serial_plan));
  VASTATS_RETURN_IF_ERROR(out.density.Normalize());

  // Report the bandwidth of the reference sample (or the first set) — under
  // kShared it is already selected, so no extra selector run is spent.
  if (shared) {
    out.bandwidth = shared_bandwidth;
  } else {
    VASTATS_ASSIGN_OR_RETURN(
        out.bandwidth,
        SelectBandwidth(reference, options.kde, obs, serial_plan));
  }
  if (serial_plan->evictions() > serial_evictions_before) {
    obs.GetCounter("dct_plan_evictions_total")
        .Increment(serial_plan->evictions() - serial_evictions_before);
  }
  span.Annotate("bandwidth", out.bandwidth);
  return out;
}

Result<BaggedKde> EstimateBaggedKde(
    std::span<const std::vector<double>> sets,
    std::span<const double> reference_samples, const KdeOptions& options,
    const ObsOptions& obs, ThreadPool* pool) {
  BaggedKdeOptions bagged;
  bagged.kde = options;
  return EstimateBaggedKde(sets, reference_samples, bagged, obs, pool);
}

}  // namespace vastats
