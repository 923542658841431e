// Bagged kernel density estimation (paper §4.3): estimate a density for
// each bootstrap sample set on one common grid and use the normalized
// point-wise mean of the estimates as the viable answer distribution.
// Bagging smooths out resampling noise and stabilizes the mode structure
// that the CIO algorithm depends on.

#ifndef VASTATS_DENSITY_BAGGED_KDE_H_
#define VASTATS_DENSITY_BAGGED_KDE_H_

#include <functional>
#include <span>
#include <vector>

#include "density/kde.h"
#include "obs/obs.h"
#include "util/status.h"

namespace vastats {

class ThreadPool;

// How the per-set bandwidths of a bagged estimate are chosen.
//  * kPerSet: every bootstrap set runs its own selector — highest fidelity
//    to the paper's procedure. On the binned path each set still gets its
//    own binning, DCT-II, bandwidth (the one EstimateKde would select),
//    1.5-cell clamp and Gaussian damping, as pool tasks when a pool is
//    given; the damped coefficients are then summed in set order with the
//    per-set normalization weights, and one DCT-III, one clamp at 0 and
//    one normalization give the bag. It equals the mean of the normalized
//    per-set fits to rounding (~1e-13 of the peak; ~1e-9 where h sits at
//    the clamp, where each fit would clamp its own ringing). The selector
//    and DCT-II costs scale with the number of sets.
//  * kShared: the selector runs once on the reference sample and the
//    resulting h, after the 1.5-cell grid clamp, is used for every set.
//    With one h on one grid the bag is computed in the coefficient domain:
//    one binning pass over all sets, one DCT-II and one DCT-III (plus one
//    DCT-III for the per-set normalization weights), serial on the calling
//    thread. It equals the mean of the per-set fits to rounding (~1e-13 of
//    the peak; ~1e-9 when h sits at the clamp, where each fit would clamp
//    its own below-zero ringing). The bagged density is marginally
//    smoother than kPerSet's because the resampling noise of per-set
//    selections is gone.
// Both modes are bit-identical across pool widths (serial included).
enum class BandwidthMode { kPerSet, kShared };

struct BaggedKdeOptions {
  KdeOptions kde;
  BandwidthMode bandwidth_mode = BandwidthMode::kPerSet;
  // Optional transform-plan provider. When set, the calling thread asks it
  // for its DctPlan once, before its first transform, and every pooled
  // kPerSet task asks it for the plan of the worker thread, so a serving
  // layer can keep one bounded plan per thread alive across extractions
  // instead of the default function-local / thread_local plans. Providers
  // must hand out one plan per thread — plans are unsynchronized — and only
  // move where the tables live; transform results are unchanged, so the
  // estimate stays bit-identical with or without a provider.
  std::function<DctPlan*()> plan_provider;

  Status Validate() const { return kde.Validate(); }
};

struct BaggedKde {
  GridDensity density;
  // Bandwidth selected on the pooled/original sample (reported as the h of
  // the final estimate, e.g. for stability scores).
  double bandwidth = 0.0;
  // Per-bootstrap-set bandwidths actually used.
  std::vector<double> set_bandwidths;
};

// Estimates the density of each sample set and averages them point-wise on
// a grid spanning all sets. `reference_samples` (typically the original
// uniS sample) provides the reported bandwidth (and, under kShared, the
// shared per-set bandwidth); it may be empty, in which case the first set
// is used. Any fixed range in `options.kde` is honored. Non-finite samples
// in any set or in the reference are rejected. `obs` (optional) records a
// `bagged_kde` span and the `bagged_kde_sets_total` counter (one per set);
// every per-set Botev selection still counts its evaluations in
// `kde_botev_iterations_total`.
//
// The binned bag runs no per-set EstimateKde: there are no `kde_estimate`
// child spans and no per-fit `kde_binned_path_total` or `kde_dct_plan_*`
// counts, and the bag runs one DCT-III (kShared one more for its kernel
// row). Under kPerSet the per-set stage runs as pool tasks when a `pool` is
// given (the `bagged_kde` span is annotated `pool=true`), each worker on its
// own DctPlan without locking; their results are summed in set order, so
// the estimate is bit-identical to the serial path. kShared leaves `pool`
// unused. The calling thread takes its plan from `plan_provider` (asked
// once, before the first transform) or a local one, and runs the final
// transforms on it.
//
// The direct-summation oracle fits every set with EstimateKde (each fit a
// `kde_estimate` child span when serial; pooled fits report metrics only,
// since worker tasks cannot drive the single-threaded Trace) and averages
// the normalized fits point by point.
Result<BaggedKde> EstimateBaggedKde(
    std::span<const std::vector<double>> sets,
    std::span<const double> reference_samples, const BaggedKdeOptions& options,
    const ObsOptions& obs = {}, ThreadPool* pool = nullptr);

// Convenience overload for per-set bandwidth selection (the default mode).
Result<BaggedKde> EstimateBaggedKde(
    std::span<const std::vector<double>> sets,
    std::span<const double> reference_samples, const KdeOptions& options,
    const ObsOptions& obs = {}, ThreadPool* pool = nullptr);

}  // namespace vastats

#endif  // VASTATS_DENSITY_BAGGED_KDE_H_
