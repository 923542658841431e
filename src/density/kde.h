// Gaussian kernel density estimation (paper §2.2 / §4.3).
//
// Two evaluation paths:
//  * binned (the production default): linear binning followed by diffusion
//    smoothing in the DCT domain, O(grid log grid) — the classic fast KDE
//    with reflective boundaries, exact Gaussian smoothing of the linearly
//    binned measure (the only error vs. direct summation is the binning
//    itself, O((range/grid)^2));
//  * direct: each grid point sums the n kernels, O(n * grid) — kept as an
//    opt-in accuracy oracle for tests and ablations.
//
// Three bandwidth selectors:
//  * Silverman's rule-of-thumb 0.9 * min(sd, IQR/1.34) * n^(-1/5);
//  * Scott's normal-reference rule 1.06 * sd * n^(-1/5);
//  * the Botev-Grotowski-Kroese (2010) diffusion plug-in — the "adaptive
//    method [6]" the paper uses to pick h automatically.
//
// When the Botev rule runs inside `EstimateKde` on a power-of-two grid, the
// selector is evaluated on the same grid and bounds as the binned
// evaluation, so its LinearBinning + DCT-II pass is computed once and
// reused for the smoothing step. Everything up to the DCT-III is
// `PrepareKdeFit`, which the per-set-bandwidth bag (bagged_kde.h) runs for
// each set so that it selects the same h as `EstimateKde`. Callers on a hot
// loop should pass a `DctPlan` (util/fft.h) to amortize the transform
// setup; plans are per-thread, never shared.

#ifndef VASTATS_DENSITY_KDE_H_
#define VASTATS_DENSITY_KDE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "density/grid_density.h"
#include "obs/obs.h"
#include "util/fft.h"
#include "util/status.h"

namespace vastats {

enum class BandwidthRule { kSilverman, kScott, kBotev };

struct KdeOptions {
  BandwidthRule rule = BandwidthRule::kBotev;
  // When > 0, overrides `rule`.
  double bandwidth = 0.0;
  // Number of grid points of the returned density (power of two recommended;
  // the paper's harness uses 4096).
  size_t grid_size = 4096;
  // Fraction of the data range added on each side of the grid.
  double padding_fraction = 0.1;
  // When x_min < x_max, fixes the grid range (used to put every bootstrap
  // set of a bagged estimate on one common grid). Otherwise the range is
  // derived from the data plus padding.
  double x_min = 0.0;
  double x_max = 0.0;
  // Selects the binned DCT evaluation path (default). Set to false for the
  // O(n * grid) direct-summation accuracy oracle. The binned path requires
  // a power-of-two grid_size.
  bool binned = true;

  Status Validate() const;
};

// A density estimate together with the bandwidth that produced it (the
// stability scores of §4.4 need h).
struct Kde {
  GridDensity density;
  double bandwidth = 0.0;
};

// Counts of `samples` linearly split over `grid_size` bins spanning
// [lo, hi]: each sample contributes weight 1 shared between its two
// neighboring bin centers (out-of-range samples clamp to the end bins).
// Requires grid_size >= 2, lo < hi, and finite samples — callers validate.
// Shared by the binned KDE path, the Botev selector, and the binned
// stability Psi (core/stability.h).
std::vector<double> LinearBinning(std::span<const double> samples, double lo,
                                  double hi, size_t grid_size);

// Where LinearBinning puts one sample: weight 1 - frac on bin `index` and
// frac on bin `index + 1`.
struct BinSplit {
  size_t index = 0;
  double frac = 0.0;
};

// The split LinearBinning applies to `x` on the grid starting at `lo` with
// spacing `step` = (hi - lo) / (grid_size - 1), for callers that weight
// the samples of several sets into one histogram.
inline BinSplit LinearBinSplit(double x, double lo, double step,
                               size_t grid_size) {
  const double pos =
      std::clamp((x - lo) / step, 0.0, static_cast<double>(grid_size - 1));
  const size_t index = std::min(static_cast<size_t>(pos), grid_size - 2);
  return {index, pos - static_cast<double>(index)};
}

// The smoothing step of the binned path. `dct` holds the DCT-II
// coefficients of linearly binned probability mass on a grid of
// dct.size() points spanning `range`; they are multiplied in place by the
// Gaussian factors exp(-k^2 pi^2 (h/range)^2 / 2) (diffusion to bandwidth
// h with reflective boundaries; once a factor falls below 1e-300 the
// remaining coefficients are set to zero) and handed to BinnedDctValues.
// Apart from the clamp the map from `dct` to `values` is linear.
Status SmoothBinnedDct(std::vector<double>& dct, double h, double range,
                       DctPlan& plan, std::vector<double>& values);

// The tabulation step of the binned path: the DCT-III of smoothed
// coefficients on a grid of dct.size() points spanning `range`, written to
// `values` as densities clamped at 0 but not normalized.
Status BinnedDctValues(std::span<const double> dct, double range,
                       DctPlan& plan, std::vector<double>& values);

// Rule-of-thumb selectors. Return a small positive floor for degenerate
// (constant) samples so downstream code stays finite.
double SilvermanBandwidth(std::span<const double> samples);
double ScottBandwidth(std::span<const double> samples);

// Diffusion plug-in selector; falls back to 0.28 * n^(-2/5) * range (the
// reference implementation's fallback) if the fixed point cannot be
// bracketed. `grid_size` is the internal DCT grid (power of two). `obs`
// (optional) counts fixed-point evaluations and fallbacks. `plan`
// (optional, borrowed) reuses cached DCT tables across calls.
//
// The fixed point of gamma(t) - t is located by a Silverman-seeded
// geometric bracket followed by a tolerance-terminated ITP root-find;
// typical selections converge in ~10-20 map evaluations (the seed counts
// as one) instead of the fixed 64-step scan + 60 bisections this replaces.
Result<double> BotevBandwidth(std::span<const double> samples,
                              size_t grid_size = 4096,
                              const ObsOptions& obs = {},
                              DctPlan* plan = nullptr);

// Applies `options.rule` (or the manual override) to `samples`. Under
// kBotev a non-power-of-two `options.grid_size` is substituted with 4096
// for the selector's internal grid (observable via the
// `kde_botev_grid_substituted_total` counter).
Result<double> SelectBandwidth(std::span<const double> samples,
                               const KdeOptions& options,
                               const ObsOptions& obs = {},
                               DctPlan* plan = nullptr);

// One fit before its values are tabulated.
struct KdeFitStage {
  // The grid: the fixed range of the options, or the data plus padding
  // (widened so that it spans at least one bandwidth).
  double x_min = 0.0;
  double x_max = 0.0;
  // The bandwidth after the 1.5-cell grid clamp.
  double bandwidth = 0.0;
  // Binned path: the DCT-II coefficients of the linearly binned unit mass,
  // damped as SmoothBinnedDct does; from `live_coefficients` on they are
  // zero. BinnedDctValues tabulates them. Empty on the direct path.
  std::vector<double> coefficients;
  size_t live_coefficients = 0;
  // Evaluations of the Botev selector when it ran on the fit's own grid.
  uint64_t botev_evaluations = 0;
};

// The stage of EstimateKde before tabulation: the grid bounds, bandwidth
// selection (under the Botev rule on a power-of-two grid, on the DCT-II of
// the fit's own binning, which the binned path then reuses), the 1.5-cell
// clamp and, on the binned path, the damping of the coefficients. Requires
// valid options and >= 2 finite samples (callers validate). `obs` receives
// the selector's counters; no span is recorded.
Result<KdeFitStage> PrepareKdeFit(std::span<const double> samples,
                                  const KdeOptions& options,
                                  const ObsOptions& obs, DctPlan& plan);

// Estimates the density of `samples`; the result is normalized to unit mass
// over its grid. Requires >= 2 samples. `obs` (optional) records a
// `kde_estimate` span (bandwidth, grid size, evaluation path, Botev
// evaluation count) and the direct-vs-binned path counters. `plan`
// (optional, borrowed, per-thread) caches DCT tables across calls; without
// one a throwaway plan is used.
Result<Kde> EstimateKde(std::span<const double> samples,
                        const KdeOptions& options,
                        const ObsOptions& obs = {},
                        DctPlan* plan = nullptr);

}  // namespace vastats

#endif  // VASTATS_DENSITY_KDE_H_
