#include "density/kde.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "util/fft.h"
#include "util/math.h"

namespace vastats {
namespace {

// Smallest bandwidth returned for degenerate samples, relative to |mean|.
constexpr double kDegenerateBandwidthFloor = 1e-9;

double RobustSpread(std::span<const double> samples) {
  const Moments moments = ComputeMoments(samples);
  const double sd = moments.SampleStdDev();
  // The quartiles as Quantile computes them, from one copy and without a
  // sort: the order statistic at floor(q (n-1)) by nth_element and the next
  // one as the minimum above it, interpolated as QuantileSorted does. The
  // lower quartile is selected first, so the upper one only partitions the
  // elements above it.
  double iqr_sigma = 0.0;
  if (!samples.empty()) {
    std::vector<double> order(samples.begin(), samples.end());
    size_t selected_below = 0;
    auto quartile = [&](double q) {
      const double pos = q * static_cast<double>(order.size() - 1);
      const size_t lo = static_cast<size_t>(pos);
      const auto at = order.begin() + static_cast<ptrdiff_t>(lo);
      if (lo >= selected_below) {
        std::nth_element(
            order.begin() + static_cast<ptrdiff_t>(selected_below), at,
            order.end());
      }
      selected_below = lo + 1;
      const double next =
          lo + 1 < order.size() ? *std::min_element(at + 1, order.end()) : *at;
      return *at + (pos - static_cast<double>(lo)) * (next - *at);
    };
    const double q25 = quartile(0.25);
    const double q75 = quartile(0.75);
    iqr_sigma = (q75 - q25) / 1.34;
  }
  double spread = sd;
  if (iqr_sigma > 0.0) spread = std::min(spread, iqr_sigma);
  if (spread <= 0.0) spread = sd;
  return spread;
}

double DegenerateFloor(std::span<const double> samples) {
  const double scale = std::fabs(ComputeMoments(samples).mean());
  return std::max(scale, 1.0) * kDegenerateBandwidthFloor;
}

// x^s for small non-negative integer s by repeated multiplication (the
// inner loops below would otherwise spend most of their time in pow()).
inline double IntPow(double x, int s) {
  double result = 1.0;
  while (s-- > 0) result *= x;
  return result;
}
// The seven-stage constants of Botev's fixed-point map depend only on the
// stage index s: K0(s) = (2s-1)!!/sqrt(2*pi), c(s) = (1 + 0.5^(s+0.5))/3,
// the plug-in exponent 2/(3+2s), and pi^(2s). Computed once instead of
// from double-factorials and pow() on every map evaluation.
struct BotevStageConstants {
  double two_c_k0[8];   // 2 * c(s) * K0(s), s in [2, 6]
  double pi_pow_2s[8];  // pi^(2s), s in [2, 7]
  double exponent[8];   // 2 / (3 + 2s), s in [2, 6]
};

const BotevStageConstants& BotevConstants() {
  static const BotevStageConstants constants = [] {
    BotevStageConstants c{};
    for (int s = 2; s <= 7; ++s) {
      double k0 = 1.0;
      for (int j = 1; j <= 2 * s - 1; j += 2) k0 *= static_cast<double>(j);
      k0 /= kSqrt2Pi;
      const double cc = (1.0 + std::pow(0.5, s + 0.5)) / 3.0;
      c.two_c_k0[s] = 2.0 * cc * k0;
      c.pi_pow_2s[s] = std::pow(kPi, 2 * s);
      c.exponent[s] = 2.0 / (3.0 + 2.0 * static_cast<double>(s));
    }
    return c;
  }();
  return constants;
}

// x^S with the exponent known at compile time, so the stage-sum loops
// below unroll it into straight multiplies and stay vectorizable.
template <int S>
inline double ConstPow(double x) {
  double result = 1.0;
  for (int i = 0; i < S; ++i) result *= x;
  return result;
}

// sum_k i_sq[k]^S * a2[k] * exp(-i_sq[k] * pi_sq_t) over the leading
// `limit` coefficients, i_sq[k] = (k+1)^2. exp(-(k+1)^2 * pi_sq_t) is
// produced by recurrence — consecutive exponents differ by (2k+3) *
// pi_sq_t and those gaps grow geometrically, so two running multiplies
// replace one exp() per term. The chain is split into four independent
// stride-4 lanes (lane ratios step by exp(-32 * pi_sq_t)) so the
// recurrence is not one long serial dependency and the loop vectorizes.
// The accumulated relative error is ~limit * ulp (< 1e-12 over a 4096
// grid), far inside the root-finder's 1e-5 tolerance.
template <int S>
double StageSumImpl(double pi_sq_t, std::span<const double> i_sq,
                    std::span<const double> a2, size_t limit) {
  double e[4], gap[4], sum[4] = {0.0, 0.0, 0.0, 0.0};
  for (int j = 0; j < 4; ++j) {
    const double kp1 = static_cast<double>(j + 1);
    e[j] = std::exp(-kp1 * kp1 * pi_sq_t);
    gap[j] = std::exp(-(8.0 * static_cast<double>(j) + 24.0) * pi_sq_t);
  }
  const double q = std::exp(-32.0 * pi_sq_t);
  size_t k = 0;
  for (; k + 4 <= limit; k += 4) {
    for (int j = 0; j < 4; ++j) {
      sum[j] += ConstPow<S>(i_sq[k + static_cast<size_t>(j)]) *
                a2[k + static_cast<size_t>(j)] * e[j];
      e[j] *= gap[j];
      gap[j] *= q;
    }
  }
  double total = (sum[0] + sum[1]) + (sum[2] + sum[3]);
  for (; k < limit; ++k) {
    total += ConstPow<S>(i_sq[k]) * a2[k] *
             std::exp(-i_sq[k] * pi_sq_t);
  }
  return total;
}

// Dispatches the stage index (2..7) to the compile-time-power kernels.
// Terms past k+1 > sqrt(745 / (pi^2 t)) underflow exp to zero; the cutoff
// index is computed directly instead of testing the exponent per term.
double BotevStageSum(int s, double t, std::span<const double> i_sq,
                     std::span<const double> a2, size_t effective_len) {
  const double pi_sq_t = kPi * kPi * t;
  size_t limit = effective_len;
  if (pi_sq_t > 0.0) {
    const double k_max = std::sqrt(745.0 / pi_sq_t);
    if (k_max < static_cast<double>(limit)) {
      limit = static_cast<size_t>(k_max);
    }
  }
  switch (s) {
    case 2:
      return StageSumImpl<2>(pi_sq_t, i_sq, a2, limit);
    case 3:
      return StageSumImpl<3>(pi_sq_t, i_sq, a2, limit);
    case 4:
      return StageSumImpl<4>(pi_sq_t, i_sq, a2, limit);
    case 5:
      return StageSumImpl<5>(pi_sq_t, i_sq, a2, limit);
    case 6:
      return StageSumImpl<6>(pi_sq_t, i_sq, a2, limit);
    case 7:
      return StageSumImpl<7>(pi_sq_t, i_sq, a2, limit);
    default:
      break;
  }
  double sum = 0.0;
  for (size_t k = 0; k < limit; ++k) {
    sum += IntPow(i_sq[k], s) * a2[k] * std::exp(-i_sq[k] * pi_sq_t);
  }
  return sum;
}

// One evaluation of Botev's fixed-point map gamma^[l](t) (his Algorithm 1,
// l = 7 stages), returning the candidate t implied by plug-in stage 2.
double BotevFixedPoint(double t, double n, std::span<const double> i_sq,
                       std::span<const double> a2, size_t effective_len) {
  const BotevStageConstants& constants = BotevConstants();
  double f = 2.0 * constants.pi_pow_2s[7] *
             BotevStageSum(7, t, i_sq, a2, effective_len);
  for (int s = 6; s >= 2; --s) {
    const double time =
        std::pow(constants.two_c_k0[s] / (n * f), constants.exponent[s]);
    f = 2.0 * constants.pi_pow_2s[s] *
        BotevStageSum(s, time, i_sq, a2, effective_len);
  }
  return std::pow(2.0 * n * std::sqrt(kPi) * f, -0.4);
}

// Result of one diffusion-selector root-find on a prepared spectral profile.
struct BotevSelection {
  double t_star = 0.0;       // fixed point in normalized time
  uint64_t evaluations = 0;  // fixed-point map evaluations spent
  bool fallback = false;     // bracketing failed; t_star is the formula value
};

// Finds the root of F(t) = gamma(t) - t. F is positive left of the fixed
// point and negative right of it, so the bracket is grown geometrically
// from `t_seed` in the direction F points, then tightened with the ITP
// method (Oliveira & Takahashi 2020) — worst case within one evaluation of
// bisection, superlinear on smooth brackets like this one. The endpoint
// signs are carried through from the bracketing scan; no endpoint is ever
// re-evaluated.
BotevSelection SolveBotevFixedPoint(double n, std::span<const double> i_sq,
                                    std::span<const double> a2,
                                    double t_seed) {
  BotevSelection out;
  // Trailing all-zero coefficients contribute nothing to any stage sum;
  // clip them once up front instead of carrying them into every evaluation.
  size_t effective_len = a2.size();
  while (effective_len > 0 && a2[effective_len - 1] == 0.0) --effective_len;

  auto f = [&](double t) {
    ++out.evaluations;
    return BotevFixedPoint(t, n, i_sq, a2, effective_len) - t;
  };

  constexpr double kTMin = 1e-12;
  constexpr double kTMax = 0.1;  // reference implementation's search cap
  constexpr double kGrow = 4.0;
  double t_lo = 0.0, t_hi = 0.0, f_lo = 0.0, f_hi = 0.0;
  bool bracketed = false;
  double t = std::clamp(t_seed, 1e-8, kTMax / kGrow);
  double ft = f(t);
  if (std::isfinite(ft)) {
    if (ft == 0.0) {
      out.t_star = t;
      return out;
    }
    if (ft > 0.0) {
      // Root is to the right of the seed.
      while (t < kTMax) {
        const double next = std::min(t * kGrow, kTMax);
        const double f_next = f(next);
        if (!std::isfinite(f_next)) break;
        if (f_next <= 0.0) {
          t_lo = t;
          f_lo = ft;
          t_hi = next;
          f_hi = f_next;
          bracketed = true;
          break;
        }
        t = next;
        ft = f_next;
      }
    } else {
      // Root is to the left of the seed.
      while (t > kTMin) {
        const double next = std::max(t / kGrow, kTMin);
        const double f_next = f(next);
        if (!std::isfinite(f_next)) break;
        if (f_next > 0.0) {
          t_lo = next;
          f_lo = f_next;
          t_hi = t;
          f_hi = ft;
          bracketed = true;
          break;
        }
        t = next;
        ft = f_next;
      }
    }
  }
  if (!bracketed) {
    // Reference implementation's fallback.
    out.fallback = true;
    out.t_star = 0.28 * std::pow(n, -0.4);
    return out;
  }

  // ITP iteration on [t_lo, t_hi] with f_lo > 0 >= f_hi. A relative
  // tolerance of 1e-5 on t gives ~5e-6 relative accuracy on h = sqrt(t)*r,
  // far below the binning error of any realistic grid.
  const double eps = std::max(1e-5 * t_hi, 1e-14);
  const double k1 = 0.2 / (t_hi - t_lo);
  const int n_half = std::max(
      0, static_cast<int>(std::ceil(std::log2((t_hi - t_lo) / (2.0 * eps)))));
  const int n_max = n_half + 1;
  for (int j = 0; t_hi - t_lo > 2.0 * eps && j < 64; ++j) {
    const double width = t_hi - t_lo;
    const double mid = 0.5 * (t_lo + t_hi);
    const double radius = eps * std::ldexp(1.0, n_max - j) - 0.5 * width;
    const double delta = k1 * width * width;
    // Regula-falsi interpolant, truncated towards the midpoint, projected
    // into the minmax radius.
    const double x_f = (f_hi * t_lo - f_lo * t_hi) / (f_hi - f_lo);
    const double sigma = (mid >= x_f) ? 1.0 : -1.0;
    const double x_t =
        (delta <= std::fabs(mid - x_f)) ? x_f + sigma * delta : mid;
    const double x_itp =
        (std::fabs(x_t - mid) <= radius) ? x_t : mid - sigma * radius;
    const double y = f(x_itp);
    if (!std::isfinite(y)) break;
    if (y > 0.0) {
      t_lo = x_itp;
      f_lo = y;
    } else if (y < 0.0) {
      t_hi = x_itp;
      f_hi = y;
    } else {
      t_lo = x_itp;
      t_hi = x_itp;
      break;
    }
  }
  out.t_star = 0.5 * (t_lo + t_hi);
  return out;
}

// Runs the diffusion selector on the DCT-II coefficients of the
// unit-mass-binned sample over a grid of range `r`. `evaluations_out`
// (optional) accumulates the fixed-point evaluation count for span
// annotations.
Result<double> BotevFromDct(std::span<const double> dct,
                            std::span<const double> samples, double n,
                            double r, const ObsOptions& obs,
                            uint64_t* evaluations_out = nullptr) {
  const size_t grid_size = dct.size();
  std::vector<double> i_sq(grid_size - 1);
  std::vector<double> a2(grid_size - 1);
  for (size_t k = 1; k < grid_size; ++k) {
    i_sq[k - 1] = static_cast<double>(k) * static_cast<double>(k);
    a2[k - 1] = dct[k] * dct[k];
  }
  // Seed the bracket at the normalized time a rule-of-thumb bandwidth
  // implies; the fixed point is typically within a decade of it.
  const double h_seed = SilvermanBandwidth(samples);
  const double t_seed = (h_seed / r) * (h_seed / r);
  const BotevSelection selection = SolveBotevFixedPoint(n, i_sq, a2, t_seed);
  if (selection.fallback) {
    obs.GetCounter("kde_botev_fallbacks_total").Increment();
  }
  obs.GetCounter("kde_botev_iterations_total").Increment(selection.evaluations);
  if (evaluations_out != nullptr) *evaluations_out += selection.evaluations;
  const double h = std::sqrt(selection.t_star) * r;
  if (!(h > 0.0) || !std::isfinite(h)) return SilvermanBandwidth(samples);
  return h;
}

// Multiplies the DCT-II coefficients in place by the Gaussian factors
// exp(-k^2 pi^2 (h/range)^2 / 2) (diffusion to bandwidth h with reflective
// boundaries) and returns how many leading coefficients survive.
size_t DampBinnedDct(std::vector<double>& dct, double h, double range) {
  const size_t m = dct.size();
  const double t = (h / range) * (h / range);
  // exp(-0.5 k^2 pi^2 t) by the same two-factor recurrence as the Botev
  // stage sums; once the factor underflows the remaining coefficients
  // are exact zeros.
  const double c = 0.5 * kPi * kPi * t;
  const double q2 = std::exp(-2.0 * c);
  double e = 1.0;                 // exp(-c * 0^2)
  double gap = std::exp(-c);      // exp(-c * 1) = e_1 / e_0
  for (size_t k = 0; k < m; ++k) {
    dct[k] *= e;
    e *= gap;
    gap *= q2;
    if (e < 1e-300) {
      std::fill(dct.begin() + static_cast<ptrdiff_t>(k) + 1, dct.end(), 0.0);
      return k + 1;
    }
  }
  return m;
}

}  // namespace

std::vector<double> LinearBinning(std::span<const double> samples, double lo,
                                  double hi, size_t grid_size) {
  std::vector<double> bins(grid_size, 0.0);
  const double step = (hi - lo) / static_cast<double>(grid_size - 1);
  for (const double x : samples) {
    const BinSplit split = LinearBinSplit(x, lo, step, grid_size);
    bins[split.index] += 1.0 - split.frac;
    bins[split.index + 1] += split.frac;
  }
  return bins;
}

Status BinnedDctValues(std::span<const double> dct, double range,
                       DctPlan& plan, std::vector<double>& values) {
  const size_t m = dct.size();
  std::vector<double> smooth;
  VASTATS_RETURN_IF_ERROR(plan.Dct3(dct, smooth));
  // Dct3(Dct2(x)) = (m/2) x, so masses are (2/m) * smooth; densities
  // divide by the bin width range/(m-1).
  const double scale = 2.0 / static_cast<double>(m) *
                       static_cast<double>(m - 1) / range;
  values.resize(m);
  for (size_t i = 0; i < m; ++i) {
    values[i] = std::max(0.0, smooth[i] * scale);
  }
  return Status::Ok();
}

Status SmoothBinnedDct(std::vector<double>& dct, double h, double range,
                       DctPlan& plan, std::vector<double>& values) {
  DampBinnedDct(dct, h, range);
  return BinnedDctValues(dct, range, plan, values);
}

Status KdeOptions::Validate() const {
  if (grid_size < 16) {
    return Status::InvalidArgument("KdeOptions.grid_size must be >= 16");
  }
  if (bandwidth < 0.0) {
    return Status::InvalidArgument("KdeOptions.bandwidth must be >= 0");
  }
  if (padding_fraction < 0.0) {
    return Status::InvalidArgument(
        "KdeOptions.padding_fraction must be >= 0");
  }
  if (binned && !IsPowerOfTwo(grid_size)) {
    return Status::InvalidArgument(
        "binned KDE requires a power-of-two grid_size");
  }
  return Status::Ok();
}

double SilvermanBandwidth(std::span<const double> samples) {
  const double spread = RobustSpread(samples);
  if (spread <= 0.0) return DegenerateFloor(samples);
  return 0.9 * spread *
         std::pow(static_cast<double>(samples.size()), -0.2);
}

double ScottBandwidth(std::span<const double> samples) {
  const double sd = ComputeMoments(samples).SampleStdDev();
  if (sd <= 0.0) return DegenerateFloor(samples);
  return 1.06 * sd * std::pow(static_cast<double>(samples.size()), -0.2);
}

Result<double> BotevBandwidth(std::span<const double> samples,
                              size_t grid_size, const ObsOptions& obs,
                              DctPlan* plan) {
  if (samples.size() < 2) {
    return Status::InvalidArgument("BotevBandwidth needs >= 2 samples");
  }
  if (!IsPowerOfTwo(grid_size) || grid_size < 16) {
    return Status::InvalidArgument(
        "BotevBandwidth grid_size must be a power of two >= 16");
  }
  const auto [min_it, max_it] =
      std::minmax_element(samples.begin(), samples.end());
  double lo = *min_it;
  double hi = *max_it;
  if (!(hi > lo)) return DegenerateFloor(samples);
  const double range = hi - lo;
  lo -= range / 10.0;
  hi += range / 10.0;
  const double r = hi - lo;

  // Histogram of probability mass per bin, then DCT-II coefficients.
  DctPlan local_plan;
  DctPlan& dct_plan = plan != nullptr ? *plan : local_plan;
  std::vector<double> bins = LinearBinning(samples, lo, hi, grid_size);
  const double n_dbl = static_cast<double>(samples.size());
  for (double& b : bins) b /= n_dbl;
  std::vector<double> dct;
  VASTATS_RETURN_IF_ERROR(dct_plan.Dct2(bins, dct));
  return BotevFromDct(dct, samples, n_dbl, r, obs);
}

Result<double> SelectBandwidth(std::span<const double> samples,
                               const KdeOptions& options,
                               const ObsOptions& obs, DctPlan* plan) {
  if (options.bandwidth > 0.0) return options.bandwidth;
  switch (options.rule) {
    case BandwidthRule::kSilverman:
      return SilvermanBandwidth(samples);
    case BandwidthRule::kScott:
      return ScottBandwidth(samples);
    case BandwidthRule::kBotev: {
      size_t grid = options.grid_size;
      if (!IsPowerOfTwo(grid)) {
        // The selector's DCT needs a power-of-two grid; substitute the
        // paper's default and surface the substitution.
        grid = 4096;
        obs.GetCounter("kde_botev_grid_substituted_total").Increment();
      }
      return BotevBandwidth(samples, grid, obs, plan);
    }
  }
  return Status::Internal("unknown BandwidthRule");
}

Result<KdeFitStage> PrepareKdeFit(std::span<const double> samples,
                                  const KdeOptions& options,
                                  const ObsOptions& obs, DctPlan& plan) {
  const size_t m = options.grid_size;
  const double n_dbl = static_cast<double>(samples.size());
  const auto [min_it, max_it] =
      std::minmax_element(samples.begin(), samples.end());
  const double data_min = *min_it;
  const double data_max = *max_it;
  const bool fixed_range = options.x_min < options.x_max;

  // Candidate grid bounds before the bandwidth is known. The h-dependent
  // widening below only moves them when h exceeds the data range.
  double lo, hi;
  if (fixed_range) {
    lo = options.x_min;
    hi = options.x_max;
  } else {
    const double data_span = data_max - data_min;
    lo = data_min - options.padding_fraction * data_span;
    hi = data_max + options.padding_fraction * data_span;
    if (!(lo < hi)) {
      lo -= 1.0;
      hi += 1.0;
    }
  }

  // Bandwidth selection. Under the Botev rule on a power-of-two grid the
  // selector runs on the evaluation grid and bounds themselves, so its
  // LinearBinning + DCT-II pass is shared with the binned smoothing below
  // instead of re-binning and re-transforming.
  KdeFitStage stage;
  double h = 0.0;
  std::vector<double>& dct = stage.coefficients;  // DCT-II of the unit mass
  bool have_dct = false;
  const bool botev_on_grid = options.bandwidth <= 0.0 &&
                             options.rule == BandwidthRule::kBotev &&
                             IsPowerOfTwo(m) && data_max > data_min;
  if (botev_on_grid) {
    std::vector<double> bins = LinearBinning(samples, lo, hi, m);
    for (double& b : bins) b /= n_dbl;
    VASTATS_RETURN_IF_ERROR(plan.Dct2(bins, dct));
    have_dct = true;
    VASTATS_ASSIGN_OR_RETURN(h, BotevFromDct(dct, samples, n_dbl, hi - lo, obs,
                                             &stage.botev_evaluations));
  } else {
    VASTATS_ASSIGN_OR_RETURN(h, SelectBandwidth(samples, options, obs, &plan));
  }

  if (!fixed_range) {
    // The grid must span at least one bandwidth; recompute the bounds now
    // that h is known and drop the cached transform if they moved.
    const double grid_span = std::max(data_max - data_min, h);
    double lo_h = data_min - options.padding_fraction * grid_span;
    double hi_h = data_max + options.padding_fraction * grid_span;
    if (!(lo_h < hi_h)) {
      lo_h -= 1.0;
      hi_h += 1.0;
    }
    if (lo_h != lo || hi_h != hi) {
      lo = lo_h;
      hi = hi_h;
      have_dct = false;
    }
  }

  // A kernel narrower than the grid resolution cannot be tabulated
  // faithfully (it aliases between grid points); clamp to ~1.5 cells. This
  // matters for near-discrete answer sets, where plug-in selectors drive h
  // towards zero.
  h = std::max(h, 1.5 * (hi - lo) / static_cast<double>(m - 1));
  stage.x_min = lo;
  stage.x_max = hi;
  stage.bandwidth = h;

  if (!options.binned) {
    dct.clear();
    return stage;
  }
  // Linear binning + diffusion smoothing in the DCT domain (reflective
  // boundaries). Exact Gaussian smoothing of the binned measure.
  if (!have_dct) {
    std::vector<double> bins = LinearBinning(samples, lo, hi, m);
    for (double& b : bins) b /= n_dbl;
    VASTATS_RETURN_IF_ERROR(plan.Dct2(bins, dct));
  }
  stage.live_coefficients = DampBinnedDct(dct, h, hi - lo);
  return stage;
}

Result<Kde> EstimateKde(std::span<const double> samples,
                        const KdeOptions& options, const ObsOptions& obs,
                        DctPlan* plan) {
  VASTATS_RETURN_IF_ERROR(options.Validate());
  if (samples.size() < 2) {
    return Status::InvalidArgument("EstimateKde needs >= 2 samples");
  }
  // A NaN sample would reach LinearBinning's double->size_t cast (UB) and
  // poison the bandwidth selectors, so reject non-finite input up front.
  for (const double x : samples) {
    if (!std::isfinite(x)) {
      return Status::InvalidArgument("EstimateKde samples must be finite");
    }
  }
  ScopedSpan span(obs, "kde_estimate");
  span.Annotate("samples", static_cast<int64_t>(samples.size()));
  span.Annotate("grid_size", static_cast<int64_t>(options.grid_size));
  span.Annotate("path", options.binned ? "binned_dct" : "direct");
  if (options.binned) {
    obs.GetCounter("kde_binned_path_total").Increment();
  } else {
    obs.GetCounter("kde_direct_path_total").Increment();
  }
  if (options.bandwidth <= 0.0 && options.rule == BandwidthRule::kBotev &&
      !IsPowerOfTwo(options.grid_size)) {
    span.Annotate("botev_grid_substituted", true);
  }

  DctPlan local_plan;
  DctPlan& dct_plan = plan != nullptr ? *plan : local_plan;
  const uint64_t plan_hits_before = dct_plan.cache_hits();
  const uint64_t plan_misses_before = dct_plan.cache_misses();

  VASTATS_ASSIGN_OR_RETURN(KdeFitStage stage,
                           PrepareKdeFit(samples, options, obs, dct_plan));
  const double lo = stage.x_min;
  const double hi = stage.x_max;
  const double h = stage.bandwidth;
  span.Annotate("bandwidth", h);
  if (stage.botev_evaluations > 0) {
    span.Annotate("botev_evaluations",
                  static_cast<int64_t>(stage.botev_evaluations));
  }

  const size_t m = options.grid_size;
  std::vector<double> values(m, 0.0);
  if (!options.binned) {
    // Direct summation: f(x) = 1/(n h) * sum K((x - x_i)/h).
    const double step = (hi - lo) / static_cast<double>(m - 1);
    const double inv_h = 1.0 / h;
    const double norm =
        1.0 / (static_cast<double>(samples.size()) * h * kSqrt2Pi);
    // Kernels beyond ~8.5 sigma contribute < 1e-16; skip them.
    const double cutoff = 8.5 * h;
    std::vector<double> sorted(samples.begin(), samples.end());
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < m; ++i) {
      const double x = lo + static_cast<double>(i) * step;
      const auto first = std::lower_bound(sorted.begin(), sorted.end(),
                                          x - cutoff);
      const auto last =
          std::upper_bound(first, sorted.end(), x + cutoff);
      double sum = 0.0;
      for (auto it = first; it != last; ++it) {
        const double u = (x - *it) * inv_h;
        sum += std::exp(-0.5 * u * u);
      }
      values[i] = norm * sum;
    }
  } else {
    VASTATS_RETURN_IF_ERROR(
        BinnedDctValues(stage.coefficients, hi - lo, dct_plan, values));
  }

  obs.GetCounter("kde_dct_plan_hits_total")
      .Increment(dct_plan.cache_hits() - plan_hits_before);
  obs.GetCounter("kde_dct_plan_misses_total")
      .Increment(dct_plan.cache_misses() - plan_misses_before);

  VASTATS_ASSIGN_OR_RETURN(GridDensity density,
                           GridDensity::Create(lo, hi, std::move(values)));
  VASTATS_RETURN_IF_ERROR(density.Normalize());
  return Kde{std::move(density), h};
}

}  // namespace vastats
