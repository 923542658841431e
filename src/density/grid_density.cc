#include "density/grid_density.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace vastats {

GridDensity::GridDensity(double x_min, double x_max,
                         std::vector<double> values)
    : x_min_(x_min),
      x_max_(x_max),
      step_((x_max - x_min) / static_cast<double>(values.size() - 1)),
      values_(std::move(values)) {}

Result<GridDensity> GridDensity::Create(double x_min, double x_max,
                                        std::vector<double> values) {
  if (!(x_min < x_max)) {
    return Status::InvalidArgument("GridDensity requires x_min < x_max");
  }
  if (values.size() < 2) {
    return Status::InvalidArgument("GridDensity requires >= 2 grid points");
  }
  for (const double v : values) {
    if (!(v >= 0.0) || !std::isfinite(v)) {
      return Status::InvalidArgument(
          "GridDensity values must be finite and non-negative");
    }
  }
  return GridDensity(x_min, x_max, std::move(values));
}

double GridDensity::ValueAt(double x) const {
  if (x < x_min_ || x > x_max_) return 0.0;
  const double pos = (x - x_min_) / step_;
  const size_t lo = std::min(static_cast<size_t>(pos), values_.size() - 2);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + frac * (values_[lo + 1] - values_[lo]);
}

void GridDensity::RebuildCdf() const {
  cdf_.assign(values_.size(), 0.0);
  for (size_t i = 1; i < values_.size(); ++i) {
    cdf_[i] = cdf_[i - 1] + 0.5 * (values_[i - 1] + values_[i]) * step_;
  }
}

double GridDensity::IntegrateRange(double a, double b) const {
  if (a > b) return 0.0;
  a = std::max(a, x_min_);
  b = std::min(b, x_max_);
  if (a >= b) return 0.0;
  if (cdf_.empty()) RebuildCdf();

  auto cdf_at = [&](double x) {
    const double pos = (x - x_min_) / step_;
    const size_t lo = std::min(static_cast<size_t>(pos), values_.size() - 2);
    const double frac = pos - static_cast<double>(lo);
    // Integral over the partial cell: trapezoid with the interpolated value.
    const double v_lo = values_[lo];
    const double v_x = v_lo + frac * (values_[lo + 1] - v_lo);
    return cdf_[lo] + 0.5 * (v_lo + v_x) * frac * step_;
  };
  return cdf_at(b) - cdf_at(a);
}

double GridDensity::TotalMass() const {
  if (cdf_.empty()) RebuildCdf();
  return cdf_.back();
}

Status GridDensity::Normalize() {
  const double mass = TotalMass();
  if (!(mass > 0.0)) {
    return Status::FailedPrecondition("cannot normalize zero-mass density");
  }
  for (double& v : values_) v /= mass;
  cdf_.clear();
  return Status::Ok();
}

double GridDensity::Cdf(double x) const {
  if (x <= x_min_) return 0.0;
  if (x >= x_max_) return TotalMass();
  return IntegrateRange(x_min_, x);
}

Result<double> GridDensity::QuantileOf(double q) const {
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::InvalidArgument("QuantileOf requires q in [0,1]");
  }
  const double mass = TotalMass();
  if (!(mass > 0.0)) {
    return Status::FailedPrecondition("QuantileOf on zero-mass density");
  }
  const double target = q * mass;
  if (cdf_.empty()) RebuildCdf();
  // First grid cell whose cumulative mass reaches the target.
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), target);
  if (it == cdf_.begin()) return x_min_;
  if (it == cdf_.end()) return x_max_;
  const size_t hi = static_cast<size_t>(it - cdf_.begin());
  const size_t lo = hi - 1;
  const double need = target - cdf_[lo];
  const double cell = cdf_[hi] - cdf_[lo];
  const double frac = (cell > 0.0) ? need / cell : 0.0;
  return XAt(lo) + frac * step_;
}

std::vector<Mode> GridDensity::FindModes(double min_relative_height) const {
  std::vector<Mode> modes;
  const size_t n = values_.size();
  const double global_max = *std::max_element(values_.begin(), values_.end());
  const double floor_height = min_relative_height * global_max;

  size_t i = 0;
  while (i < n) {
    // Extend over any plateau of equal values.
    size_t j = i;
    while (j + 1 < n && values_[j + 1] == values_[i]) ++j;
    const bool rises_left = (i == 0) || (values_[i - 1] < values_[i]);
    const bool falls_right = (j == n - 1) || (values_[j + 1] < values_[j]);
    if (rises_left && falls_right && values_[i] > 0.0 &&
        values_[i] >= floor_height && !(i == 0 && j == n - 1)) {
      const size_t mid = (i + j) / 2;
      modes.push_back(Mode{XAt(mid), values_[mid], mid});
    }
    i = j + 1;
  }
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.height > b.height; });
  return modes;
}

double GridDensity::ModeProminence(size_t mode_index) const {
  const double height = values_[mode_index];
  // Walk each direction tracking the lowest point passed; stop on terrain
  // higher than the mode. The key saddle is the higher of the two walk
  // minima among directions that found higher terrain.
  double key_saddle = -1.0;
  bool found_higher = false;
  for (const int direction : {-1, +1}) {
    double walk_min = height;
    bool higher = false;
    for (size_t steps = 1;; ++steps) {
      const long long k = static_cast<long long>(mode_index) +
                          direction * static_cast<long long>(steps);
      if (k < 0 || k >= static_cast<long long>(values_.size())) break;
      const double v = values_[static_cast<size_t>(k)];
      if (v > height) {
        higher = true;
        break;
      }
      walk_min = std::min(walk_min, v);
    }
    if (higher) {
      found_higher = true;
      key_saddle = std::max(key_saddle, walk_min);
    }
  }
  // The globally highest mode (no higher terrain anywhere) gets its full
  // height as prominence.
  return found_higher ? height - key_saddle : height;
}

std::vector<Mode> GridDensity::FindProminentModes(
    double min_prominence_fraction) const {
  const std::vector<Mode> candidates = FindModes(0.0);
  if (candidates.empty()) return {};
  const double threshold = min_prominence_fraction * candidates.front().height;
  std::vector<Mode> modes;
  for (const Mode& mode : candidates) {
    if (ModeProminence(mode.index) >= threshold) modes.push_back(mode);
  }
  return modes;
}

Result<GridDensity> GridDensity::Resample(double x_min, double x_max,
                                          size_t num_points) const {
  if (!(x_min < x_max) || num_points < 2) {
    return Status::InvalidArgument("Resample requires x_min < x_max, n >= 2");
  }
  std::vector<double> values(num_points);
  const double step =
      (x_max - x_min) / static_cast<double>(num_points - 1);
  for (size_t i = 0; i < num_points; ++i) {
    values[i] = ValueAt(x_min + static_cast<double>(i) * step);
  }
  return Create(x_min, x_max, std::move(values));
}

}  // namespace vastats
