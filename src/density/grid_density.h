// A probability density function tabulated on a uniform grid.
//
// This is the representation the extraction pipeline works with: KDE
// produces a GridDensity, the greedy CIO algorithm consumes one, and the
// distribution distances integrate over pairs of them. Integration uses the
// trapezoid rule on the grid; evaluation between grid points interpolates
// linearly; the density is zero outside [x_min, x_max].

#ifndef VASTATS_DENSITY_GRID_DENSITY_H_
#define VASTATS_DENSITY_GRID_DENSITY_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/status.h"

namespace vastats {

// A local maximum of a GridDensity.
struct Mode {
  double x = 0.0;       // location
  double height = 0.0;  // density value at the mode
  size_t index = 0;     // grid index
};

class GridDensity {
 public:
  // Creates a density over [x_min, x_max] with the given grid values.
  // Requires x_min < x_max, values.size() >= 2, and all values >= 0.
  static Result<GridDensity> Create(double x_min, double x_max,
                                    std::vector<double> values);

  // Grid geometry.
  double x_min() const { return x_min_; }
  double x_max() const { return x_max_; }
  size_t size() const { return values_.size(); }
  double step() const { return step_; }
  double XAt(size_t i) const { return x_min_ + static_cast<double>(i) * step_; }
  std::span<const double> values() const { return values_; }
  double range() const { return x_max_ - x_min_; }

  // Density at `x` (linear interpolation; 0 outside the grid).
  double ValueAt(double x) const;

  // Trapezoid integral of the density over [a, b] (clipped to the grid).
  double IntegrateRange(double a, double b) const;

  // Trapezoid integral over the whole grid.
  double TotalMass() const;

  // Scales the density so TotalMass() == 1. Fails when the mass is zero.
  Status Normalize();

  // CDF at `x` (0 left of the grid, TotalMass() right of it).
  double Cdf(double x) const;

  // Smallest x with Cdf(x) >= q * TotalMass(), for q in [0, 1].
  Result<double> QuantileOf(double q) const;

  // Local maxima, tallest first. `min_relative_height` discards modes below
  // that fraction of the global maximum (guards against estimation noise).
  // Plateau maxima report their midpoint. Boundary points count as modes
  // when they exceed their single neighbor.
  std::vector<Mode> FindModes(double min_relative_height = 0.0) const;

  // Topographic prominence of the mode at grid index `mode_index`: how far
  // the density must descend from the mode before climbing to higher
  // terrain (the mode's height itself when no higher terrain exists). Used
  // to tell real structure from estimation wiggle.
  double ModeProminence(size_t mode_index) const;

  // Modes whose prominence reaches `min_prominence_fraction` of the global
  // maximum, tallest first. A small KDE ripple riding on a big hump has
  // high *height* but near-zero *prominence*, so this filter isolates the
  // genuinely separate peaks.
  std::vector<Mode> FindProminentModes(double min_prominence_fraction) const;

  // Returns a copy evaluated on a new uniform grid over [x_min, x_max] with
  // `num_points` points (values interpolated, zero outside the source grid).
  Result<GridDensity> Resample(double x_min, double x_max,
                               size_t num_points) const;

 private:
  GridDensity(double x_min, double x_max, std::vector<double> values);

  void RebuildCdf() const;

  double x_min_ = 0.0;
  double x_max_ = 1.0;
  double step_ = 1.0;
  std::vector<double> values_;
  // Lazily built cumulative trapezoid integral; invalidated by mutation.
  mutable std::vector<double> cdf_;
};

}  // namespace vastats

#endif  // VASTATS_DENSITY_GRID_DENSITY_H_
