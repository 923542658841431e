#include "density/grid_density.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/math.h"

namespace vastats {
namespace {

GridDensity MakeTriangle() {
  // Triangle over [0, 2] peaking at x=1: f(x) = x on [0,1], 2-x on [1,2].
  return testing::MakeAnalyticDensity(0.0, 2.0, 2001, [](double x) {
    return x <= 1.0 ? x : 2.0 - x;
  });
}

TEST(GridDensityTest, CreateValidatesInput) {
  EXPECT_FALSE(GridDensity::Create(1.0, 1.0, {0.1, 0.2}).ok());
  EXPECT_FALSE(GridDensity::Create(0.0, 1.0, {0.1}).ok());
  EXPECT_FALSE(GridDensity::Create(0.0, 1.0, {0.1, -0.2}).ok());
  EXPECT_TRUE(GridDensity::Create(0.0, 1.0, {0.1, 0.2}).ok());
}

TEST(GridDensityTest, GeometryAccessors) {
  const GridDensity density =
      GridDensity::Create(0.0, 10.0, std::vector<double>(11, 0.1)).value();
  EXPECT_DOUBLE_EQ(density.x_min(), 0.0);
  EXPECT_DOUBLE_EQ(density.x_max(), 10.0);
  EXPECT_DOUBLE_EQ(density.step(), 1.0);
  EXPECT_DOUBLE_EQ(density.range(), 10.0);
  EXPECT_EQ(density.size(), 11u);
  EXPECT_DOUBLE_EQ(density.XAt(3), 3.0);
}

TEST(GridDensityTest, ValueAtInterpolatesLinearly) {
  const GridDensity density =
      GridDensity::Create(0.0, 1.0, {0.0, 1.0}).value();
  EXPECT_DOUBLE_EQ(density.ValueAt(0.25), 0.25);
  EXPECT_DOUBLE_EQ(density.ValueAt(0.0), 0.0);
  EXPECT_DOUBLE_EQ(density.ValueAt(1.0), 1.0);
  EXPECT_DOUBLE_EQ(density.ValueAt(-0.1), 0.0);  // outside -> 0
  EXPECT_DOUBLE_EQ(density.ValueAt(1.1), 0.0);
}

TEST(GridDensityTest, TotalMassOfTriangleIsOne) {
  const GridDensity density = MakeTriangle();
  EXPECT_NEAR(density.TotalMass(), 1.0, 1e-9);
}

TEST(GridDensityTest, IntegrateRangeSubIntervals) {
  const GridDensity density = MakeTriangle();
  // CDF of the triangle: x^2/2 on [0,1].
  EXPECT_NEAR(density.IntegrateRange(0.0, 0.5), 0.125, 1e-6);
  EXPECT_NEAR(density.IntegrateRange(0.0, 1.0), 0.5, 1e-6);
  EXPECT_NEAR(density.IntegrateRange(0.5, 1.5), 0.75, 1e-6);
  // Clipping and degenerate ranges.
  EXPECT_NEAR(density.IntegrateRange(-5.0, 5.0), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(density.IntegrateRange(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(density.IntegrateRange(2.0, 1.0), 0.0);
}

TEST(GridDensityTest, IntegrateRangeSubCellPrecision) {
  const GridDensity density =
      GridDensity::Create(0.0, 1.0, {1.0, 1.0}).value();  // uniform
  EXPECT_NEAR(density.IntegrateRange(0.3, 0.31), 0.01, 1e-12);
}

TEST(GridDensityTest, NormalizeScalesToUnitMass) {
  GridDensity density =
      GridDensity::Create(0.0, 1.0, {2.0, 2.0, 2.0}).value();
  ASSERT_TRUE(density.Normalize().ok());
  EXPECT_NEAR(density.TotalMass(), 1.0, 1e-12);
  GridDensity zero = GridDensity::Create(0.0, 1.0, {0.0, 0.0}).value();
  EXPECT_FALSE(zero.Normalize().ok());
}

TEST(GridDensityTest, CdfMonotoneAndBounded) {
  const GridDensity density = MakeTriangle();
  double prev = -1.0;
  for (double x = -0.5; x <= 2.5; x += 0.1) {
    const double c = density.Cdf(x);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0 + 1e-9);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(density.Cdf(-1.0), 0.0);
  EXPECT_NEAR(density.Cdf(3.0), 1.0, 1e-9);
}

TEST(GridDensityTest, QuantileInvertsCdf) {
  const GridDensity density = MakeTriangle();
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const auto x = density.QuantileOf(q);
    ASSERT_TRUE(x.ok());
    EXPECT_NEAR(density.Cdf(x.value()), q, 1e-4) << "q=" << q;
  }
  EXPECT_FALSE(density.QuantileOf(-0.1).ok());
  EXPECT_FALSE(density.QuantileOf(1.1).ok());
}

TEST(GridDensityTest, FindModesSingle) {
  const GridDensity density = MakeTriangle();
  const std::vector<Mode> modes = density.FindModes();
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_NEAR(modes[0].x, 1.0, 1e-3);
  EXPECT_NEAR(modes[0].height, 1.0, 1e-3);
}

TEST(GridDensityTest, FindModesMultipleSortedByHeight) {
  const GridDensity density = testing::MakeBumpDensity(
      0.0, 30.0, 3001,
      {{0.2, 5.0, 1.0}, {0.5, 15.0, 1.0}, {0.3, 25.0, 1.0}});
  const std::vector<Mode> modes = density.FindModes(0.05);
  ASSERT_EQ(modes.size(), 3u);
  EXPECT_NEAR(modes[0].x, 15.0, 0.1);  // tallest first
  EXPECT_NEAR(modes[1].x, 25.0, 0.1);
  EXPECT_NEAR(modes[2].x, 5.0, 0.1);
  EXPECT_GE(modes[0].height, modes[1].height);
  EXPECT_GE(modes[1].height, modes[2].height);
}

TEST(GridDensityTest, FindModesRelativeHeightFilter) {
  const GridDensity density = testing::MakeBumpDensity(
      0.0, 30.0, 3001, {{0.95, 10.0, 1.0}, {0.05, 25.0, 1.0}});
  EXPECT_EQ(density.FindModes(0.0).size(), 2u);
  EXPECT_EQ(density.FindModes(0.2).size(), 1u);
}

TEST(GridDensityTest, FindModesPlateauReportsMidpoint) {
  const GridDensity density =
      GridDensity::Create(0.0, 4.0, {0.0, 1.0, 1.0, 1.0, 0.0}).value();
  const std::vector<Mode> modes = density.FindModes();
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_DOUBLE_EQ(modes[0].x, 2.0);
}

TEST(GridDensityTest, FindModesBoundaryMaximum) {
  const GridDensity density =
      GridDensity::Create(0.0, 2.0, {2.0, 1.0, 0.0}).value();
  const std::vector<Mode> modes = density.FindModes();
  ASSERT_EQ(modes.size(), 1u);
  EXPECT_DOUBLE_EQ(modes[0].x, 0.0);
}

TEST(GridDensityTest, FindModesConstantDensityHasNone) {
  const GridDensity density =
      GridDensity::Create(0.0, 1.0, {1.0, 1.0, 1.0}).value();
  EXPECT_TRUE(density.FindModes().empty());
}

TEST(GridDensityTest, ModeProminenceOfIsolatedPeaks) {
  // Two well-separated Gaussians dropping to ~0 between them: each mode's
  // prominence is essentially its height.
  const GridDensity density = testing::MakeBumpDensity(
      0.0, 40.0, 4001, {{0.6, 10.0, 1.0}, {0.4, 30.0, 1.0}});
  const std::vector<Mode> modes = density.FindModes(0.1);
  ASSERT_EQ(modes.size(), 2u);
  EXPECT_NEAR(density.ModeProminence(modes[0].index), modes[0].height,
              0.01 * modes[0].height);
  EXPECT_NEAR(density.ModeProminence(modes[1].index), modes[1].height,
              0.01 * modes[1].height);
}

TEST(GridDensityTest, ModeProminenceOfRippleIsSmall) {
  // A small ripple riding on the flank of a big hump: high height, tiny
  // prominence.
  const GridDensity density = testing::MakeAnalyticDensity(
      -5.0, 5.0, 4001, [](double x) {
        return NormalPdf(x) + 0.005 * NormalPdf((x - 1.0) / 0.05) / 0.05;
      });
  const std::vector<Mode> modes = density.FindModes(0.0);
  ASSERT_GE(modes.size(), 2u);
  // The ripple is the non-tallest mode nearest x = 1.
  const Mode* ripple = nullptr;
  for (const Mode& mode : modes) {
    if (std::fabs(mode.x - 1.0) < 0.2) ripple = &mode;
  }
  ASSERT_NE(ripple, nullptr);
  EXPECT_GT(ripple->height, 0.5 * modes[0].height);  // tall in height...
  EXPECT_LT(density.ModeProminence(ripple->index),
            0.2 * modes[0].height);  // ...but barely prominent
  // FindProminentModes keeps only the main hump at a 30% threshold.
  const std::vector<Mode> prominent = density.FindProminentModes(0.3);
  ASSERT_EQ(prominent.size(), 1u);
  EXPECT_NEAR(prominent[0].x, 0.0, 0.1);
}

TEST(GridDensityTest, FindProminentModesKeepsRealStructure) {
  const GridDensity density = testing::MakeBumpDensity(
      0.0, 60.0, 4001,
      {{0.4, 10.0, 1.0}, {0.35, 30.0, 1.0}, {0.25, 50.0, 1.0}});
  EXPECT_EQ(density.FindProminentModes(0.1).size(), 3u);
  EXPECT_TRUE(
      GridDensity::Create(0.0, 1.0, {1.0, 1.0}).value()
          .FindProminentModes(0.1)
          .empty());
}

TEST(GridDensityTest, ResampleOntoWiderGrid) {
  const GridDensity density = MakeTriangle();
  const auto wide = density.Resample(-1.0, 3.0, 801);
  ASSERT_TRUE(wide.ok());
  EXPECT_DOUBLE_EQ(wide->ValueAt(-0.5), 0.0);
  EXPECT_NEAR(wide->ValueAt(1.0), 1.0, 1e-3);
  EXPECT_NEAR(wide->TotalMass(), 1.0, 1e-2);
  EXPECT_FALSE(density.Resample(1.0, 0.0, 100).ok());
}

}  // namespace
}  // namespace vastats
