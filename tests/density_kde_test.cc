#include "density/kde.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "stats/descriptive.h"
#include "test_util.h"
#include "util/fft.h"
#include "util/math.h"
#include "util/random.h"

namespace vastats {
namespace {

TEST(KdeTest, NonFiniteInputsRejected) {
  // A NaN would otherwise reach LinearBinning's double->size_t cast (UB).
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  KdeOptions options;
  const auto with_nan =
      EstimateKde(std::vector<double>{1.0, nan, 2.0}, options);
  ASSERT_FALSE(with_nan.ok());
  EXPECT_EQ(with_nan.status().code(), StatusCode::kInvalidArgument);
  const auto with_inf =
      EstimateKde(std::vector<double>{1.0, -inf, 2.0}, options);
  ASSERT_FALSE(with_inf.ok());
  EXPECT_EQ(with_inf.status().code(), StatusCode::kInvalidArgument);
}

TEST(KdeOptionsTest, Validation) {
  KdeOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.grid_size = 4;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.bandwidth = -1.0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.padding_fraction = -0.5;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.binned = true;
  options.grid_size = 1000;  // not a power of two
  EXPECT_FALSE(options.Validate().ok());
}

TEST(BandwidthTest, SilvermanOnStandardNormal) {
  const std::vector<double> samples = testing::NormalSample(1000, 1);
  const double h = SilvermanBandwidth(samples);
  // 0.9 * ~1.0 * 1000^(-0.2) ~= 0.226.
  EXPECT_NEAR(h, 0.9 * std::pow(1000.0, -0.2), 0.05);
}

TEST(BandwidthTest, ScottOnStandardNormal) {
  const std::vector<double> samples = testing::NormalSample(1000, 2);
  EXPECT_NEAR(ScottBandwidth(samples), 1.06 * std::pow(1000.0, -0.2), 0.05);
}

TEST(BandwidthTest, DegenerateSampleGetsPositiveFloor) {
  const std::vector<double> constant(50, 3.0);
  EXPECT_GT(SilvermanBandwidth(constant), 0.0);
  EXPECT_GT(ScottBandwidth(constant), 0.0);
}

// Silverman's rule with its quartiles taken the straightforward way: two
// full sorts through Quantile. SilvermanBandwidth selects the same order
// statistics without sorting, so the two must agree bit for bit.
double TwoSortSilverman(std::span<const double> samples) {
  const double sd = ComputeMoments(samples).SampleStdDev();
  const double iqr_sigma =
      (Quantile(samples, 0.75).value() - Quantile(samples, 0.25).value()) /
      1.34;
  double spread = sd;
  if (iqr_sigma > 0.0) spread = std::min(spread, iqr_sigma);
  if (spread <= 0.0) spread = sd;
  return 0.9 * spread * std::pow(static_cast<double>(samples.size()), -0.2);
}

TEST(BandwidthTest, SilvermanMatchesTwoSortQuartilesBitForBit) {
  std::vector<std::vector<double>> samples = {
      testing::UnimodalSample(1234), testing::BimodalAgreementSample(1234),
      testing::HeavyTailSample(1234), testing::NearDiscreteSample(1234)};
  for (const int n : {2, 3, 4, 5, 7, 400, 401}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      std::vector<double> draws = testing::NormalSample(n, seed, 1.0, 3.0);
      samples.push_back(draws);
      // Ties on the quartile order statistics.
      for (double& x : draws) x = std::round(x);
      samples.push_back(draws);
    }
  }
  for (const std::vector<double>& sample : samples) {
    const double reference = TwoSortSilverman(sample);
    if (!(reference > 0.0)) continue;  // degenerate: the floor applies
    EXPECT_EQ(SilvermanBandwidth(sample), reference)
        << "n=" << sample.size() << " first=" << sample[0];
  }
}

TEST(BandwidthTest, BotevOnGaussianNearRuleOfThumb) {
  const std::vector<double> samples = testing::NormalSample(2000, 3);
  const auto h = BotevBandwidth(samples);
  ASSERT_TRUE(h.ok());
  const double silverman = SilvermanBandwidth(samples);
  // The diffusion selector should land in the same ballpark on Gaussian data.
  EXPECT_GT(h.value(), 0.3 * silverman);
  EXPECT_LT(h.value(), 3.0 * silverman);
}

TEST(BandwidthTest, BotevSmallerOnBimodalData) {
  // Rule-of-thumb bandwidths oversmooth mixtures; the diffusion selector
  // should pick a clearly smaller h than Silverman's sd-driven value.
  const std::vector<double> samples = testing::BimodalSample(2000, 4, 20.0);
  const auto botev = BotevBandwidth(samples);
  ASSERT_TRUE(botev.ok());
  EXPECT_LT(botev.value(), ScottBandwidth(samples));
}

TEST(BandwidthTest, BotevRejectsBadInput) {
  EXPECT_FALSE(BotevBandwidth(std::vector<double>{1.0}).ok());
  const std::vector<double> samples = testing::NormalSample(100, 5);
  EXPECT_FALSE(BotevBandwidth(samples, 100).ok());  // not a power of two
}

TEST(KdeTest, IntegratesToOne) {
  const std::vector<double> samples = testing::NormalSample(400, 6, 5.0, 2.0);
  for (const bool binned : {false, true}) {
    KdeOptions options;
    options.binned = binned;
    const auto kde = EstimateKde(samples, options);
    ASSERT_TRUE(kde.ok()) << "binned=" << binned;
    EXPECT_NEAR(kde->density.TotalMass(), 1.0, 1e-9);
    EXPECT_GT(kde->bandwidth, 0.0);
  }
}

TEST(KdeTest, RecoversGaussianShape) {
  const std::vector<double> samples =
      testing::NormalSample(5000, 7, 10.0, 2.0);
  KdeOptions options;
  const auto kde = EstimateKde(samples, options);
  ASSERT_TRUE(kde.ok());
  // Compare against the true density at a few points.
  for (const double x : {6.0, 8.0, 10.0, 12.0, 14.0}) {
    const double truth = NormalPdf((x - 10.0) / 2.0) / 2.0;
    EXPECT_NEAR(kde->density.ValueAt(x), truth, 0.02) << "x=" << x;
  }
}

TEST(KdeTest, DirectAndBinnedAgree) {
  const std::vector<double> samples = testing::BimodalSample(800, 8);
  KdeOptions direct;
  direct.rule = BandwidthRule::kSilverman;
  KdeOptions binned = direct;
  binned.binned = true;
  const auto kde_direct = EstimateKde(samples, direct);
  const auto kde_binned = EstimateKde(samples, binned);
  ASSERT_TRUE(kde_direct.ok());
  ASSERT_TRUE(kde_binned.ok());
  double max_diff = 0.0;
  for (double x = -2.0; x <= 12.0; x += 0.05) {
    max_diff = std::max(max_diff,
                        std::fabs(kde_direct->density.ValueAt(x) -
                                  kde_binned->density.ValueAt(x)));
  }
  // Peak height here is ~0.2; binning error should be far below it.
  EXPECT_LT(max_diff, 0.01);
}

TEST(KdeTest, ReusedPlanHitsItsCache) {
  // One caller-held plan across repeated binned fits: the transform tables
  // are built once and reused.
  const std::vector<double> samples = testing::NormalSample(400, 17);
  DctPlan plan;
  for (int i = 0; i < 51; ++i) {
    ASSERT_TRUE(EstimateKde(samples, KdeOptions{}, {}, &plan).ok());
  }
  EXPECT_GT(plan.cache_hits(), plan.cache_misses());
}

TEST(KdeTest, SeparatesWellSpacedModes) {
  const std::vector<double> samples = testing::BimodalSample(2000, 9, 10.0);
  KdeOptions options;
  const auto kde = EstimateKde(samples, options);
  ASSERT_TRUE(kde.ok());
  const std::vector<Mode> modes = kde->density.FindModes(0.2);
  ASSERT_EQ(modes.size(), 2u);
  const double lo = std::min(modes[0].x, modes[1].x);
  const double hi = std::max(modes[0].x, modes[1].x);
  EXPECT_NEAR(lo, 0.0, 0.5);
  EXPECT_NEAR(hi, 10.0, 0.5);
}

TEST(KdeTest, ManualBandwidthOverridesRule) {
  const std::vector<double> samples = testing::NormalSample(200, 10);
  KdeOptions options;
  options.bandwidth = 0.5;
  const auto kde = EstimateKde(samples, options);
  ASSERT_TRUE(kde.ok());
  EXPECT_DOUBLE_EQ(kde->bandwidth, 0.5);
}

TEST(KdeTest, FixedRangeIsHonored) {
  const std::vector<double> samples = testing::NormalSample(200, 11, 5.0);
  KdeOptions options;
  options.x_min = -20.0;
  options.x_max = 40.0;
  const auto kde = EstimateKde(samples, options);
  ASSERT_TRUE(kde.ok());
  EXPECT_DOUBLE_EQ(kde->density.x_min(), -20.0);
  EXPECT_DOUBLE_EQ(kde->density.x_max(), 40.0);
  EXPECT_NEAR(kde->density.TotalMass(), 1.0, 1e-9);
}

TEST(KdeTest, RejectsTinySamples) {
  EXPECT_FALSE(EstimateKde(std::vector<double>{1.0}, KdeOptions{}).ok());
}

TEST(KdeTest, LargerBandwidthSmoothsAwayModes) {
  const std::vector<double> samples = testing::BimodalSample(1000, 12, 6.0);
  KdeOptions narrow;
  narrow.bandwidth = 0.3;
  KdeOptions wide;
  wide.bandwidth = 5.0;
  const auto kde_narrow = EstimateKde(samples, narrow);
  const auto kde_wide = EstimateKde(samples, wide);
  ASSERT_TRUE(kde_narrow.ok());
  ASSERT_TRUE(kde_wide.ok());
  EXPECT_GE(kde_narrow->density.FindModes(0.1).size(), 2u);
  EXPECT_EQ(kde_wide->density.FindModes(0.1).size(), 1u);
}

TEST(KdeTest, BandwidthFlooredToGridResolution) {
  // Near-discrete answer sets drive plug-in bandwidths towards zero; the
  // estimator clamps h to ~1.5 grid cells so the density stays resolvable.
  std::vector<double> atoms;
  for (int i = 0; i < 400; ++i) {
    atoms.push_back(i % 3 == 0 ? 89.0 : (i % 3 == 1 ? 93.0 : 96.0));
  }
  KdeOptions options;  // Botev
  const auto kde = EstimateKde(atoms, options);
  ASSERT_TRUE(kde.ok());
  const double min_h = 1.5 * kde->density.range() /
                       static_cast<double>(kde->density.size() - 1);
  EXPECT_GE(kde->bandwidth, min_h * (1.0 - 1e-12));
  EXPECT_NEAR(kde->density.TotalMass(), 1.0, 1e-9);
  // Three resolvable modes at the atoms.
  const std::vector<Mode> modes = kde->density.FindModes(0.1);
  ASSERT_EQ(modes.size(), 3u);
}

// ---- Binned-vs-direct agreement: the production DCT path against the
// O(n * grid) direct-summation oracle, per sample shape. Both paths see
// identical options apart from the `binned` flag, so they land on the same
// grid and (same selector input) the same bandwidth. Two error regimes on
// the 4096-point default grid:
//  * h spanning many grid cells (the smooth shapes): the paths differ by
//    linear-binning error plus the boundary treatment (reflective DCT vs.
//    truncate-and-normalize), together under 0.5% of the peak in L_inf and
//    5e-3 in L1;
//  * h at the 1.5-cell clamp (near-discrete data): binning resolution is
//    no longer negligible against the kernel width, and the documented
//    bound loosens to 5% of the peak / 0.05 in L1.
struct AgreementCase {
  const char* name;
  std::vector<double> (*make)(uint64_t seed);
  double linf_frac_of_peak;
  double l1;
};

// Printed by its fields: the raw-byte fallback would put the addresses of
// `name` and `make` into the discovered ctest name.
void PrintTo(const AgreementCase& test_case, std::ostream* os) {
  *os << test_case.name << " linf_frac_of_peak="
      << test_case.linf_frac_of_peak << " l1=" << test_case.l1;
}

class KdeBinnedDirectAgreement
    : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(KdeBinnedDirectAgreement, PathsAgreeWithinBinningError) {
  const std::vector<double> samples = GetParam().make(1234);
  KdeOptions direct_options;  // Botev rule, 4096 grid
  direct_options.binned = false;
  KdeOptions binned_options = direct_options;
  binned_options.binned = true;
  const auto direct = EstimateKde(samples, direct_options);
  const auto binned = EstimateKde(samples, binned_options);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(binned.ok());
  // Same selector input => same bandwidth, same grid.
  EXPECT_DOUBLE_EQ(direct->bandwidth, binned->bandwidth);
  ASSERT_EQ(direct->density.size(), binned->density.size());
  ASSERT_DOUBLE_EQ(direct->density.x_min(), binned->density.x_min());
  ASSERT_DOUBLE_EQ(direct->density.x_max(), binned->density.x_max());
  const double dx = direct->density.range() /
                    static_cast<double>(direct->density.size() - 1);
  double peak = 0.0, l_inf = 0.0, l1 = 0.0;
  for (size_t i = 0; i < direct->density.size(); ++i) {
    const double a = direct->density.values()[i];
    const double b = binned->density.values()[i];
    peak = std::max(peak, a);
    l_inf = std::max(l_inf, std::fabs(a - b));
    l1 += std::fabs(a - b) * dx;
  }
  EXPECT_LT(l_inf, GetParam().linf_frac_of_peak * peak) << GetParam().name;
  EXPECT_LT(l1, GetParam().l1) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdeBinnedDirectAgreement,
    ::testing::Values(
        AgreementCase{"unimodal", testing::UnimodalSample, 5e-3, 5e-3},
        AgreementCase{"bimodal", testing::BimodalAgreementSample, 5e-3, 5e-3},
        AgreementCase{"heavy_tailed", testing::HeavyTailSample, 5e-3, 5e-3},
        AgreementCase{"near_discrete", testing::NearDiscreteSample, 0.05, 0.05}),
    [](const ::testing::TestParamInfo<AgreementCase>& info) {
      return info.param.name;
    });

// Property sweep: unit mass and non-negativity across sample shapes.
struct KdeCase {
  const char* name;
  int n;
  uint64_t seed;
  bool binned;
};

// Printed by its fields: gtest's raw-byte fallback would put the address of
// `name` into the discovered ctest name, which then changes every run.
void PrintTo(const KdeCase& test_case, std::ostream* os) {
  *os << test_case.name << " n=" << test_case.n << " seed=" << test_case.seed
      << (test_case.binned ? " binned" : " direct");
}

class KdeMassProperty : public ::testing::TestWithParam<KdeCase> {};

TEST_P(KdeMassProperty, UnitMassNonNegative) {
  const KdeCase& test_case = GetParam();
  Rng rng(test_case.seed);
  std::vector<double> samples(static_cast<size_t>(test_case.n));
  for (double& v : samples) {
    v = rng.Bernoulli(0.3) ? rng.Exponential(0.2) : rng.Normal(-5.0, 0.5);
  }
  KdeOptions options;
  options.binned = test_case.binned;
  const auto kde = EstimateKde(samples, options);
  ASSERT_TRUE(kde.ok());
  EXPECT_NEAR(kde->density.TotalMass(), 1.0, 1e-9);
  for (const double v : kde->density.values()) EXPECT_GE(v, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdeMassProperty,
    ::testing::Values(KdeCase{"direct_small", 20, 1, false},
                      KdeCase{"direct_large", 2000, 2, false},
                      KdeCase{"binned_small", 20, 3, true},
                      KdeCase{"binned_large", 2000, 4, true}),
    [](const ::testing::TestParamInfo<KdeCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace vastats
