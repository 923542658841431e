#include "stats/confidence.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/jackknife.h"
#include "test_util.h"
#include "util/random.h"

namespace vastats {
namespace {

struct CiFixture {
  std::vector<double> data;
  std::vector<double> replicates;
  std::vector<double> jackknife;
  double point_estimate = 0.0;
};

CiFixture MakeMeanFixture(int n, uint64_t seed, double mean = 10.0,
                          double sigma = 3.0, int num_sets = 400) {
  CiFixture fixture;
  fixture.data = testing::NormalSample(n, seed, mean, sigma);
  fixture.point_estimate = ComputeMoments(fixture.data).mean();
  BootstrapOptions options;
  options.num_sets = num_sets;
  fixture.replicates =
      BootstrapReplicates(fixture.data,
                          MomentStatisticFn(MomentStatistic::kMean), options,
                          seed + 1)
          .value();
  fixture.jackknife =
      JackknifeMoment(fixture.data, MomentStatistic::kMean).value();
  return fixture;
}

TEST(ConfidenceIntervalTest, LengthAndContains) {
  const ConfidenceInterval ci{1.0, 3.0, 0.9};
  EXPECT_DOUBLE_EQ(ci.Length(), 2.0);
  EXPECT_TRUE(ci.Contains(2.0));
  EXPECT_TRUE(ci.Contains(1.0));
  EXPECT_FALSE(ci.Contains(3.5));
}

TEST(CiMethodToStringTest, AllNamed) {
  EXPECT_EQ(CiMethodToString(CiMethod::kNormal), "normal");
  EXPECT_EQ(CiMethodToString(CiMethod::kPercentile), "percentile");
  EXPECT_EQ(CiMethodToString(CiMethod::kBasic), "basic");
  EXPECT_EQ(CiMethodToString(CiMethod::kBca), "BCa");
}

class AllCiMethods : public ::testing::TestWithParam<CiMethod> {};

TEST_P(AllCiMethods, CoversTrueMeanOnGaussianData) {
  const CiMethod method = GetParam();
  const CiFixture fixture = MakeMeanFixture(400, 100);
  const auto ci = ComputeBootstrapCi(method, fixture.replicates,
                                     fixture.point_estimate, 0.90,
                                     fixture.jackknife);
  ASSERT_TRUE(ci.ok());
  EXPECT_LT(ci->lo, ci->hi);
  // True mean is 10; with n=400, sigma=3 the CI should cover it comfortably.
  EXPECT_TRUE(ci->Contains(10.0))
      << CiMethodToString(method) << " [" << ci->lo << ", " << ci->hi << "]";
  // Sane width: a 90% CI for the mean is about 2*1.645*3/20 = 0.49.
  EXPECT_GT(ci->Length(), 0.2);
  EXPECT_LT(ci->Length(), 1.2);
}

TEST_P(AllCiMethods, HigherConfidenceWiderInterval) {
  const CiMethod method = GetParam();
  const CiFixture fixture = MakeMeanFixture(300, 200);
  const auto narrow = ComputeBootstrapCi(method, fixture.replicates,
                                         fixture.point_estimate, 0.80,
                                         fixture.jackknife);
  const auto wide = ComputeBootstrapCi(method, fixture.replicates,
                                       fixture.point_estimate, 0.95,
                                       fixture.jackknife);
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_LT(narrow->Length(), wide->Length());
}

TEST_P(AllCiMethods, RejectsBadLevel) {
  const CiMethod method = GetParam();
  const CiFixture fixture = MakeMeanFixture(50, 300);
  EXPECT_FALSE(ComputeBootstrapCi(method, fixture.replicates,
                                  fixture.point_estimate, 0.0,
                                  fixture.jackknife)
                   .ok());
  EXPECT_FALSE(ComputeBootstrapCi(method, fixture.replicates,
                                  fixture.point_estimate, 1.0,
                                  fixture.jackknife)
                   .ok());
}

INSTANTIATE_TEST_SUITE_P(Methods, AllCiMethods,
                         ::testing::Values(CiMethod::kNormal,
                                           CiMethod::kPercentile,
                                           CiMethod::kBasic, CiMethod::kBca));

TEST(BcaTest, RequiresJackknife) {
  const CiFixture fixture = MakeMeanFixture(50, 400);
  EXPECT_FALSE(ComputeBootstrapCi(CiMethod::kBca, fixture.replicates,
                                  fixture.point_estimate, 0.9, {})
                   .ok());
}

TEST(BcaTest, MatchesPercentileOnSymmetricData) {
  // With symmetric data and a well-centered estimator, z0 ~ 0 and a ~ 0, so
  // BCa should be close to the percentile interval.
  const CiFixture fixture = MakeMeanFixture(500, 500, 0.0, 1.0, 2000);
  const auto bca =
      BcaCi(fixture.replicates, fixture.point_estimate, 0.9,
            fixture.jackknife);
  const auto pct = PercentileCi(fixture.replicates, 0.9);
  ASSERT_TRUE(bca.ok());
  ASSERT_TRUE(pct.ok());
  EXPECT_NEAR(bca->lo, pct->lo, 0.02);
  EXPECT_NEAR(bca->hi, pct->hi, 0.02);
}

TEST(BcaTest, ShiftsIntervalOnSkewedStatistic) {
  // Variance of lognormal-ish data has a skewed sampling distribution; BCa
  // should differ visibly from the percentile interval.
  Rng rng(600);
  std::vector<double> data(200);
  for (double& v : data) v = std::exp(rng.Normal(0.0, 1.0));
  const double var_hat = ComputeMoments(data).SampleVariance();
  BootstrapOptions options;
  options.num_sets = 1500;
  const auto replicates = BootstrapReplicates(
      data, MomentStatisticFn(MomentStatistic::kVariance), options, 601);
  const auto jackknife = JackknifeMoment(data, MomentStatistic::kVariance);
  const auto bca = BcaCi(*replicates, var_hat, 0.9, *jackknife);
  const auto pct = PercentileCi(*replicates, 0.9);
  ASSERT_TRUE(bca.ok());
  ASSERT_TRUE(pct.ok());
  // For a right-skewed statistic, BCa shifts both endpoints upward.
  EXPECT_GT(bca->hi, pct->hi);
}

TEST(BcaTest, DegenerateAccelerationFallsBackToBiasCorrectedPercentile) {
  // Regression test for the BCa pole: with heavy skew, 1 - a*(z0 + z) can
  // go negative, which used to flip the adjusted quantile to the wrong tail
  // (alpha1 ~ 1 -> the "lower" endpoint landed at the replicate maximum).
  // Replicates 1..10000 with a point estimate below all of them clamp the
  // below-fraction to 0.5/b, so z0 ~ -3.89; at level 0.9999, z_lo ~ -3.89;
  // the jackknife ensemble below gives a ~ -0.14, making the lower-endpoint
  // denominator 1 - a*(z0 + z_lo) ~ -0.09 < 0.
  std::vector<double> replicates(10000);
  for (size_t i = 0; i < replicates.size(); ++i) {
    replicates[i] = static_cast<double>(i + 1);
  }
  std::vector<double> jackknife(10, 0.0);
  jackknife.back() = 10.0;
  const auto ci = BcaCi(replicates, 0.0, 0.9999, jackknife);
  ASSERT_TRUE(ci.ok());
  EXPECT_LE(ci->lo, ci->hi);
  // Pre-fix both endpoints collapsed onto the extreme upper tail
  // (hi = 10000). The bias-corrected percentile fallback keeps the interval
  // in the far lower tail where z0 points.
  EXPECT_LT(ci->hi, 100.0);
}

TEST(BcaTest, CoverageNearNominalOnSkewedStatistic) {
  // Empirical coverage of the BCa interval for the variance of exponential
  // data should be near 90% — and clearly better than catastrophic.
  const int kTrials = 120;
  const double true_variance = 1.0;  // Exp(1)
  int covered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(10'000 + static_cast<uint64_t>(trial));
    std::vector<double> data(150);
    for (double& v : data) v = rng.Exponential(1.0);
    const double var_hat = ComputeMoments(data).SampleVariance();
    BootstrapOptions options;
    options.num_sets = 300;
    const auto replicates =
        BootstrapReplicates(data,
                            MomentStatisticFn(MomentStatistic::kVariance),
                            options, rng.NextUint64());
    const auto jackknife = JackknifeMoment(data, MomentStatistic::kVariance);
    const auto ci = BcaCi(*replicates, var_hat, 0.90, *jackknife);
    ASSERT_TRUE(ci.ok());
    if (ci->Contains(true_variance)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GT(coverage, 0.75);
  EXPECT_LE(coverage, 1.0);
}

TEST(NormalCiTest, WidthMatchesReplicateSpread) {
  const CiFixture fixture = MakeMeanFixture(400, 700);
  const auto ci =
      NormalCi(fixture.replicates, fixture.point_estimate, 0.95);
  ASSERT_TRUE(ci.ok());
  const double sd = ComputeMoments(fixture.replicates).SampleStdDev();
  EXPECT_NEAR(ci->Length(), 2.0 * 1.959963984540054 * sd, 1e-9);
  EXPECT_NEAR(0.5 * (ci->lo + ci->hi), fixture.point_estimate, 1e-12);
}

TEST(BasicCiTest, ReflectsPercentileAroundEstimate) {
  const CiFixture fixture = MakeMeanFixture(100, 800);
  const auto pct = PercentileCi(fixture.replicates, 0.9);
  const auto basic =
      BasicCi(fixture.replicates, fixture.point_estimate, 0.9);
  ASSERT_TRUE(pct.ok());
  ASSERT_TRUE(basic.ok());
  EXPECT_NEAR(basic->lo, 2 * fixture.point_estimate - pct->hi, 1e-12);
  EXPECT_NEAR(basic->hi, 2 * fixture.point_estimate - pct->lo, 1e-12);
}

TEST(CiValidationTest, NeedsTwoReplicates) {
  const std::vector<double> one = {1.0};
  EXPECT_FALSE(PercentileCi(one, 0.9).ok());
  EXPECT_FALSE(NormalCi(one, 1.0, 0.9).ok());
}

}  // namespace
}  // namespace vastats
