#include "core/stability.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "datagen/distributions.h"
#include "datagen/source_builder.h"
#include "density/kde.h"
#include "sampling/unis.h"
#include "stats/descriptive.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

TEST(ChangeRatioTest, GeometricFormula) {
  // c_r = 1 - (1 - y/D)^r.
  EXPECT_NEAR(ChangeRatio(10.0, 100, 1, ChangeRatioEstimator::kGeometric)
                  .value(),
              0.1, 1e-12);
  EXPECT_NEAR(ChangeRatio(10.0, 100, 2, ChangeRatioEstimator::kGeometric)
                  .value(),
              1.0 - 0.81, 1e-12);
}

TEST(ChangeRatioTest, CombinatorialFormula) {
  // For r=1: c_r = 1 - C(D-y,1)/C(D,1) = y/D.
  EXPECT_NEAR(ChangeRatio(10.0, 100, 1, ChangeRatioEstimator::kCombinatorial)
                  .value(),
              0.1, 1e-12);
  // For r=2, D=10, y=3: 1 - C(7,2)/C(10,2) = 1 - 21/45.
  EXPECT_NEAR(ChangeRatio(3.0, 10, 2, ChangeRatioEstimator::kCombinatorial)
                  .value(),
              1.0 - 21.0 / 45.0, 1e-12);
}

TEST(ChangeRatioTest, CombinatorialFractionalYInterpolates) {
  // Regression: fractional y used to round to the nearest integer, so any
  // y < 0.5 collapsed to c_r = 0 exactly — which StabilityL2's (0,1)
  // change-ratio domain then rejected for perfectly valid light-weight
  // workloads. Fractional y now interpolates between floor(y) and ceil(y).
  for (const double y : {0.1, 0.49}) {
    const auto c =
        ChangeRatio(y, 100, 1, ChangeRatioEstimator::kCombinatorial);
    ASSERT_TRUE(c.ok()) << "y=" << y;
    // For r=1 the combinatorial ratio is exactly linear: c_r = y/D, so the
    // interpolation must reproduce y/100 to machine precision.
    EXPECT_NEAR(c.value(), y / 100.0, 1e-12) << "y=" << y;
    EXPECT_GT(c.value(), 0.0) << "y=" << y;
    // And the L2 score must accept the resulting change ratio.
    const std::vector<double> samples = testing::NormalSample(100, 11);
    EXPECT_TRUE(StabilityL2(samples, 1.0, c.value()).ok()) << "y=" << y;
  }
  // r > 1: the interpolated value sits strictly between the two integer
  // anchors.
  const double at_3 =
      ChangeRatio(3.0, 10, 2, ChangeRatioEstimator::kCombinatorial).value();
  const double at_4 =
      ChangeRatio(4.0, 10, 2, ChangeRatioEstimator::kCombinatorial).value();
  const double at_3_5 =
      ChangeRatio(3.5, 10, 2, ChangeRatioEstimator::kCombinatorial).value();
  EXPECT_NEAR(at_3_5, 0.5 * (at_3 + at_4), 1e-12);
  EXPECT_GT(at_3_5, at_3);
  EXPECT_LT(at_3_5, at_4);
}

TEST(ChangeRatioTest, EstimatorsAgreeForSmallR) {
  // Both estimators should be close when r << |D|.
  for (const double y : {2.0, 5.0, 20.0}) {
    const double geometric =
        ChangeRatio(y, 100, 1, ChangeRatioEstimator::kGeometric).value();
    const double combinatorial =
        ChangeRatio(y, 100, 1, ChangeRatioEstimator::kCombinatorial).value();
    EXPECT_NEAR(geometric, combinatorial, 0.01) << "y=" << y;
  }
}

TEST(ChangeRatioTest, MonotoneInRAndY) {
  double prev = 0.0;
  for (int r = 1; r <= 5; ++r) {
    const double c =
        ChangeRatio(8.0, 100, r, ChangeRatioEstimator::kGeometric).value();
    EXPECT_GT(c, prev);
    prev = c;
  }
  prev = 0.0;
  for (const double y : {1.0, 4.0, 16.0, 64.0}) {
    const double c =
        ChangeRatio(y, 100, 1, ChangeRatioEstimator::kGeometric).value();
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(ChangeRatioTest, Validation) {
  EXPECT_FALSE(ChangeRatio(5.0, 1, 1, ChangeRatioEstimator::kGeometric).ok());
  EXPECT_FALSE(
      ChangeRatio(5.0, 100, 0, ChangeRatioEstimator::kGeometric).ok());
  EXPECT_FALSE(
      ChangeRatio(5.0, 100, 100, ChangeRatioEstimator::kGeometric).ok());
  // y is clamped rather than rejected.
  EXPECT_NEAR(ChangeRatio(1000.0, 100, 1, ChangeRatioEstimator::kGeometric)
                  .value(),
              1.0, 1e-12);
}

TEST(StabilityOptionsTest, Validation) {
  StabilityOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.grid_size = 1000;  // not a power of two
  EXPECT_FALSE(options.Validate().ok());
  options.mode = StabilityPsiMode::kExact;  // exact path never bins
  EXPECT_TRUE(options.Validate().ok());
  options = {};
  options.grid_size = 8;  // below the floor
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.padding_fraction = -0.1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(MutualImpactPsiTest, TruncatedMatchesExact) {
  const std::vector<double> samples = testing::NormalSample(300, 1, 50.0, 10.0);
  for (const double h : {0.5, 2.0, 10.0}) {
    EXPECT_NEAR(MutualImpactPsiSorted(samples, h),
                MutualImpactPsiExact(samples, h),
                MutualImpactPsiExact(samples, h) * 1e-9 + 1e-9)
        << "h=" << h;
  }
}

TEST(MutualImpactPsiTest, CoincidentPointsGiveMaximalPsi) {
  const std::vector<double> samples(20, 3.0);
  // All pairs contribute exactly 1: C(20,2) = 190 — in both modes (the
  // binned dispatcher short-circuits the degenerate grid to closed form).
  EXPECT_NEAR(MutualImpactPsiSorted(samples, 1.0), 190.0, 1e-9);
  const auto binned = EvaluateMutualImpactPsi(samples, 1.0, {});
  ASSERT_TRUE(binned.ok());
  EXPECT_NEAR(binned->psi, 190.0, 1e-9);
  EXPECT_EQ(binned->mode, StabilityPsiMode::kExact);
}

TEST(MutualImpactPsiTest, FarApartPointsGiveZero) {
  const std::vector<double> samples = {0.0, 1000.0, 2000.0};
  EXPECT_NEAR(MutualImpactPsi(samples, 1.0).value(), 0.0, 1e-12);
}

TEST(MutualImpactPsiTest, NonFiniteSamplesRejectedByBinnedPath) {
  // A NaN would reach LinearBinning's double->size_t cast (UB), mirroring
  // the EstimateKde guard.
  const double nan = std::nan("");
  const auto result = MutualImpactPsi(std::vector<double>{1.0, nan, 2.0}, 1.0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---- Binned-vs-exact agreement matrix over the shared shape fixtures.
// Error regimes, mirroring the KDE agreement matrix:
//  * kernels spanning many grid cells (the smooth shapes at h >= their
//    Silverman scale): the only error is linear binning, and the forced
//    binned path tracks the exact sum within 0.1% relative;
//  * kernels near the 1.5-cell resolution limit (the near-discrete atoms):
//    binning error is no longer negligible and the documented bound
//    loosens to 5% relative — which is exactly why the production
//    dispatcher falls back to the exact sum below 1.5 cells.
struct PsiAgreementCase {
  const char* name;
  std::vector<double> (*make)(uint64_t seed);
  double bandwidth;
  double rel_tolerance;
};

class PsiBinnedExactAgreement
    : public ::testing::TestWithParam<PsiAgreementCase> {};

TEST_P(PsiBinnedExactAgreement, ForcedBinnedTracksExactSum) {
  const std::vector<double> samples = GetParam().make(4321);
  const double h = GetParam().bandwidth;
  const double exact = MutualImpactPsiExact(samples, h);
  const auto binned = MutualImpactPsiBinned(samples, h);
  ASSERT_TRUE(binned.ok()) << GetParam().name;
  ASSERT_GT(exact, 0.0) << GetParam().name;
  EXPECT_NEAR(binned.value(), exact, GetParam().rel_tolerance * exact)
      << GetParam().name << " h=" << h;
}

TEST_P(PsiBinnedExactAgreement, DispatcherStaysWithinForcedBounds) {
  // The production dispatcher may take either path (resolution fallback);
  // whichever it picks, the result must satisfy the same documented bound.
  const std::vector<double> samples = GetParam().make(4321);
  const double h = GetParam().bandwidth;
  const double exact = MutualImpactPsiExact(samples, h);
  const auto eval = EvaluateMutualImpactPsi(samples, h, {});
  ASSERT_TRUE(eval.ok()) << GetParam().name;
  EXPECT_NEAR(eval->psi, exact, GetParam().rel_tolerance * exact)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PsiBinnedExactAgreement,
    ::testing::Values(
        // Bandwidths ~ each shape's Silverman scale; all >> the ~0.004
        // grid step the 4096-point padded grid gives these spans.
        PsiAgreementCase{"unimodal", testing::UnimodalSample, 0.4, 1e-3},
        PsiAgreementCase{"bimodal", testing::BimodalAgreementSample, 0.5,
                         1e-3},
        PsiAgreementCase{"heavy_tailed", testing::HeavyTailSample, 1.0, 1e-3},
        // Atoms at {89, 93, 96} with 1e-3 jitter; h = 0.05 spans ~7 cells
        // of the padded grid, but the jitter itself sits below one cell, so
        // binning error dominates: documented 5% bound.
        PsiAgreementCase{"near_discrete", testing::NearDiscreteSample, 0.05,
                         0.05}),
    [](const ::testing::TestParamInfo<PsiAgreementCase>& info) {
      return info.param.name;
    });

TEST(MutualImpactPsiTest, NarrowKernelFallsBackToExact) {
  // h far below 1.5 grid cells: the binned transform cannot resolve the
  // kernel, so the dispatcher must report an exact-path evaluation that
  // matches the pairwise sum to full precision.
  const std::vector<double> samples = testing::NearDiscreteSample(99);
  const double h = 1e-4;
  const auto eval = EvaluateMutualImpactPsi(samples, h, {});
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->mode, StabilityPsiMode::kExact);
  EXPECT_NEAR(eval->psi, MutualImpactPsiExact(samples, h),
              1e-9 * MutualImpactPsiExact(samples, h) + 1e-9);
}

TEST(MutualImpactPsiTest, WideKernelTakesBinnedPath) {
  const std::vector<double> samples = testing::UnimodalSample(7);
  const auto eval = EvaluateMutualImpactPsi(samples, 0.4, {});
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->mode, StabilityPsiMode::kBinned);
}

TEST(MutualImpactPsiTest, ExplicitModeExactSkipsBinning) {
  const std::vector<double> samples = testing::UnimodalSample(8);
  StabilityOptions options;
  options.mode = StabilityPsiMode::kExact;
  const auto eval = EvaluateMutualImpactPsi(samples, 0.4, options);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->mode, StabilityPsiMode::kExact);
  EXPECT_DOUBLE_EQ(eval->psi, MutualImpactPsiSorted(samples, 0.4));
}

TEST(MutualImpactPsiTest, PlanReuseIsBitIdentical) {
  // A caller-held DctPlan must not change a single bit of the result
  // (same invariant the binned KDE maintains).
  const std::vector<double> samples = testing::BimodalAgreementSample(17);
  const double no_plan = MutualImpactPsiBinned(samples, 0.5).value();
  DctPlan plan;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(MutualImpactPsiBinned(samples, 0.5, {}, {}, &plan).value(),
              no_plan);
  }
}

TEST(StabilityL2Test, CoincidentSamplesInfinitelyStable) {
  const std::vector<double> samples(50, 7.0);
  const auto score = StabilityL2(samples, 1.0, 0.1);
  ASSERT_TRUE(score.ok());
  EXPECT_TRUE(std::isinf(score.value()));
}

TEST(StabilityL2Test, TighterDistributionMoreStable) {
  const std::vector<double> tight = testing::NormalSample(400, 2, 100.0, 1.0);
  const std::vector<double> loose = testing::NormalSample(400, 3, 100.0, 30.0);
  // Same bandwidth and change ratio isolates the spread effect.
  const double tight_score = StabilityL2(tight, 1.0, 0.1).value();
  const double loose_score = StabilityL2(loose, 1.0, 0.1).value();
  EXPECT_GT(tight_score, loose_score);
}

TEST(StabilityL2Test, SmallerChangeRatioMoreStable) {
  const std::vector<double> samples = testing::NormalSample(400, 4, 0.0, 5.0);
  const double low = StabilityL2(samples, 1.0, 0.01).value();
  const double high = StabilityL2(samples, 1.0, 0.5).value();
  EXPECT_GT(low, high);
}

TEST(StabilityL2Test, BinnedAndExactModesAgree) {
  const std::vector<double> samples = testing::BimodalAgreementSample(21);
  StabilityOptions exact;
  exact.mode = StabilityPsiMode::kExact;
  const double binned_score = StabilityL2(samples, 0.5, 0.1).value();
  const double exact_score = StabilityL2(samples, 0.5, 0.1, exact).value();
  // The scores are logs of an O(1) quantity; binning error of <= 0.1% in
  // Psi moves the score by far less than this.
  EXPECT_NEAR(binned_score, exact_score, 1e-2);
}

TEST(StabilityL2Test, Validation) {
  const std::vector<double> samples = testing::NormalSample(50, 5);
  EXPECT_FALSE(StabilityL2(samples, 0.0, 0.1).ok());
  EXPECT_FALSE(StabilityL2(samples, 1.0, 0.0).ok());
  EXPECT_FALSE(StabilityL2(samples, 1.0, 1.0).ok());
  EXPECT_FALSE(StabilityL2(std::vector<double>{1.0}, 1.0, 0.1).ok());
  StabilityOptions bad;
  bad.grid_size = 1000;
  EXPECT_FALSE(StabilityL2(samples, 1.0, 0.1, bad).ok());
}

TEST(StabilityBhTest, FormulaMatchesHandComputation) {
  const std::vector<double> samples = {0.0, 2.0};
  const double h = 1.0;
  const double n = 2.0;
  const double psi = std::exp(-4.0 / 4.0);
  const double expected =
      -std::log(1.0 / (2.0 * n * h * std::sqrt(M_PI)) +
                psi / (n * n * h * std::sqrt(M_PI)));
  // Two samples on a 4096-point grid: h = 1.0 spans hundreds of grid
  // cells, so the binned default reproduces the hand computation to within
  // binning error (relatively larger here: Psi is a single e^-1 pair).
  EXPECT_NEAR(StabilityBhattacharyya(samples, h).value(), expected, 5e-4);
  StabilityOptions exact;
  exact.mode = StabilityPsiMode::kExact;
  EXPECT_NEAR(StabilityBhattacharyya(samples, h, exact).value(), expected,
              1e-12);
}

TEST(ComputeStabilityTest, ReportFieldsConsistent) {
  const std::vector<double> samples = testing::NormalSample(200, 6, 10.0, 2.0);
  const auto report = ComputeStability(samples, 0.5, 8.0, 100, 1);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->bandwidth, 0.5);
  EXPECT_DOUBLE_EQ(report->y, 8.0);
  EXPECT_EQ(report->r, 1);
  EXPECT_NEAR(report->change_ratio, 0.08, 1e-12);
  // The default mode is binned; the reported Psi tracks the exact sum
  // within the documented binning error and the report records the path.
  EXPECT_EQ(report->psi_mode, StabilityPsiMode::kBinned);
  const double exact_psi = MutualImpactPsiExact(samples, 0.5);
  EXPECT_NEAR(report->psi, exact_psi, 1e-3 * exact_psi);
  // The scores must be *bit-identical* to the standalone entry points under
  // the same options — one shared Psi evaluation feeds both.
  EXPECT_DOUBLE_EQ(report->stab_l2,
                   StabilityL2(samples, 0.5, report->change_ratio).value());
  EXPECT_DOUBLE_EQ(report->stab_bh,
                   StabilityBhattacharyya(samples, 0.5).value());
}

TEST(ComputeStabilityTest, ExactModeReproducesOldPipeline) {
  const std::vector<double> samples = testing::NormalSample(200, 6, 10.0, 2.0);
  StabilityOptions exact;
  exact.mode = StabilityPsiMode::kExact;
  const auto report = ComputeStability(samples, 0.5, 8.0, 100, 1,
                                       ChangeRatioEstimator::kGeometric,
                                       exact);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->psi_mode, StabilityPsiMode::kExact);
  EXPECT_NEAR(report->psi, MutualImpactPsiExact(samples, 0.5), 1e-6);
}

// End-to-end agreement: the analytic L2 score should rank workloads the same
// way the simulation baseline does.
struct StabilityWorkload {
  SourceSet sources;
  AggregateQuery query;
};

StabilityWorkload MakeWorkload(double conflict_sigma, uint64_t seed) {
  const auto mixture = MakeD2(seed);
  SyntheticSourceSetOptions options;
  options.num_sources = 40;
  options.num_components = 60;
  options.min_copies = 3;
  options.max_copies = 6;
  options.conflict_sigma = conflict_sigma;
  options.seed = seed + 1;
  StabilityWorkload workload{
      BuildSyntheticSourceSet(*mixture, options).value(),
      MakeRangeQuery("sum", AggregateKind::kSum, 0, 60)};
  return workload;
}

TEST(StabilityAgreementTest, AnalyticMatchesSimulationRanking) {
  // The analytic Theorem-4.2 score — evaluated through the production
  // binned-Psi default — must rank workloads the same way the brute-force
  // removal simulation does. (Note the direction: the L2 distance is
  // scale-sensitive, so a *tighter* answer distribution — with larger
  // point-wise density values and a smaller KDE bandwidth — shows a larger
  // absolute L2 change on source removal and thus a *lower* score.)
  double analytic[2], analytic_exact[2], simulated[2];
  const double sigmas[2] = {0.05, 5.0};
  for (int w = 0; w < 2; ++w) {
    StabilityWorkload workload = MakeWorkload(sigmas[w], 77 + w);
    const UniSSampler sampler =
        UniSSampler::Create(&workload.sources, workload.query).value();
    Rng rng(99);
    const std::vector<double> samples = sampler.Sample(300, rng).value();

    KdeOptions kde_options;
    kde_options.rule = BandwidthRule::kSilverman;
    const Kde kde = EstimateKde(samples, kde_options).value();
    const double y = sampler.EstimateSourcesPerAnswer(30, rng).value();
    const double change_ratio =
        ChangeRatio(y, 40, 1, ChangeRatioEstimator::kGeometric).value();
    analytic[w] = StabilityL2(samples, kde.bandwidth, change_ratio).value();
    StabilityOptions exact;
    exact.mode = StabilityPsiMode::kExact;
    analytic_exact[w] =
        StabilityL2(samples, kde.bandwidth, change_ratio, exact).value();

    SimulatedStabilityOptions sim_options;
    sim_options.trials = 12;
    sim_options.samples_per_trial = 150;
    sim_options.kde = kde_options;
    simulated[w] =
        SimulateStability(sampler, kde.density, sim_options, rng).value();
  }
  ASSERT_NE(analytic[0], analytic[1]);
  ASSERT_NE(simulated[0], simulated[1]);
  EXPECT_EQ(analytic[0] < analytic[1], simulated[0] < simulated[1])
      << "analytic: " << analytic[0] << " vs " << analytic[1]
      << ", simulated: " << simulated[0] << " vs " << simulated[1];
  // Binned and exact Psi produce the same ranking and nearly the same
  // scores.
  EXPECT_EQ(analytic[0] < analytic[1],
            analytic_exact[0] < analytic_exact[1]);
  for (int w = 0; w < 2; ++w) {
    EXPECT_NEAR(analytic[w], analytic_exact[w], 1e-2) << "workload " << w;
    // The analytic score should also be in the same ballpark as the
    // simulation, not just ordered consistently.
    EXPECT_NEAR(analytic[w], simulated[w], 2.0) << "workload " << w;
  }
}

TEST(StabilityAgreementTest, BinnedPsiIsThreadCountInvariant) {
  // The binned Psi runs inside the extraction pipeline with a per-thread
  // DctPlan; the report (like every other pipeline product) must be
  // bit-identical across sampling widths and pool attachment.
  const auto mixture = MakeD2(61);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 30;
  source_options.num_components = 40;
  source_options.seed = 62;
  SourceSet sources = BuildSyntheticSourceSet(*mixture, source_options).value();
  const AggregateQuery query =
      MakeRangeQuery("sum", AggregateKind::kSum, 0, 40);

  ExtractorOptions base;
  base.initial_sample_size = 200;
  base.weight_probes = 10;
  base.sampling_threads = 2;
  const auto reference =
      AnswerStatisticsExtractor::Create(&sources, query, base)->Extract();
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->stability.psi_mode, StabilityPsiMode::kBinned);

  // Serial cross-check: a standalone forced-binned evaluation of the same
  // samples and bandwidth, with a fresh (not thread_local) plan, must
  // reproduce the in-pipeline Psi bit for bit.
  EXPECT_EQ(MutualImpactPsiBinned(reference->samples,
                                  reference->stability.bandwidth)
                .value(),
            reference->stability.psi);

  // Parallel widths (the chunk-indexed sampler is invariant for counts
  // >= 2) and pooled extraction must match exactly.
  for (const int threads : {4, 16}) {
    ExtractorOptions wide = base;
    wide.sampling_threads = threads;
    ThreadPool pool(ThreadPoolOptions{.num_threads = 4});
    if (threads == 16) wide.pool = &pool;
    const auto result =
        AnswerStatisticsExtractor::Create(&sources, query, wide)->Extract();
    ASSERT_TRUE(result.ok()) << threads;
    ASSERT_EQ(result->samples, reference->samples) << threads;
    EXPECT_EQ(result->stability.psi, reference->stability.psi) << threads;
    EXPECT_EQ(result->stability.stab_l2, reference->stability.stab_l2)
        << threads;
    EXPECT_EQ(result->stability.stab_bh, reference->stability.stab_bh)
        << threads;
    EXPECT_EQ(result->stability.psi_mode, reference->stability.psi_mode)
        << threads;
  }
}

TEST(StabilityAgreementTest, BinnedPsiTracksExactAcrossD2SampleSweep) {
  // uniS answers over the Table-2 D2 universe at |S| = 400, 1600 and 6400
  // with the Silverman bandwidth: every size takes the binned path on the
  // default 4096 grid and stays within 1e-3 of the sorted exact oracle.
  const auto mixture = MakeD2(2);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = 100;
  source_options.num_components = 500;
  source_options.min_copies = 2;
  source_options.max_copies = 6;
  source_options.conflict_model = ConflictModel::kSharedBaseNoise;
  source_options.conflict_sigma = 0.5;
  source_options.seed = 3;
  const SourceSet sources =
      BuildSyntheticSourceSet(*mixture, source_options).value();
  const auto sampler = UniSSampler::Create(
      &sources, MakeRangeQuery("sum-d2", AggregateKind::kSum, 0, 500));
  ASSERT_TRUE(sampler.ok());

  Rng rng(29);
  DctPlan plan;
  for (const int size : {400, 1600, 6400}) {
    const auto samples = sampler->Sample(size, rng);
    ASSERT_TRUE(samples.ok());
    const double h = SilvermanBandwidth(samples.value());
    const auto binned = EvaluateMutualImpactPsi(samples.value(), h, {}, {},
                                                &plan);
    ASSERT_TRUE(binned.ok()) << size;
    EXPECT_EQ(binned->mode, StabilityPsiMode::kBinned) << size;
    const double exact = MutualImpactPsiSorted(samples.value(), h);
    ASSERT_GT(exact, 0.0) << size;
    EXPECT_LT(std::fabs(binned->psi - exact) / exact, 1e-3) << size;
  }
}

TEST(DeviationMapTest, LowConflictWorkloadHasSmallDeviations) {
  StabilityWorkload workload = MakeWorkload(0.05, 123);
  const UniSSampler sampler =
      UniSSampler::Create(&workload.sources, workload.query).value();
  Rng rng(5);
  const std::vector<double> base = sampler.Sample(300, rng).value();
  const double base_mean = ComputeMoments(base).mean();
  const auto map = DeviationMap(sampler, base_mean, 100, rng);
  ASSERT_TRUE(map.ok());
  EXPECT_FALSE(map->spread_fallback);
  EXPECT_DOUBLE_EQ(map->denominator, std::fabs(base_mean));
  EXPECT_GT(map->points.size(), 30u);  // most single removals keep coverage
  for (const DeviationPoint& point : map->points) {
    EXPECT_GE(point.relative_deviation, 0.0);
    EXPECT_LT(point.relative_deviation, 0.05);
  }
}

TEST(DeviationMapTest, ZeroBaseMeanFallsBackToSpread) {
  // Regression: a base mean of exactly zero used to be rejected outright,
  // even though a mean-zero answer distribution is perfectly legitimate
  // (any symmetric query). The map now normalizes by the pooled sample
  // spread and says so.
  StabilityWorkload workload = MakeWorkload(1.0, 31);
  const UniSSampler sampler =
      UniSSampler::Create(&workload.sources, workload.query).value();
  Rng rng(32);
  const auto map = DeviationMap(sampler, 0.0, 50, rng);
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE(map->spread_fallback);
  EXPECT_GT(map->denominator, 0.0);
  for (const DeviationPoint& point : map->points) {
    EXPECT_TRUE(std::isfinite(point.relative_deviation));
    EXPECT_GE(point.relative_deviation, 0.0);
  }
}

TEST(DeviationMapTest, DenormalBaseMeanFallsBackToSpread) {
  // 1e-300 is nonzero but negligible against any real sample spread;
  // dividing by it would report astronomically inflated deviations. The
  // magnitude check (relative to the spread) must catch it like zero.
  StabilityWorkload workload = MakeWorkload(1.0, 41);
  const UniSSampler sampler =
      UniSSampler::Create(&workload.sources, workload.query).value();
  Rng rng(42);
  const auto map = DeviationMap(sampler, 1e-300, 50, rng);
  ASSERT_TRUE(map.ok());
  EXPECT_TRUE(map->spread_fallback);
  for (const DeviationPoint& point : map->points) {
    EXPECT_LT(point.relative_deviation, 1e6);
  }
}

TEST(DeviationMapTest, NormalBaseMeanUsesItAsDenominator) {
  StabilityWorkload workload = MakeWorkload(1.0, 51);
  const UniSSampler sampler =
      UniSSampler::Create(&workload.sources, workload.query).value();
  Rng rng(52);
  const std::vector<double> base = sampler.Sample(200, rng).value();
  const double base_mean = ComputeMoments(base).mean();
  ASSERT_NE(base_mean, 0.0);
  const auto map = DeviationMap(sampler, base_mean, 50, rng);
  ASSERT_TRUE(map.ok());
  EXPECT_FALSE(map->spread_fallback);
  EXPECT_DOUBLE_EQ(map->denominator, std::fabs(base_mean));
}

TEST(DeviationMapTest, Validation) {
  StabilityWorkload workload = MakeWorkload(1.0, 5);
  const UniSSampler sampler =
      UniSSampler::Create(&workload.sources, workload.query).value();
  Rng rng(6);
  EXPECT_FALSE(DeviationMap(sampler, 10.0, 0, rng).ok());
  EXPECT_FALSE(DeviationMap(sampler, std::nan(""), 10, rng).ok());
}

TEST(SimulateStabilityTest, Validation) {
  StabilityWorkload workload = MakeWorkload(1.0, 7);
  const UniSSampler sampler =
      UniSSampler::Create(&workload.sources, workload.query).value();
  Rng rng(8);
  KdeOptions kde_options;
  const Kde kde =
      EstimateKde(sampler.Sample(100, rng).value(), kde_options).value();
  SimulatedStabilityOptions options;
  options.trials = 0;
  EXPECT_FALSE(SimulateStability(sampler, kde.density, options, rng).ok());
  options = {};
  options.r = 40;  // == num_sources
  EXPECT_FALSE(SimulateStability(sampler, kde.density, options, rng).ok());
}

}  // namespace
}  // namespace vastats
