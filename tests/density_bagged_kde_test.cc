#include "density/bagged_kde.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

std::vector<std::vector<double>> MakeSets(const std::vector<double>& data,
                                          int num_sets, uint64_t seed) {
  BootstrapOptions options;
  options.num_sets = num_sets;
  return BootstrapSets(data, options, seed).value();
}

TEST(BaggedKdeTest, UnitMassAndCommonGrid) {
  const std::vector<double> data = testing::NormalSample(300, 1, 4.0, 1.5);
  const auto sets = MakeSets(data, 20, 2);
  const auto bagged = EstimateBaggedKde(sets, data, KdeOptions{});
  ASSERT_TRUE(bagged.ok());
  EXPECT_NEAR(bagged->density.TotalMass(), 1.0, 1e-9);
  EXPECT_EQ(bagged->set_bandwidths.size(), 20u);
  EXPECT_GT(bagged->bandwidth, 0.0);
  // Grid must cover all the data.
  EXPECT_LT(bagged->density.x_min(), 0.0);
  EXPECT_GT(bagged->density.x_max(), 8.0);
}

TEST(BaggedKdeTest, CloseToSingleKdeOnLargeData) {
  const std::vector<double> data = testing::NormalSample(2000, 3, 0.0, 1.0);
  const auto sets = MakeSets(data, 30, 4);
  KdeOptions options;
  options.rule = BandwidthRule::kSilverman;
  const auto bagged = EstimateBaggedKde(sets, data, options);
  const auto single = EstimateKde(data, options);
  ASSERT_TRUE(bagged.ok());
  ASSERT_TRUE(single.ok());
  for (const double x : {-2.0, -1.0, 0.0, 1.0, 2.0}) {
    EXPECT_NEAR(bagged->density.ValueAt(x), single->density.ValueAt(x), 0.03)
        << "x=" << x;
  }
}

TEST(BaggedKdeTest, BaggingStabilizesDensityEstimates) {
  // Point-wise variability of the bagged estimate across independent
  // bootstrap draws should not exceed the variability of single-set KDEs.
  const std::vector<double> data = testing::NormalSample(150, 5, 0.0, 1.0);
  KdeOptions options;
  options.rule = BandwidthRule::kSilverman;
  options.x_min = -4.0;
  options.x_max = 4.0;

  Moments single_at_zero, bagged_at_zero;
  for (int trial = 0; trial < 20; ++trial) {
    const auto sets = MakeSets(data, 25, 100 + static_cast<uint64_t>(trial));
    const auto bagged = EstimateBaggedKde(sets, data, options);
    ASSERT_TRUE(bagged.ok());
    bagged_at_zero.Add(bagged->density.ValueAt(0.0));
    const auto single = EstimateKde(sets[0], options);
    ASSERT_TRUE(single.ok());
    single_at_zero.Add(single->density.ValueAt(0.0));
  }
  EXPECT_LE(bagged_at_zero.SampleVariance(),
            single_at_zero.SampleVariance() + 1e-12);
}

TEST(BaggedKdeTest, HonorsFixedRange) {
  const std::vector<double> data = testing::NormalSample(100, 7, 2.0);
  const auto sets = MakeSets(data, 5, 8);
  KdeOptions options;
  options.x_min = -10.0;
  options.x_max = 14.0;
  const auto bagged = EstimateBaggedKde(sets, data, options);
  ASSERT_TRUE(bagged.ok());
  EXPECT_DOUBLE_EQ(bagged->density.x_min(), -10.0);
  EXPECT_DOUBLE_EQ(bagged->density.x_max(), 14.0);
}

TEST(BaggedKdeTest, RejectsDegenerateInput) {
  EXPECT_FALSE(EstimateBaggedKde({}, {}, KdeOptions{}).ok());
  const std::vector<std::vector<double>> bad_sets = {{1.0}};
  EXPECT_FALSE(EstimateBaggedKde(bad_sets, {}, KdeOptions{}).ok());
}

TEST(BaggedKdeTest, EmptyReferenceFallsBackToFirstSet) {
  const std::vector<double> data = testing::NormalSample(100, 9);
  const auto sets = MakeSets(data, 3, 10);
  const auto bagged = EstimateBaggedKde(sets, {}, KdeOptions{});
  ASSERT_TRUE(bagged.ok());
  EXPECT_GT(bagged->bandwidth, 0.0);
}

// ---- Determinism matrix: bandwidth_mode x pool width. Every cell must
// reproduce the serial result bit for bit — densities and per-set
// bandwidths — regardless of how many workers raced over the sets.
class BaggedKdeDeterminismMatrix
    : public ::testing::TestWithParam<BandwidthMode> {};

TEST_P(BaggedKdeDeterminismMatrix, BitIdenticalAcrossPoolWidths) {
  const BandwidthMode mode = GetParam();
  const std::vector<double> data = testing::NormalSample(400, 21, 3.0, 1.5);
  const auto sets = MakeSets(data, 30, 22);
  BaggedKdeOptions options;
  options.bandwidth_mode = mode;
  const auto serial = EstimateBaggedKde(sets, data, options);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial->set_bandwidths.size(), 30u);
  if (mode == BandwidthMode::kShared) {
    // One selector run: every set reuses the reference-sample h (the
    // per-fit grid clamp cannot trigger on this well-spread sample).
    for (const double h : serial->set_bandwidths) {
      EXPECT_EQ(h, serial->set_bandwidths[0]);
    }
  }
  for (const int width : {1, 4, 16}) {
    ThreadPool pool(ThreadPoolOptions{.num_threads = width});
    const auto pooled = EstimateBaggedKde(sets, data, options, {}, &pool);
    ASSERT_TRUE(pooled.ok()) << "width " << width;
    EXPECT_EQ(pooled->bandwidth, serial->bandwidth) << "width " << width;
    EXPECT_EQ(pooled->set_bandwidths, serial->set_bandwidths)
        << "width " << width;
    ASSERT_EQ(pooled->density.values().size(),
              serial->density.values().size());
    for (size_t i = 0; i < serial->density.values().size(); ++i) {
      ASSERT_EQ(pooled->density.values()[i], serial->density.values()[i])
          << "width " << width << " grid point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BandwidthModes, BaggedKdeDeterminismMatrix,
    ::testing::Values(BandwidthMode::kPerSet, BandwidthMode::kShared),
    [](const ::testing::TestParamInfo<BandwidthMode>& info) {
      return info.param == BandwidthMode::kPerSet ? "per_set" : "shared";
    });

TEST(BaggedKdeTest, SharedModeMatchesPerSetGridAndMass) {
  // kShared changes the per-set bandwidths, not the estimator contract:
  // same grid, unit mass, and the reported h equals the per-set h.
  const std::vector<double> data = testing::NormalSample(300, 23, 4.0, 1.0);
  const auto sets = MakeSets(data, 15, 24);
  BaggedKdeOptions shared;
  shared.bandwidth_mode = BandwidthMode::kShared;
  const auto bagged = EstimateBaggedKde(sets, data, shared);
  ASSERT_TRUE(bagged.ok());
  EXPECT_NEAR(bagged->density.TotalMass(), 1.0, 1e-9);
  EXPECT_EQ(bagged->set_bandwidths[0], bagged->bandwidth);
}

TEST(BaggedKdeTest, PooledFitsAreBitIdenticalToSerial) {
  const std::vector<double> data = testing::NormalSample(400, 11, 2.0, 1.0);
  const auto sets = MakeSets(data, 25, 12);
  const auto serial = EstimateBaggedKde(sets, data, KdeOptions{});
  ASSERT_TRUE(serial.ok());
  for (const int size : {1, 2, 4}) {
    ThreadPool pool(ThreadPoolOptions{.num_threads = size});
    const auto pooled =
        EstimateBaggedKde(sets, data, KdeOptions{}, {}, &pool);
    ASSERT_TRUE(pooled.ok());
    EXPECT_EQ(pooled->set_bandwidths, serial->set_bandwidths)
        << "pool size " << size;
    EXPECT_EQ(pooled->bandwidth, serial->bandwidth);
    ASSERT_EQ(pooled->density.values().size(), serial->density.values().size());
    for (size_t i = 0; i < serial->density.values().size(); ++i) {
      EXPECT_EQ(pooled->density.values()[i], serial->density.values()[i]);
    }
  }
}

// ---- kShared coefficient-domain agreement: the single-DCT-pair bag
// against its definition, the mean of per-set EstimateKde fits, each on the
// bag's common grid with the bag's h and each normalized on its own. Over
// the four sample shapes of the binned-vs-direct matrix and three
// bandwidths (the selected h, 8x and 40x it), only the clamp at 0 and
// rounding separate them, and two regimes show:
//  * h above the 1.5-cell clamp: the fits never dip below zero by more
//    than rounding, and the two agree to 1e-12 of the peak (measured
//    1e-13 at h = 2 cells, ~3e-15 at 20 cells and more);
//  * h at the clamp (near-discrete data at the selected h): the Gaussian's
//    spectrum is cut at the grid's Nyquist frequency while still at 1.5e-5,
//    so every per-set fit rings below zero (to ~4e-7 of its peak). Each
//    fit clamps its own ringing, the bag clamps the sum once, and the two
//    differ by ~8e-10 of the peak; the bound is 1e-8.
struct SharedAgreementCase {
  const char* shape;
  std::vector<double> (*make)(uint64_t seed);
  double h_scale;  // 1 = the selector's h; otherwise a manual multiple
};

void PrintTo(const SharedAgreementCase& test_case, std::ostream* os) {
  *os << test_case.shape << " h_scale=" << test_case.h_scale;
}

std::vector<SharedAgreementCase> SharedAgreementCases() {
  std::vector<SharedAgreementCase> cases;
  for (const double h_scale : {1.0, 8.0, 40.0}) {
    cases.push_back({"unimodal", testing::UnimodalSample, h_scale});
    cases.push_back({"bimodal", testing::BimodalAgreementSample, h_scale});
    cases.push_back({"heavy_tailed", testing::HeavyTailSample, h_scale});
    cases.push_back({"near_discrete", testing::NearDiscreteSample, h_scale});
  }
  return cases;
}

class BaggedKdeSharedCoefficientAgreement
    : public ::testing::TestWithParam<SharedAgreementCase> {};

TEST_P(BaggedKdeSharedCoefficientAgreement, MatchesMeanOfPerSetFits) {
  const SharedAgreementCase& test_case = GetParam();
  const std::vector<double> data = test_case.make(2026);
  const auto sets = MakeSets(data, 50, 27);
  BaggedKdeOptions options;
  options.bandwidth_mode = BandwidthMode::kShared;
  if (test_case.h_scale != 1.0) {
    const auto selected = SelectBandwidth(data, options.kde);
    ASSERT_TRUE(selected.ok());
    options.kde.bandwidth = test_case.h_scale * *selected;
  }
  const auto bag = EstimateBaggedKde(sets, data, options);
  ASSERT_TRUE(bag.ok()) << bag.status().ToString();
  ASSERT_EQ(bag->set_bandwidths.size(), sets.size());
  const double h = bag->set_bandwidths[0];
  for (const double set_h : bag->set_bandwidths) EXPECT_EQ(set_h, h);

  KdeOptions fixed = options.kde;
  fixed.bandwidth = h;
  fixed.x_min = bag->density.x_min();
  fixed.x_max = bag->density.x_max();
  const size_t m = bag->density.size();
  std::vector<double> mean(m, 0.0);
  for (const std::vector<double>& set : sets) {
    const auto fit = EstimateKde(set, fixed);
    ASSERT_TRUE(fit.ok());
    ASSERT_EQ(fit->bandwidth, h);
    ASSERT_EQ(fit->density.size(), m);
    for (size_t i = 0; i < m; ++i) {
      mean[i] += fit->density.values()[i] / static_cast<double>(sets.size());
    }
  }
  double peak = 0.0;
  double l_inf = 0.0;
  for (size_t i = 0; i < m; ++i) {
    peak = std::max(peak, mean[i]);
    l_inf = std::max(l_inf, std::fabs(mean[i] - bag->density.values()[i]));
  }
  const double cell = (fixed.x_max - fixed.x_min) / static_cast<double>(m - 1);
  const bool at_clamp = h == 1.5 * cell;
  EXPECT_LE(l_inf, (at_clamp ? 1e-8 : 1e-12) * peak)
      << "h=" << h << " peak=" << peak;

  // Serial by construction, so a pool of any width changes no bit.
  for (const int width : {1, 4}) {
    ThreadPool pool(ThreadPoolOptions{.num_threads = width});
    const auto pooled = EstimateBaggedKde(sets, data, options, {}, &pool);
    ASSERT_TRUE(pooled.ok()) << "width " << width;
    EXPECT_EQ(pooled->bandwidth, bag->bandwidth) << "width " << width;
    EXPECT_EQ(pooled->set_bandwidths, bag->set_bandwidths) << "width " << width;
    ASSERT_TRUE(std::equal(pooled->density.values().begin(),
                           pooled->density.values().end(),
                           bag->density.values().begin(),
                           bag->density.values().end()))
        << "width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndBandwidths, BaggedKdeSharedCoefficientAgreement,
    ::testing::ValuesIn(SharedAgreementCases()),
    [](const ::testing::TestParamInfo<SharedAgreementCase>& info) {
      return std::string(info.param.shape) + "_h" +
             std::to_string(static_cast<int>(info.param.h_scale));
    });

BaggedKdeOptions SharedOptions() {
  BaggedKdeOptions options;
  options.bandwidth_mode = BandwidthMode::kShared;
  return options;
}

void ExpectRejectsNonFiniteSamples(const BaggedKdeOptions& options) {
  const std::vector<double> data = testing::NormalSample(200, 31);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto sets = MakeSets(data, 5, 32);
    sets[3][7] = bad;
    const auto in_set = EstimateBaggedKde(sets, data, options);
    ASSERT_FALSE(in_set.ok());
    EXPECT_EQ(in_set.status().code(), StatusCode::kInvalidArgument);

    std::vector<double> reference = data;
    reference[0] = bad;
    const auto in_reference =
        EstimateBaggedKde(MakeSets(data, 5, 32), reference, options);
    ASSERT_FALSE(in_reference.ok());
    EXPECT_EQ(in_reference.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(BaggedKdeSharedTest, RejectsNonFiniteSamples) {
  ExpectRejectsNonFiniteSamples(SharedOptions());
}

TEST(BaggedKdeSharedTest, AsksThePlanProviderBeforeAnyTransform) {
  // One DCT-II and two DCT-IIIs for the bag, plus the selector's DCT-II
  // unless the bandwidth is manual (a bandwidth-cache hit). All of them
  // run on the provider's plan, which is requested once, before the first.
  const std::vector<double> data = testing::NormalSample(300, 33, 1.0, 2.0);
  const auto sets = MakeSets(data, 20, 34);
  for (const double manual_bandwidth : {0.0, 0.3}) {
    BaggedKdeOptions options = SharedOptions();
    options.kde.bandwidth = manual_bandwidth;
    DctPlan plan;
    int requests = 0;
    uint64_t transforms_before_first_request = 0;
    options.plan_provider = [&]() -> DctPlan* {
      if (requests++ == 0) {
        transforms_before_first_request =
            plan.cache_hits() + plan.cache_misses();
      }
      return &plan;
    };
    ThreadPool pool(ThreadPoolOptions{.num_threads = 4});
    const auto bag = EstimateBaggedKde(sets, data, options, {}, &pool);
    ASSERT_TRUE(bag.ok()) << "manual h " << manual_bandwidth;
    EXPECT_EQ(requests, 1) << "manual h " << manual_bandwidth;
    EXPECT_EQ(transforms_before_first_request, 0u);
    EXPECT_EQ(plan.cache_hits() + plan.cache_misses(),
              manual_bandwidth > 0.0 ? 3u : 4u)
        << "manual h " << manual_bandwidth;
  }
}

TEST(BaggedKdeSharedTest, CountsEverySetAndRunsNoPerSetFits) {
  const std::vector<double> data = testing::NormalSample(250, 35);
  const auto sets = MakeSets(data, 17, 36);
  Trace trace;
  MetricsRegistry metrics;
  ObsOptions obs;
  obs.trace = &trace;
  obs.metrics = &metrics;
  ThreadPool pool(ThreadPoolOptions{.num_threads = 2});
  const auto bag = EstimateBaggedKde(sets, data, SharedOptions(), obs, &pool);
  ASSERT_TRUE(bag.ok());
  const MetricsSnapshot snapshot = metrics.Snapshot();
  ASSERT_NE(snapshot.FindCounter("bagged_kde_sets_total"), nullptr);
  EXPECT_EQ(snapshot.FindCounter("bagged_kde_sets_total")->value, 17u);
  EXPECT_EQ(trace.CountOf("bagged_kde"), 1);
  EXPECT_EQ(trace.CountOf("kde_estimate"), 0);
  EXPECT_EQ(snapshot.FindCounter("thread_pool_tasks_total"), nullptr);
}

// ---- kPerSet coefficient-domain agreement: the bag that sums the damped
// coefficients of every set and runs one DCT-III, against its definition,
// the mean of per-set EstimateKde fits on the bag's common grid, each
// selecting its own h and normalized on its own. Each set's h comes from
// the same stage as EstimateKde's, so the bandwidths are bit-equal and only
// rounding and the clamp at 0 separate the densities: 1e-12 of the peak,
// and 1e-8 where a set's h sits at the 1.5-cell clamp (near-discrete data),
// where each fit would clamp its own below-zero ringing (see the kShared
// matrix above; measured ~1e-9 here).
struct PerSetAgreementCase {
  const char* shape;
  std::vector<double> (*make)(uint64_t seed);
};

void PrintTo(const PerSetAgreementCase& test_case, std::ostream* os) {
  *os << test_case.shape;
}

class BaggedKdePerSetCoefficientAgreement
    : public ::testing::TestWithParam<PerSetAgreementCase> {};

// The point-wise mean of the normalized EstimateKde fits of every set on
// the bag's grid; `bandwidths` receives each fit's h.
std::vector<double> MeanOfSetFits(const std::vector<std::vector<double>>& sets,
                                  KdeOptions options, const GridDensity& grid,
                                  std::vector<double>* bandwidths) {
  options.x_min = grid.x_min();
  options.x_max = grid.x_max();
  std::vector<double> mean(grid.size(), 0.0);
  for (const std::vector<double>& set : sets) {
    const Kde fit = EstimateKde(set, options).value();
    bandwidths->push_back(fit.bandwidth);
    for (size_t i = 0; i < mean.size(); ++i) {
      mean[i] += fit.density.values()[i] / static_cast<double>(sets.size());
    }
  }
  return mean;
}

TEST_P(BaggedKdePerSetCoefficientAgreement, MatchesMeanOfPerSetFits) {
  const PerSetAgreementCase& test_case = GetParam();
  const std::vector<double> data = test_case.make(2026);
  const auto sets = MakeSets(data, 50, 27);
  const BaggedKdeOptions options;  // kPerSet, binned, Botev
  const auto bag = EstimateBaggedKde(sets, data, options);
  ASSERT_TRUE(bag.ok()) << bag.status().ToString();

  std::vector<double> fit_bandwidths;
  const std::vector<double> mean =
      MeanOfSetFits(sets, options.kde, bag->density, &fit_bandwidths);
  EXPECT_EQ(bag->set_bandwidths, fit_bandwidths);
  const size_t m = mean.size();
  const double cell = bag->density.step();
  const bool at_clamp =
      std::any_of(fit_bandwidths.begin(), fit_bandwidths.end(),
                  [&](double h) { return h == 1.5 * cell; });
  double peak = 0.0;
  double l_inf = 0.0;
  for (size_t i = 0; i < m; ++i) {
    peak = std::max(peak, mean[i]);
    l_inf = std::max(l_inf, std::fabs(mean[i] - bag->density.values()[i]));
  }
  EXPECT_LE(l_inf, (at_clamp ? 1e-8 : 1e-12) * peak)
      << "peak=" << peak << " at_clamp=" << at_clamp;

  for (const int width : {1, 4}) {
    ThreadPool pool(ThreadPoolOptions{.num_threads = width});
    const auto pooled = EstimateBaggedKde(sets, data, options, {}, &pool);
    ASSERT_TRUE(pooled.ok()) << "width " << width;
    EXPECT_EQ(pooled->bandwidth, bag->bandwidth) << "width " << width;
    EXPECT_EQ(pooled->set_bandwidths, bag->set_bandwidths) << "width " << width;
    ASSERT_TRUE(std::equal(pooled->density.values().begin(),
                           pooled->density.values().end(),
                           bag->density.values().begin(),
                           bag->density.values().end()))
        << "width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BaggedKdePerSetCoefficientAgreement,
    ::testing::Values(
        PerSetAgreementCase{"unimodal", testing::UnimodalSample},
        PerSetAgreementCase{"bimodal", testing::BimodalAgreementSample},
        PerSetAgreementCase{"heavy_tailed", testing::HeavyTailSample},
        PerSetAgreementCase{"near_discrete", testing::NearDiscreteSample}),
    [](const ::testing::TestParamInfo<PerSetAgreementCase>& info) {
      return std::string(info.param.shape);
    });

TEST(BaggedKdeTest, LastGridPointIsTheMeanOfTheFits) {
  // On this sample the grid's last point, x_min + (m-1) * step, rounds past
  // x_max. Sampling the fits there read 0, so the bag's last value was 0;
  // averaging by grid index keeps the fits' own last values.
  const std::vector<double> data = testing::BimodalAgreementSample(99);
  const auto sets = MakeSets(data, 50, 99);
  for (const bool binned : {true, false}) {
    BaggedKdeOptions options;
    options.kde.binned = binned;
    const auto bag = EstimateBaggedKde(sets, data, options);
    ASSERT_TRUE(bag.ok()) << bag.status().ToString();
    std::vector<double> bandwidths;
    const std::vector<double> mean =
        MeanOfSetFits(sets, options.kde, bag->density, &bandwidths);
    const double peak = *std::max_element(mean.begin(), mean.end());
    EXPECT_GT(mean.back(), 1e-9 * peak) << "binned=" << binned;
    EXPECT_NEAR(bag->density.values().back(), mean.back(), 1e-12 * peak)
        << "binned=" << binned;
  }
}

TEST(BaggedKdePerSetTest, RejectsNonFiniteSamples) {
  ExpectRejectsNonFiniteSamples(BaggedKdeOptions{});
}

TEST(BaggedKdePerSetTest, AsksThePlanProviderBeforeAnyTransform) {
  // Serial: one DCT-II per set and one DCT-III for the bag, plus the
  // reference selector's DCT-II unless the bandwidth is manual. All of
  // them run on the provider's plan, which is requested once, before the
  // first.
  const std::vector<double> data = testing::NormalSample(300, 33, 1.0, 2.0);
  const auto sets = MakeSets(data, 20, 34);
  for (const double manual_bandwidth : {0.0, 0.3}) {
    BaggedKdeOptions options;
    options.kde.bandwidth = manual_bandwidth;
    DctPlan plan;
    int requests = 0;
    uint64_t transforms_before_first_request = 0;
    options.plan_provider = [&]() -> DctPlan* {
      if (requests++ == 0) {
        transforms_before_first_request =
            plan.cache_hits() + plan.cache_misses();
      }
      return &plan;
    };
    const auto bag = EstimateBaggedKde(sets, data, options);
    ASSERT_TRUE(bag.ok()) << "manual h " << manual_bandwidth;
    EXPECT_EQ(requests, 1) << "manual h " << manual_bandwidth;
    EXPECT_EQ(transforms_before_first_request, 0u);
    EXPECT_EQ(plan.cache_hits() + plan.cache_misses(),
              sets.size() + (manual_bandwidth > 0.0 ? 1u : 2u))
        << "manual h " << manual_bandwidth;
  }
}

TEST(BaggedKdePerSetTest, PooledTasksAskThePlanProviderForTheirThread) {
  const std::vector<double> data = testing::NormalSample(300, 37, 1.0, 2.0);
  const auto sets = MakeSets(data, 12, 38);
  std::atomic<int> requests{0};
  BaggedKdeOptions options;
  options.plan_provider = [&]() -> DctPlan* {
    thread_local DctPlan plan;
    requests.fetch_add(1);
    return &plan;
  };
  ThreadPool pool(ThreadPoolOptions{.num_threads = 4});
  const auto pooled = EstimateBaggedKde(sets, data, options, {}, &pool);
  ASSERT_TRUE(pooled.ok());
  // The calling thread once, then every pooled per-set task.
  EXPECT_EQ(requests.load(), 1 + static_cast<int>(sets.size()));
  const auto serial = EstimateBaggedKde(sets, data, BaggedKdeOptions{});
  ASSERT_TRUE(serial.ok());
  EXPECT_TRUE(std::equal(pooled->density.values().begin(),
                         pooled->density.values().end(),
                         serial->density.values().begin(),
                         serial->density.values().end()));
}

TEST(BaggedKdePerSetTest, CountsEverySetAndEveryBotevEvaluation) {
  // The bag runs no per-set EstimateKde, but every set still selects its
  // own h: the Botev evaluation count is that of the per-set fits plus the
  // reference selection, so perfbench's per-op fit and iteration counts
  // keep their meaning.
  const std::vector<double> data = testing::NormalSample(250, 35);
  const auto sets = MakeSets(data, 17, 36);
  for (const int width : {0, 2}) {
    Trace trace;
    MetricsRegistry metrics;
    ObsOptions obs;
    obs.trace = &trace;
    obs.metrics = &metrics;
    std::optional<ThreadPool> pool;
    if (width > 0) pool.emplace(ThreadPoolOptions{.num_threads = width});
    const auto bag = EstimateBaggedKde(sets, data, BaggedKdeOptions{}, obs,
                                       pool ? &*pool : nullptr);
    ASSERT_TRUE(bag.ok());

    MetricsRegistry expected_metrics;
    ObsOptions expected_obs;
    expected_obs.metrics = &expected_metrics;
    KdeOptions fixed;
    fixed.x_min = bag->density.x_min();
    fixed.x_max = bag->density.x_max();
    for (const std::vector<double>& set : sets) {
      ASSERT_TRUE(EstimateKde(set, fixed, expected_obs).ok());
    }
    ASSERT_TRUE(SelectBandwidth(data, KdeOptions{}, expected_obs).ok());
    const uint64_t expected_iterations =
        expected_metrics.Snapshot()
            .FindCounter("kde_botev_iterations_total")
            ->value;

    const MetricsSnapshot snapshot = metrics.Snapshot();
    ASSERT_NE(snapshot.FindCounter("bagged_kde_sets_total"), nullptr);
    EXPECT_EQ(snapshot.FindCounter("bagged_kde_sets_total")->value, 17u);
    ASSERT_NE(snapshot.FindCounter("kde_botev_iterations_total"), nullptr);
    EXPECT_EQ(snapshot.FindCounter("kde_botev_iterations_total")->value,
              expected_iterations)
        << "width " << width;
    EXPECT_EQ(snapshot.FindCounter("kde_binned_path_total"), nullptr);
    EXPECT_EQ(trace.CountOf("bagged_kde"), 1);
    EXPECT_EQ(trace.CountOf("kde_estimate"), 0);
    const CounterSample* tasks =
        snapshot.FindCounter("thread_pool_tasks_total");
    if (width == 0) {
      EXPECT_EQ(tasks, nullptr);
    } else {
      ASSERT_NE(tasks, nullptr);
      EXPECT_EQ(tasks->value, 17u);
    }
  }
}

}  // namespace
}  // namespace vastats
