// Cross-cutting property sweeps over the whole Algorithm-1 pipeline:
// invariants that must hold for every workload shape, aggregate kind, and
// seed — the kind of failure-injection net that catches integration
// regressions no unit test sees.

#include <cmath>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/distributions.h"
#include "datagen/source_builder.h"
#include "sampling/exhaustive.h"
#include "test_util.h"
#include "vastats/vastats.h"

namespace vastats {
namespace {

struct PipelineCase {
  AggregateKind kind;
  ConflictModel conflict;
  int num_sources;
  int num_components;
  uint64_t seed;
};

// gtest prints a parameter that has no printer as its raw bytes, and those
// bytes become part of the discovered ctest name; print the fields instead
// so the name is the same on every build and run.
void PrintTo(const PipelineCase& test_case, std::ostream* os) {
  *os << AggregateKindToString(test_case.kind)
      << (test_case.conflict == ConflictModel::kSharedBaseNoise
              ? " shared_noise"
              : " redraw")
      << " sources=" << test_case.num_sources
      << " components=" << test_case.num_components
      << " seed=" << test_case.seed;
}

class PipelineInvariants : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineInvariants, HoldEndToEnd) {
  const PipelineCase& test_case = GetParam();
  const auto mixture = MakeD2(test_case.seed);
  SyntheticSourceSetOptions source_options;
  source_options.num_sources = test_case.num_sources;
  source_options.num_components = test_case.num_components;
  source_options.min_copies = 2;
  source_options.max_copies =
      std::min(5, test_case.num_sources);
  source_options.conflict_model = test_case.conflict;
  source_options.seed = test_case.seed + 1;
  SourceSet sources =
      BuildSyntheticSourceSet(*mixture, source_options).value();

  AggregateQuery query = MakeRangeQuery("q", test_case.kind, 0,
                                        test_case.num_components);
  ExtractorOptions options;
  options.initial_sample_size = 120;
  options.weight_probes = 8;
  options.seed = test_case.seed + 2;
  const auto extractor =
      AnswerStatisticsExtractor::Create(&sources, query, options);
  ASSERT_TRUE(extractor.ok()) << extractor.status().ToString();
  const auto stats = extractor->Extract();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // --- Point estimates.
  EXPECT_TRUE(std::isfinite(stats->mean.value));
  EXPECT_GE(stats->variance.value, 0.0);
  EXPECT_GE(stats->std_dev.value, 0.0);
  EXPECT_LE(stats->mean.ci.lo, stats->mean.ci.hi);
  // The bagged mean sits inside (or at worst on) its own CI.
  EXPECT_GE(stats->mean.value, stats->mean.ci.lo - 1e-9);
  EXPECT_LE(stats->mean.value, stats->mean.ci.hi + 1e-9);

  // --- Samples inside the viable envelope (monotone aggregates only).
  if (IsComponentwiseMonotone(test_case.kind)) {
    const auto range = ViableRange(sources, query);
    ASSERT_TRUE(range.ok());
    for (const double v : stats->samples) {
      EXPECT_GE(v, range->first - 1e-9);
      EXPECT_LE(v, range->second + 1e-9);
    }
  }

  // --- Density.
  EXPECT_NEAR(stats->density.TotalMass(), 1.0, 1e-6);
  for (const double f : stats->density.values()) EXPECT_GE(f, 0.0);

  // --- Coverage intervals.
  EXPECT_GE(stats->coverage.total_coverage, 0.0);
  EXPECT_LE(stats->coverage.total_coverage, 1.0 + 1e-9);
  EXPECT_GE(stats->coverage.total_length_fraction, 0.0);
  EXPECT_LE(stats->coverage.total_length_fraction, 1.0 + 1e-9);
  double previous_hi = -1e300;
  for (const CoverageInterval& interval : stats->coverage.intervals) {
    EXPECT_LT(interval.lo, interval.hi);
    EXPECT_GT(interval.lo, previous_hi);  // disjoint and ordered
    previous_hi = interval.hi;
    EXPECT_GE(interval.lo, stats->density.x_min() - 1e-9);
    EXPECT_LE(interval.hi, stats->density.x_max() + 1e-9);
  }

  // --- Stability.
  EXPECT_GT(stats->stability.change_ratio, 0.0);
  EXPECT_LT(stats->stability.change_ratio, 1.0);
  EXPECT_GT(stats->stability.bandwidth, 0.0);
  EXPECT_FALSE(std::isnan(stats->stability.stab_l2));
  EXPECT_FALSE(std::isnan(stats->stability.stab_bh));
  EXPECT_GE(stats->answer_weight_y, 1.0);
  EXPECT_LE(stats->answer_weight_y,
            static_cast<double>(test_case.num_sources));
}

std::vector<PipelineCase> AllPipelineCases() {
  std::vector<PipelineCase> cases;
  int variant = 0;
  for (const AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kAverage, AggregateKind::kMedian,
        AggregateKind::kVariance, AggregateKind::kStdDev,
        AggregateKind::kMin, AggregateKind::kMax}) {
    for (const ConflictModel conflict :
         {ConflictModel::kSharedBaseNoise, ConflictModel::kIndependentRedraw}) {
      cases.push_back(PipelineCase{
          kind, conflict, 15 + (variant % 3) * 10, 25 + (variant % 4) * 15,
          900 + static_cast<uint64_t>(variant)});
      ++variant;
    }
  }
  return cases;
}

std::string PipelineCaseName(
    const ::testing::TestParamInfo<PipelineCase>& info) {
  std::string name(AggregateKindToString(info.param.kind));
  name += info.param.conflict == ConflictModel::kSharedBaseNoise
              ? "_sharednoise"
              : "_redraw";
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllShapes, PipelineInvariants,
                         ::testing::ValuesIn(AllPipelineCases()),
                         PipelineCaseName);

}  // namespace
}  // namespace vastats
