// Cross-cutting determinism guarantees: everything seeded must be
// bit-identical across repeated runs. The experiment harnesses (and anyone
// debugging a statistical pipeline) depend on this, so it is pinned for
// every randomized layer of the library.

#include <string>

#include <gtest/gtest.h>

#include "test_util.h"
#include "vastats/vastats.h"

namespace vastats {
namespace {

TEST(DeterminismTest, SyntheticWorkloadsAreBitIdentical) {
  for (int run = 0; run < 2; ++run) {
    // Build twice inside the loop so no state leaks between builds.
    const auto mixture_a = MakeD2(42);
    const auto mixture_b = MakeD2(42);
    SyntheticSourceSetOptions options;
    options.num_sources = 25;
    options.num_components = 50;
    options.seed = 43;
    const auto set_a = BuildSyntheticSourceSet(*mixture_a, options);
    const auto set_b = BuildSyntheticSourceSet(*mixture_b, options);
    ASSERT_TRUE(set_a.ok());
    ASSERT_TRUE(set_b.ok());
    for (int s = 0; s < 25; ++s) {
      ASSERT_EQ(set_a->source(s).bindings(), set_b->source(s).bindings());
    }
  }
}

TEST(DeterminismTest, ClimateArchiveIsBitIdentical) {
  ClimateArchiveOptions options;
  options.num_stations = 60;
  options.num_districts = 6;
  options.daily_month = 6;
  options.seed = 99;
  const auto a = ClimateArchive::Build(options);
  const auto b = ClimateArchive::Build(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const auto sources_a = a->MakeSourceSet();
  const auto sources_b = b->MakeSourceSet();
  for (int s = 0; s < 60; ++s) {
    ASSERT_EQ(sources_a->source(s).bindings(),
              sources_b->source(s).bindings());
  }
  EXPECT_EQ(a->DailyTruth(3, 15).value(), b->DailyTruth(3, 15).value());
}

TEST(DeterminismTest, FullPipelineIsBitIdentical) {
  SourceSet sources = testing::MakeFigure1Sources();
  ExtractorOptions options;
  options.initial_sample_size = 120;
  options.weight_probes = 5;
  options.seed = 7;
  options.kde.rule = BandwidthRule::kSilverman;
  const auto run = [&]() {
    return AnswerStatisticsExtractor::Create(
               &sources, testing::MakeFigure1Query(AggregateKind::kSum),
               options)
        ->Extract()
        .value();
  };
  const AnswerStatistics a = run();
  const AnswerStatistics b = run();
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.mean.value, b.mean.value);
  EXPECT_EQ(a.mean.ci.lo, b.mean.ci.lo);
  EXPECT_EQ(a.variance.ci.hi, b.variance.ci.hi);
  EXPECT_EQ(a.stability.stab_l2, b.stability.stab_l2);
  EXPECT_EQ(a.stability.psi, b.stability.psi);
  ASSERT_EQ(a.coverage.intervals.size(), b.coverage.intervals.size());
  for (size_t i = 0; i < a.coverage.intervals.size(); ++i) {
    EXPECT_EQ(a.coverage.intervals[i].lo, b.coverage.intervals[i].lo);
    EXPECT_EQ(a.coverage.intervals[i].hi, b.coverage.intervals[i].hi);
  }
  ASSERT_EQ(a.density.size(), b.density.size());
  for (size_t i = 0; i < a.density.size(); i += 97) {
    EXPECT_EQ(a.density.values()[i], b.density.values()[i]);
  }
  // The JSON report embeds wall-clock timings, so compare everything up to
  // the sampling section instead of the full string.
  const std::string json_a = AnswerStatisticsToJson(a);
  const std::string json_b = AnswerStatisticsToJson(b);
  const size_t cut_a = json_a.find("\"sampling\"");
  const size_t cut_b = json_b.find("\"sampling\"");
  ASSERT_NE(cut_a, std::string::npos);
  EXPECT_EQ(json_a.substr(0, cut_a), json_b.substr(0, cut_b));
}

TEST(DeterminismTest, GroupedEvaluationIsBitIdentical) {
  SourceSet sources = testing::MakeFigure1Sources();
  GroupedAggregateQuery query;
  query.name = "g";
  query.aggregate = AggregateKind::kAverage;
  query.groups.push_back(QueryGroup{"a", {1, 2}});
  query.groups.push_back(QueryGroup{"b", {3, 4, 5}});
  query.has_having = true;
  query.having.threshold = 17.0;
  ExtractorOptions options;
  options.initial_sample_size = 100;
  options.weight_probes = 5;
  options.kde.rule = BandwidthRule::kSilverman;
  const auto run = [&]() {
    return GroupedQueryEvaluator::Create(&sources, query, options)
        ->Evaluate()
        .value();
  };
  const GroupedAnswer a = run();
  const GroupedAnswer b = run();
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].statistics.mean.value,
              b.groups[g].statistics.mean.value);
    EXPECT_EQ(a.groups[g].having_probability, b.groups[g].having_probability);
  }
}

TEST(DeterminismTest, WeightedAndMultiSamplersAreBitIdentical) {
  SourceSet sources = testing::MakeFigure1Sources();
  const AggregateQuery query = testing::MakeFigure1Query(AggregateKind::kSum);
  const auto weighted = WeightedUniSSampler::Create(
      &sources, query, {2.0, 1.0, 1.0, 0.5});
  Rng rng_a(5), rng_b(5);
  EXPECT_EQ(weighted->Sample(100, rng_a).value(),
            weighted->Sample(100, rng_b).value());

  // Several aggregates from one shared sampling pass: each draw's takes are
  // recorded once and replayed through every kind.
  const auto unis = UniSSampler::Create(&sources, query);
  const auto sample_shared = [&](Rng& rng) {
    std::vector<std::vector<double>> series(2);
    std::vector<UniSTake> takes;
    for (int i = 0; i < 100; ++i) {
      (void)unis->SampleOneRecorded(rng, takes).value();
      series[0].push_back(
          UniSSampler::ReplayTakes(takes, AggregateKind::kSum, 0.5).value());
      series[1].push_back(
          UniSSampler::ReplayTakes(takes, AggregateKind::kMedian, 0.5).value());
    }
    return series;
  };
  Rng rng_c(6), rng_d(6);
  EXPECT_EQ(sample_shared(rng_c), sample_shared(rng_d));
}

TEST(DeterminismTest, SimulationsAreBitIdentical) {
  SourceSet sources = testing::MakeFigure1Sources();
  const auto sampler = UniSSampler::Create(
      &sources, testing::MakeFigure1Query(AggregateKind::kSum));
  KdeOptions kde_options;
  kde_options.rule = BandwidthRule::kSilverman;
  Rng base_rng(3);
  const auto base = sampler->Sample(150, base_rng);
  const auto kde = EstimateKde(*base, kde_options);
  SimulatedStabilityOptions sim;
  sim.trials = 5;
  sim.samples_per_trial = 60;
  sim.kde = kde_options;
  Rng rng_a(9), rng_b(9);
  EXPECT_EQ(SimulateStability(*sampler, kde->density, sim, rng_a).value(),
            SimulateStability(*sampler, kde->density, sim, rng_b).value());
}

}  // namespace
}  // namespace vastats
