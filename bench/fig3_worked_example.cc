// Regenerates the worked example of Figure 3 (§4.1): Algorithm 1 applied to
// the aggregation "Sum(Temp)" over the four toy climate sources of Figure 1.
//
// Outputs (the grey boxes of Figure 3): point estimates with 90% and 85%
// confidence intervals for mean and standard deviation, the high coverage
// intervals (I, L, C), and the stability score. The exact viable answer
// range and the full permutation enumeration are printed alongside, since
// this scenario is small enough to solve exactly.
//
// With --check, also asserts the DESIGN.md §4 criterion and exits nonzero
// when it fails: the enumeration reaches exactly {89, 93, 96}, each from 8
// of the 4! = 24 source orders (p = 1/3).

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "checks.h"
#include "vastats/vastats.h"

namespace vastats::bench {
namespace {

SourceSet MakeFigure1Sources() {
  SourceSet set;
  DataSource d1("D1");
  d1.Bind(1, 21.0);  // Burnaby   2006-06-10
  d1.Bind(2, 19.0);  // Vancouver 2006-06-11
  DataSource d2("D2");
  d2.Bind(1, 21.0);
  d2.Bind(2, 22.0);
  d2.Bind(5, 18.0);  // Richmond  2006-06-12
  DataSource d3("D3");
  d3.Bind(1, 19.0);
  d3.Bind(2, 17.0);
  d3.Bind(3, 15.0);  // Surrey    2006-06-11
  d3.Bind(4, 20.0);  // Vancouver 2006-06-12
  DataSource d4("D4");
  d4.Bind(3, 15.0);
  set.AddSource(std::move(d1));
  set.AddSource(std::move(d2));
  set.AddSource(std::move(d3));
  set.AddSource(std::move(d4));
  return set;
}

void PrintCi(const char* label, const PointEstimate& estimate) {
  std::printf("  %-22s %8.4f   %2.0f%% CI [%8.4f, %8.4f]  len %.4f\n", label,
              estimate.value, estimate.ci.level * 100.0, estimate.ci.lo,
              estimate.ci.hi, estimate.ci.Length());
}

int Run(bool check) {
  std::printf("Figure 3 worked example: Sum(Temp) over the Figure 1 sources\n");
  std::printf("============================================================\n");

  SourceSet sources = MakeFigure1Sources();
  AggregateQuery query;
  query.name = "Sum(Temp)";
  query.kind = AggregateKind::kSum;
  query.components = {1, 2, 3, 4, 5};

  // Ground truth, computable exactly at this scale.
  const auto range = ViableRange(sources, query);
  const auto order_answers = EnumerateOrderAnswers(sources, query);
  if (!range.ok() || !order_answers.ok()) {
    std::fprintf(stderr, "exact enumeration failed\n");
    return 1;
  }
  std::printf("\nExact analysis (tiny scenario only):\n");
  std::printf("  viable answer range W = [%.1f, %.1f]\n", range->first,
              range->second);
  std::map<double, int> histogram;
  for (const double answer : *order_answers) ++histogram[answer];
  std::printf("  distinct uniS-reachable answers over all 4! orders:\n");
  for (const auto& [answer, count] : histogram) {
    std::printf("    %6.1f  x%2d  (p = %.3f)\n", answer, count,
                count / 24.0);
  }

  // Algorithm 1 with the Table 2 defaults (|S_uniS| = 400, 50x400
  // bootstrap, theta = 0.9).
  ExtractorOptions options;
  options.seed = 3;
  // This toy scenario has only three distinct viable answers; the adaptive
  // (Botev) bandwidth rightly collapses towards atoms, but the paper's
  // Figure 3 illustration smooths them into humps — Silverman's rule
  // reproduces that look.
  options.kde.rule = BandwidthRule::kSilverman;
  const auto extractor =
      AnswerStatisticsExtractor::Create(&sources, query, options);
  if (!extractor.ok()) {
    std::fprintf(stderr, "%s\n", extractor.status().ToString().c_str());
    return 1;
  }
  const auto stats = extractor->Extract();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }

  std::printf("\nAlgorithm 1 outputs (|S_uniS| = 400, |S_boot| = 50):\n");
  std::printf("Point estimates with confidence intervals:\n");
  PrintCi("mean", stats->mean);
  PrintCi("stddev", stats->std_dev);
  PrintCi("variance", stats->variance);
  PrintCi("skewness", stats->skewness);

  // The paper's figure also reports 85% intervals; recompute at that level.
  ExtractorOptions options85 = options;
  options85.confidence_level = 0.85;
  const auto extractor85 =
      AnswerStatisticsExtractor::Create(&sources, query, options85);
  const auto stats85 = extractor85->Extract();
  if (stats85.ok()) {
    PrintCi("mean (85%)", stats85->mean);
    PrintCi("stddev (85%)", stats85->std_dev);
  }

  std::printf("\nHigh coverage intervals (theta = %.2f):\n",
              options.cio.theta);
  for (const CoverageInterval& interval : stats->coverage.intervals) {
    std::printf("  [%8.3f, %8.3f]  coverage %.4f\n", interval.lo,
                interval.hi, interval.coverage);
  }
  std::printf("  k = %zu intervals, L = %.4f of range, C = %.4f\n",
              stats->coverage.intervals.size(),
              stats->coverage.total_length_fraction,
              stats->coverage.total_coverage);

  std::printf("\nStability (r = %d source removed):\n", options.stability_r);
  std::printf("  Stab_L2 = %.4f   Stab_Bh = %.4f\n",
              stats->stability.stab_l2, stats->stability.stab_bh);
  std::printf("  c_r = %.4f (y = %.2f sources/answer, |D| = %d)\n",
              stats->stability.change_ratio, stats->stability.y,
              sources.NumSources());
  std::printf("  KDE bandwidth h = %.4f, Psi = %.2f\n",
              stats->stability.bandwidth, stats->stability.psi);
  if (!check) return 0;

  std::printf("\n");
  std::vector<BoundCheck> checks = {
      {"distinct reachable answers", static_cast<double>(histogram.size()),
       Bound::kEqual, 3.0}};
  for (const int answer : {89, 93, 96}) {
    const auto it = histogram.find(answer);
    char name[32];
    std::snprintf(name, sizeof name, "orders reaching %d", answer);
    checks.push_back({name, it == histogram.end() ? 0.0 : it->second,
                      Bound::kEqual, 8.0});
  }
  return ReportChecks(checks);
}

}  // namespace
}  // namespace vastats::bench

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
  return vastats::bench::Run(check);
}
