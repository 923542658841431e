// Stock-domain example — the paper's other Deep-Web motivation (its §6
// discussion of Li et al., VLDB 2013): financial sites publish conflicting
// values for the same ticker statistics, largely because of *semantic
// ambiguity* — "one source may compute a statistic of the data over a
// year-long period, another may compute the same statistic over a half-year
// period. Both computations are correct with regard to the semantics
// applied; hence multiple true values are possible."
//
// The example builds such a web of quote sources, then:
//   1. stratifies the sources by systematic bias, recovering the semantic
//      families (full-year vs half-year vs stale-cache reporters);
//   2. runs a GROUP BY sector / HAVING query whose predicate is
//      probabilistic under value-level heterogeneity;
//   3. answers several statistics consistently from one sampling pass by
//      recording each uniS draw's takes once and replaying them per
//      statistic.

#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "vastats/vastats.h"

namespace {

using namespace vastats;

constexpr int kTickers = 60;
constexpr int kSectors = 4;

ComponentId AvgVolumeComponent(int ticker) { return 1000 + ticker; }

}  // namespace

int main() {
  Rng rng(2013);

  // Ground truth: average daily volume per ticker (millions of shares),
  // log-normally spread, with sector-dependent scale.
  std::vector<double> volume(kTickers);
  std::vector<int> sector(kTickers);
  for (int t = 0; t < kTickers; ++t) {
    sector[t] = t % kSectors;
    volume[t] =
        std::exp(rng.Normal(1.0 + 0.5 * sector[t], 0.4));
  }

  // Quote sources with three semantics for "average volume":
  //  * full-year window (the reference),
  //  * half-year window (captures a recent rally: ~25% higher),
  //  * stale cache (last quarter of the *previous* year: ~20% lower).
  auto sources = std::make_unique<SourceSet>();
  struct SiteSpec {
    const char* name;
    double factor;
    double coverage;
  };
  const SiteSpec sites[] = {
      {"exchange-feed", 1.00, 0.95}, {"bigfinance", 1.00, 0.8},
      {"marketdata-pro", 1.00, 0.7}, {"halfyear-quotes", 1.25, 0.8},
      {"rally-tracker", 1.25, 0.6},  {"stale-mirror", 0.80, 0.9},
  };
  for (const SiteSpec& site : sites) {
    DataSource source(site.name);
    for (int t = 0; t < kTickers; ++t) {
      if (!rng.Bernoulli(site.coverage)) continue;
      source.Bind(AvgVolumeComponent(t),
                  volume[t] * site.factor * std::exp(rng.Normal(0, 0.02)));
    }
    sources->AddSource(std::move(source));
  }

  // 1. Stratification: recover the semantic families from data alone.
  std::vector<ComponentId> scope;
  for (int t = 0; t < kTickers; ++t) scope.push_back(AvgVolumeComponent(t));
  StratificationOptions strat_options;
  strat_options.gap = 0.4;  // volumes are O(1-10); semantics differ by ~25%
  const auto strata = StratifySources(*sources, scope, strat_options);
  if (!strata.ok()) {
    std::fprintf(stderr, "%s\n", strata.status().ToString().c_str());
    return 1;
  }
  std::printf("Semantic stratification of %d quote sources:\n",
              sources->NumSources());
  for (const SourceStratum& stratum : strata->strata) {
    std::printf("  stratum (bias %+0.2f):", stratum.bias_center);
    for (const int s : stratum.sources) {
      std::printf(" %s", sources->source(s).name().c_str());
    }
    std::printf("\n");
  }

  // 2. GROUP BY sector, HAVING Average(volume) > threshold — probabilistic
  //    under the heterogeneity.
  GroupedAggregateQuery grouped;
  grouped.name = "avg-volume-by-sector";
  grouped.aggregate = AggregateKind::kAverage;
  for (int sec = 0; sec < kSectors; ++sec) {
    QueryGroup group;
    group.key = std::string("sector-") + std::to_string(sec);
    for (int t = 0; t < kTickers; ++t) {
      if (sector[t] == sec) group.components.push_back(AvgVolumeComponent(t));
    }
    grouped.groups.push_back(std::move(group));
  }
  grouped.has_having = true;
  grouped.having.aggregate = AggregateKind::kAverage;
  grouped.having.comparator = HavingComparator::kGreater;
  grouped.having.threshold = 5.5;

  ExtractorOptions options;
  options.initial_sample_size = 250;
  options.weight_probes = 10;
  options.kde.rule = BandwidthRule::kSilverman;
  const auto evaluator =
      GroupedQueryEvaluator::Create(sources.get(), grouped, options);
  if (!evaluator.ok()) return 1;
  const auto answer = evaluator->Evaluate();
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 1;
  }
  std::printf("\nSELECT Avg(volume) GROUP BY sector HAVING Avg > %.1f:\n",
              grouped.having.threshold);
  for (const GroupAnswer& group : answer->groups) {
    std::printf("  %-10s mean %6.2fM  90%% CI [%5.2f, %5.2f]  "
                "P(HAVING) = %.2f\n",
                group.key.c_str(), group.statistics.mean.value,
                group.statistics.mean.ci.lo, group.statistics.mean.ci.hi,
                group.having_probability);
  }
  std::printf("  confidently passing (P >= 0.95):");
  for (const std::string& key : answer->PassingKeys(0.95)) {
    std::printf(" %s", key.c_str());
  }
  std::printf("\n");

  // 3. Several statistics of the hottest sector from ONE sampling pass:
  // each uniS draw records its takes once, and every statistic is
  // finalized from the same takes.
  AggregateQuery hottest;
  hottest.name = std::string("sector-") + std::to_string(kSectors - 1);
  hottest.kind = AggregateKind::kAverage;
  hottest.components = grouped.groups.back().components;
  const auto sampler = UniSSampler::Create(sources.get(), std::move(hottest));
  if (!sampler.ok()) return 1;
  struct Statistic {
    const char* label;
    AggregateKind kind;
    double quantile_q;
  };
  const Statistic statistics[] = {{"avg", AggregateKind::kAverage, 0.5},
                                  {"median", AggregateKind::kMedian, 0.5},
                                  {"p90", AggregateKind::kQuantile, 0.9},
                                  {"max", AggregateKind::kMax, 0.5}};
  std::vector<std::vector<double>> series(std::size(statistics));
  std::vector<UniSTake> takes;
  Rng sample_rng(7);
  for (int draw = 0; draw < 300; ++draw) {
    if (!sampler->SampleOneRecorded(sample_rng, takes).ok()) return 1;
    for (size_t a = 0; a < series.size(); ++a) {
      const auto value = UniSSampler::ReplayTakes(takes, statistics[a].kind,
                                                  statistics[a].quantile_q);
      if (!value.ok()) return 1;
      series[a].push_back(*value);
    }
  }
  std::printf("\nSector-%d viable answer summaries (one shared sampling "
              "pass, 300 assignments):\n",
              kSectors - 1);
  for (size_t a = 0; a < series.size(); ++a) {
    const SampleSummary summary = Summarize(series[a]).value();
    std::printf("  %-7s mean %6.2f  [%.2f, %.2f]\n", statistics[a].label,
                summary.mean, summary.min, summary.max);
  }
  return 0;
}
