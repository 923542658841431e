// Ablation: bandwidth selection and bagging choices of §4.3.
//
// The paper uses the adaptive (Botev diffusion) bandwidth and bags 50
// bootstrap KDEs; this harness quantifies what those choices buy on the
// bimodal climate aggregation S1:
//  * bandwidth rule (Silverman / Scott / Botev) -> selected h, number of
//    detected modes, CIO length and coverage;
//  * bagged KDE vs single-shot KDE -> point-wise wiggle (mode count at a
//    low threshold) and CIO output stability across reruns.

#include <cstdio>
#include <vector>

#include "vastats/vastats.h"
#include "workloads.h"

namespace vastats::bench {
namespace {

const char* RuleName(BandwidthRule rule) {
  switch (rule) {
    case BandwidthRule::kSilverman:
      return "Silverman";
    case BandwidthRule::kScott:
      return "Scott";
    case BandwidthRule::kBotev:
      return "Botev";
  }
  return "?";
}

int Run() {
  std::printf("Ablation: bandwidth selection x bagging on S1 (bimodal "
              "climate sum)\n\n");
  Workload workload = MakeS1();
  const auto sampler =
      UniSSampler::Create(workload.sources.get(), workload.query);
  if (!sampler.ok()) return 1;
  Rng rng(4242);
  const auto samples = sampler->Sample(400, rng);
  if (!samples.ok()) return 1;

  std::printf("%-10s %-8s %10s %8s %8s %8s %8s\n", "rule", "bagged", "h",
              "modes.1", "modes.02", "CIO L", "CIO C");
  for (const BandwidthRule rule :
       {BandwidthRule::kSilverman, BandwidthRule::kScott,
        BandwidthRule::kBotev}) {
    for (const bool bagged : {false, true}) {
      KdeOptions kde_options;
      kde_options.rule = rule;
      double h = 0.0;
      GridDensity density = GridDensity::Create(0, 1, {0, 0}).value();
      if (bagged) {
        const auto sets = BootstrapSets(*samples, BootstrapOptions{}, 1);
        const auto result = EstimateBaggedKde(*sets, *samples, kde_options);
        if (!result.ok()) return 1;
        h = result->bandwidth;
        density = result->density;
      } else {
        const auto result = EstimateKde(*samples, kde_options);
        if (!result.ok()) return 1;
        h = result->bandwidth;
        density = result->density;
      }
      CioOptions cio;
      const auto coverage = GreedyCio(density, cio);
      if (!coverage.ok()) return 1;
      std::printf("%-10s %-8s %10.3f %8zu %8zu %8.4f %8.4f\n",
                  RuleName(rule), bagged ? "yes" : "no", h,
                  density.FindModes(0.1).size(),
                  density.FindModes(0.02).size(),
                  coverage->total_length_fraction,
                  coverage->total_coverage);
    }
  }
  std::printf(
      "\nReading: modes.1 = modes above 10%% of the peak (the real\n"
      "structure: 2 for S1); modes.02 = modes above 2%% (estimation\n"
      "wiggle). Bagging should cut the wiggle count; the adaptive rule\n"
      "should resolve both true modes without inflating the intervals.\n");
  return 0;
}

}  // namespace
}  // namespace vastats::bench

int main() { return vastats::bench::Run(); }
