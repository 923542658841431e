// Regenerates Table 3 (§5.1): bootstrapping (BCa) vs direct inference on
// dataset D2.
//
// For each (|S_uniS|, 1-alpha) cell the harness repeats many independent
// samplings of the Sum(D2) viable answers and reports
//   i_r = len(CI_di) / len(CI_boot)   (improvement ratio, max and avg)
//   s_r = |S_di| / |S_uniS|           (sample-size saving, max and avg)
// where CI_di is the distribution-free (Chebyshev) direct-inference
// interval for the mean and |S_di| is the sample size direct inference
// would need to match the bootstrap CI length.
//
// Paper's shape: avg i_r ~ 2 (higher at |S| = 200 and lower confidence),
// max i_r 2.3 - 4.2, avg s_r ~ 3 - 7 with s_r ~ i_r^2.
//
// With --check, also asserts the DESIGN.md §4 criterion and exits nonzero
// when it fails: avg i_r >= 1.5 in every cell.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "checks.h"
#include "vastats/vastats.h"
#include "workloads.h"

namespace vastats::bench {
namespace {

struct Cell {
  int sample_size;
  double level;
};

int Run(bool check) {
  std::printf("Table 3 reproduction: bootstrap CI improvement over direct "
              "inference (dataset D2, Sum over 500 components, 100 sources)\n");
  std::printf("%-9s %-7s %8s %8s %8s %8s   (%d trials/cell)\n", "|S_uniS|",
              "1-a", "max i_r", "avg i_r", "max s_r", "avg s_r", 40);

  Workload workload = MakeD2Workload();
  const auto sampler =
      UniSSampler::Create(workload.sources.get(), workload.query);
  if (!sampler.ok()) {
    std::fprintf(stderr, "%s\n", sampler.status().ToString().c_str());
    return 1;
  }

  const Cell cells[] = {{200, 0.8}, {200, 0.9}, {400, 0.8}, {400, 0.9}};
  constexpr int kTrials = 40;
  BootstrapOptions bootstrap;  // 50 sets, |B| = |S_uniS|
  std::vector<BoundCheck> checks;

  for (const Cell& cell : cells) {
    double max_ir = 0.0, sum_ir = 0.0;
    double max_sr = 0.0, sum_sr = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng(100000 + static_cast<uint64_t>(trial) * 977 +
              static_cast<uint64_t>(cell.sample_size) +
              static_cast<uint64_t>(cell.level * 1000));
      const auto samples = sampler->Sample(cell.sample_size, rng);
      if (!samples.ok()) return 1;
      const Moments moments = ComputeMoments(*samples);

      // Bootstrap BCa interval for the mean.
      const auto replicates = BootstrapReplicates(
          *samples, MomentStatisticFn(MomentStatistic::kMean), bootstrap,
          rng.NextUint64());
      const auto jackknife =
          JackknifeMoment(*samples, MomentStatistic::kMean);
      const auto boot_ci =
          BcaCi(*replicates, moments.mean(), cell.level, *jackknife);
      // Direct inference interval (Chebyshev; distribution-free bound
      // driven by the variance estimate).
      const auto direct_ci =
          DirectMeanCi(moments, cell.level, DirectMethod::kChebyshev);
      if (!boot_ci.ok() || !direct_ci.ok()) return 1;

      const double ir = direct_ci->Length() / boot_ci->Length();
      // Sample size direct inference would need to reach the bootstrap's
      // interval length.
      const auto required = DirectMeanRequiredSampleSize(
          moments.SampleStdDev(), cell.level, boot_ci->Length(),
          DirectMethod::kChebyshev);
      if (!required.ok()) return 1;
      const double sr = required.value() / cell.sample_size;

      max_ir = std::max(max_ir, ir);
      sum_ir += ir;
      max_sr = std::max(max_sr, sr);
      sum_sr += sr;
    }
    std::printf("%-9d %-7.1f %8.3f %8.3f %8.2f %8.2f\n", cell.sample_size,
                cell.level, max_ir, sum_ir / kTrials, max_sr,
                sum_sr / kTrials);
    char name[48];
    std::snprintf(name, sizeof name, "avg i_r |S|=%d 1-a=%.1f",
                  cell.sample_size, cell.level);
    checks.push_back({name, sum_ir / kTrials, Bound::kAtLeast, 1.5});
  }
  std::printf("\nPaper's Table 3 for comparison:\n");
  std::printf("  200  0.8  4.248 2.556 18.10 7.36\n");
  std::printf("  200  0.9  3.309 2.119 10.96 4.84\n");
  std::printf("  400  0.8  2.896 2.001  8.39 4.28\n");
  std::printf("  400  0.9  2.293 1.655  5.26 2.82\n");
  if (!check) return 0;
  std::printf("\n");
  return ReportChecks(checks);
}

}  // namespace
}  // namespace vastats::bench

int main(int argc, char** argv) {
  const bool check = argc > 1 && std::strcmp(argv[1], "--check") == 0;
  return vastats::bench::Run(check);
}
