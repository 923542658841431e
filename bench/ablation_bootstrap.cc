// Ablation: the bootstrap design choices of §4.2 / Table 2.
//
//  (1) CI method — empirical coverage and mean length of nominal-90%
//      intervals for the mean of Sum(D2), across normal / percentile /
//      basic / BCa. The "truth" is the mean of a 200k-draw reference
//      sample. The paper uses BCa "to obtain good quality confidence
//      intervals using small amount of initial samples".
//  (2) |S_boot| — how the number of bootstrap sets (Table 2 default: 50)
//      affects the stability of the interval itself (spread of CI length
//      across repeated resamplings of the same data).

#include <cstdio>
#include <vector>

#include "vastats/vastats.h"
#include "workloads.h"

namespace vastats::bench {
namespace {

int Run() {
  Workload workload = MakeD2Workload();
  const auto sampler =
      UniSSampler::Create(workload.sources.get(), workload.query);
  if (!sampler.ok()) return 1;

  // Reference mean from a large sample.
  Rng ref_rng(123);
  const auto reference = sampler->Sample(200'000, ref_rng);
  if (!reference.ok()) return 1;
  const double true_mean = ComputeMoments(*reference).mean();
  std::printf("Reference mean of Sum(D2) from 200k draws: %.2f\n\n",
              true_mean);

  std::printf("(1) Empirical coverage of nominal-90%% mean CIs "
              "(|S| = 200, 50 bootstrap sets, 60 trials)\n");
  std::printf("%-12s %12s %14s\n", "method", "coverage", "avg length");
  for (const CiMethod method :
       {CiMethod::kNormal, CiMethod::kPercentile, CiMethod::kBasic,
        CiMethod::kBca}) {
    int covered = 0;
    double total_length = 0.0;
    const int kTrials = 60;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng rng(500 + static_cast<uint64_t>(trial));
      const auto samples = sampler->Sample(200, rng);
      if (!samples.ok()) return 1;
      const double mean = ComputeMoments(*samples).mean();
      const auto replicates = BootstrapReplicates(
          *samples, MomentStatisticFn(MomentStatistic::kMean),
          BootstrapOptions{}, rng.NextUint64());
      if (!replicates.ok()) return 1;
      std::vector<double> jackknife;
      if (method == CiMethod::kBca) {
        const auto jk = JackknifeMoment(*samples, MomentStatistic::kMean);
        if (!jk.ok()) return 1;
        jackknife = *jk;
      }
      const auto ci = ComputeBootstrapCi(method, *replicates, mean, 0.90,
                                         jackknife);
      if (!ci.ok()) return 1;
      if (ci->Contains(true_mean)) ++covered;
      total_length += ci->Length();
    }
    std::printf("%-12s %10.1f%% %14.3f\n",
                std::string(CiMethodToString(method)).c_str(),
                covered * 100.0 / kTrials, total_length / kTrials);
  }

  std::printf("\n(2) CI-length stability vs number of bootstrap sets "
              "(same 200-draw sample, 40 resampling repeats)\n");
  std::printf("%-10s %14s %16s\n", "|S_boot|", "avg length",
              "length stddev");
  Rng data_rng(321);
  const auto samples = sampler->Sample(200, data_rng);
  if (!samples.ok()) return 1;
  const double mean = ComputeMoments(*samples).mean();
  const auto jackknife =
      JackknifeMoment(*samples, MomentStatistic::kMean);
  if (!jackknife.ok()) return 1;
  for (const int num_sets : {10, 25, 50, 100, 200}) {
    Moments lengths;
    for (int repeat = 0; repeat < 40; ++repeat) {
      BootstrapOptions options;
      options.num_sets = num_sets;
      const auto replicates = BootstrapReplicates(
          *samples, MomentStatisticFn(MomentStatistic::kMean), options,
          900 + static_cast<uint64_t>(repeat));
      if (!replicates.ok()) return 1;
      const auto ci = BcaCi(*replicates, mean, 0.90, *jackknife);
      if (!ci.ok()) return 1;
      lengths.Add(ci->Length());
    }
    std::printf("%-10d %14.3f %16.4f\n", num_sets, lengths.mean(),
                lengths.SampleStdDev());
  }
  std::printf(
      "\nReading: at |S_boot| = 50 (the Table 2 default) coverage sits below\n"
      "the nominal 90%% for every method (one run: 81.7-86.7%%; with 60\n"
      "trials one trial is 1.7 points, too coarse to rank the methods). The\n"
      "CI length is still noisy at 50 sets: its stddev was about twice the\n"
      "200-set value. ROADMAP.md, \"Bootstrap CIs that keep their nominal\n"
      "level\", measures this at 2000 seeds and plans >= 1000 replicates\n"
      "for the point-statistic CIs.\n");
  return 0;
}

}  // namespace
}  // namespace vastats::bench

int main() { return vastats::bench::Run(); }
