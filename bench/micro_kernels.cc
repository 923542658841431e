// Microbenchmarks for the low-level kernels: FFT/DCT, KDE (direct vs
// binned, bandwidth selectors, the bagged KDE in both bandwidth modes),
// distances, and the mutual impact factor Psi that drives the analytic
// stability scores.

#include <benchmark/benchmark.h>

#include "vastats/vastats.h"

namespace vastats {
namespace {

std::vector<double> Samples(int n, uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(n));
  for (double& v : values) {
    v = rng.Bernoulli(0.5) ? rng.Normal(0.0, 1.0) : rng.Normal(8.0, 2.0);
  }
  return values;
}

void BM_Fft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::complex<double>> data(n);
  Rng rng(1);
  for (auto& c : data) c = {rng.Uniform01(), rng.Uniform01()};
  for (auto _ : state) {
    std::vector<std::complex<double>> copy = data;
    benchmark::DoNotOptimize(Fft(copy, false));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Range(256, 16384)->Complexity(benchmark::oNLogN);

void BM_Dct2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> data(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dct2(data));
  }
}
BENCHMARK(BM_Dct2)->Range(256, 16384);

void BM_KdeDirect(benchmark::State& state) {
  const std::vector<double> samples = Samples(static_cast<int>(state.range(0)));
  KdeOptions options;
  options.rule = BandwidthRule::kSilverman;
  options.binned = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateKde(samples, options));
  }
}
BENCHMARK(BM_KdeDirect)->Range(100, 3200);

void BM_KdeBinned(benchmark::State& state) {
  const std::vector<double> samples = Samples(static_cast<int>(state.range(0)));
  KdeOptions options;
  options.rule = BandwidthRule::kSilverman;
  options.binned = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateKde(samples, options));
  }
}
BENCHMARK(BM_KdeBinned)->Range(100, 3200);

void BM_BotevBandwidth(benchmark::State& state) {
  const std::vector<double> samples = Samples(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BotevBandwidth(samples));
  }
}
BENCHMARK(BM_BotevBandwidth)->Range(100, 3200);

// The bagged KDE at the paper's defaults: 50 bootstrap sets of 400 draws on
// a 4096-point grid, Botev bandwidths. BM_BaggedKdeOneFit is one
// EstimateKde fit of one of those sets on the bag's grid, the unit of the
// "bag <= 2x one fit" target: read the ratio of each bag to it.
std::vector<std::vector<double>> BagSets() {
  BootstrapOptions options;
  options.num_sets = 50;
  return BootstrapSets(Samples(400), options, 7).value();
}

void RunBaggedKde(benchmark::State& state, BandwidthMode mode) {
  const std::vector<double> reference = Samples(400);
  const std::vector<std::vector<double>> sets = BagSets();
  BaggedKdeOptions options;
  options.bandwidth_mode = mode;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateBaggedKde(sets, reference, options));
  }
}

void BM_BaggedKdePerSet(benchmark::State& state) {
  RunBaggedKde(state, BandwidthMode::kPerSet);
}
BENCHMARK(BM_BaggedKdePerSet);

void BM_BaggedKdeShared(benchmark::State& state) {
  RunBaggedKde(state, BandwidthMode::kShared);
}
BENCHMARK(BM_BaggedKdeShared);

void BM_BaggedKdeOneFit(benchmark::State& state) {
  const std::vector<std::vector<double>> sets = BagSets();
  const BaggedKde bag =
      EstimateBaggedKde(sets, Samples(400), BaggedKdeOptions{}).value();
  KdeOptions options;
  options.x_min = bag.density.x_min();
  options.x_max = bag.density.x_max();
  DctPlan plan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateKde(sets[0], options, {}, &plan));
  }
}
BENCHMARK(BM_BaggedKdeOneFit);

void BM_MutualImpactPsiBinned(benchmark::State& state) {
  const std::vector<double> samples = Samples(static_cast<int>(state.range(0)));
  const double h = SilvermanBandwidth(samples);
  DctPlan plan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutualImpactPsiBinned(samples, h, {}, {}, &plan));
  }
}
BENCHMARK(BM_MutualImpactPsiBinned)->Range(100, 3200);

void BM_MutualImpactPsiSorted(benchmark::State& state) {
  const std::vector<double> samples = Samples(static_cast<int>(state.range(0)));
  const double h = SilvermanBandwidth(samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutualImpactPsiSorted(samples, h));
  }
}
BENCHMARK(BM_MutualImpactPsiSorted)->Range(100, 3200);

void BM_MutualImpactPsiExact(benchmark::State& state) {
  const std::vector<double> samples = Samples(static_cast<int>(state.range(0)));
  const double h = SilvermanBandwidth(samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MutualImpactPsiExact(samples, h));
  }
}
BENCHMARK(BM_MutualImpactPsiExact)->Range(100, 3200);

void BM_DensityDistanceL2(benchmark::State& state) {
  KdeOptions options;
  options.rule = BandwidthRule::kSilverman;
  const Kde p = EstimateKde(Samples(400, 1), options).value();
  const Kde q = EstimateKde(Samples(400, 2), options).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DensityDistance(p.density, q.density, DistanceKind::kL2));
  }
}
BENCHMARK(BM_DensityDistanceL2);

void BM_AnalyticStability(benchmark::State& state) {
  const std::vector<double> samples = Samples(400);
  const double h = SilvermanBandwidth(samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(StabilityL2(samples, h, 0.05));
  }
}
BENCHMARK(BM_AnalyticStability);

}  // namespace
}  // namespace vastats
