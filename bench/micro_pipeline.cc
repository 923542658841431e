// Microbenchmarks for the pipeline stages: uniS sampling, bootstrap
// resampling, BCa interval computation, greedy CIO (both expansions), and
// the end-to-end extractor.
//
// With --check, instead of running the google-benchmark suite, the KDE
// fast path and the stability Psi sweep are timed against their exact
// oracles; the speed ratios print as a text table and the exit code is
// nonzero when one misses its bound (ctest `bench_micro_pipeline_check`,
// label `timing`).
//
// With --trace-out FILE, one pool-backed extraction is journaled into a
// flight recorder and exported as Chrome trace-event JSON for
// chrome://tracing / ui.perfetto.dev.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "timing_checks.h"
#include "vastats/vastats.h"
#include "workloads.h"

namespace vastats::bench {
namespace {

const Workload& D2() {
  static const Workload* workload = new Workload(MakeD2Workload());
  return *workload;
}

const UniSSampler& D2Sampler() {
  static const UniSSampler* sampler = new UniSSampler(
      UniSSampler::Create(D2().sources.get(), D2().query).value());
  return *sampler;
}

void BM_UniSSampleOne(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(D2Sampler().SampleOne(rng));
  }
}
BENCHMARK(BM_UniSSampleOne);

void BM_UniSSampleBatch(benchmark::State& state) {
  Rng rng(2);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(D2Sampler().Sample(n, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_UniSSampleBatch)->Arg(100)->Arg(400);

void BM_BootstrapResample(benchmark::State& state) {
  Rng rng(3);
  const std::vector<double> samples =
      D2Sampler().Sample(static_cast<int>(state.range(0)), rng).value();
  BootstrapOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BootstrapSets(samples, options, rng));
  }
}
BENCHMARK(BM_BootstrapResample)->Arg(200)->Arg(400)->Arg(800);

void BM_BcaInterval(benchmark::State& state) {
  Rng rng(4);
  const std::vector<double> samples = D2Sampler().Sample(400, rng).value();
  const auto replicates =
      BootstrapReplicates(samples, MomentStatisticFn(MomentStatistic::kMean),
                          BootstrapOptions{}, rng)
          .value();
  const double mean = ComputeMoments(samples).mean();
  for (auto _ : state) {
    const auto jackknife =
        JackknifeMoment(samples, MomentStatistic::kMean).value();
    benchmark::DoNotOptimize(BcaCi(replicates, mean, 0.9, jackknife));
  }
}
BENCHMARK(BM_BcaInterval);

void BM_GreedyCio(benchmark::State& state) {
  Rng rng(5);
  const std::vector<double> samples = D2Sampler().Sample(400, rng).value();
  const Kde kde = EstimateKde(samples, KdeOptions{}).value();
  CioOptions options;
  options.expansion = state.range(0) == 0 ? CioExpansion::kWaterLevel
                                          : CioExpansion::kSymmetric;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyCio(kde.density, options));
  }
}
BENCHMARK(BM_GreedyCio)->Arg(0)->Arg(1);

void BM_SlicingCio(benchmark::State& state) {
  Rng rng(6);
  const std::vector<double> samples = D2Sampler().Sample(400, rng).value();
  const Kde kde = EstimateKde(samples, KdeOptions{}).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlicingCio(kde.density, 0.9));
  }
}
BENCHMARK(BM_SlicingCio);

void BM_EndToEndExtract(benchmark::State& state) {
  ExtractorOptions options;
  options.initial_sample_size = static_cast<int>(state.range(0));
  options.weight_probes = 10;
  const auto extractor = AnswerStatisticsExtractor::Create(
      D2().sources.get(), D2().query, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor->Extract());
  }
}
BENCHMARK(BM_EndToEndExtract)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_ParallelSamplePool(benchmark::State& state) {
  ThreadPool pool;
  ParallelSampleOptions options;
  options.pool = &pool;
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParallelUniSSample(D2Sampler(), n, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelSamplePool)->Arg(400)->Arg(4000);

void BM_ParallelSampleThreadPerCall(benchmark::State& state) {
  ParallelSampleOptions options;  // num_threads = 0 -> hardware concurrency
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParallelUniSSample(D2Sampler(), n, options));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelSampleThreadPerCall)->Arg(400)->Arg(4000);

// Times one `fn()` run with the span-free stopwatch.
double MeasureSeconds(const std::function<void()>& fn) {
  Stopwatch stopwatch;
  fn();
  return stopwatch.ElapsedSeconds();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// KDE fast path against its oracle: the same 400-draw sample fitted 50
// times through the binned DCT default and 50 times by direct summation.
bool AddKdeChecks(std::vector<RatioCheck>* checks) {
  constexpr int kDraws = 400;
  constexpr int kFits = 50;
  Rng rng(17);
  const auto sample = D2Sampler().Sample(kDraws, rng);
  if (!sample.ok()) return false;

  DctPlan plan;
  KdeOptions binned_options;  // production default: binned DCT, Botev
  KdeOptions direct_options = binned_options;
  direct_options.binned = false;

  // Warm the transform tables so the binned loop times steady-state fits.
  if (!EstimateKde(sample.value(), binned_options, {}, &plan).ok()) {
    return false;
  }
  bool ok = true;
  const double binned_seconds = MeasureSeconds([&] {
    for (int i = 0; i < kFits && ok; ++i) {
      ok = EstimateKde(sample.value(), binned_options, {}, &plan).ok();
    }
  });
  const double direct_seconds = MeasureSeconds([&] {
    for (int i = 0; i < kFits && ok; ++i) {
      ok = EstimateKde(sample.value(), direct_options, {}, &plan).ok();
    }
  });
  if (!ok) return false;
  std::printf("kde |S|=%d grid=%zu  per fit: binned %.1f us, direct %.1f us\n",
              kDraws, static_cast<size_t>(binned_options.grid_size),
              1e6 * binned_seconds / kFits, 1e6 * direct_seconds / kFits);
  checks->push_back({"kde direct/binned per fit",
                     direct_seconds / binned_seconds, Bound::kAbove, 1.0});
  return true;
}

// Stability Psi scaling across a 16x sample sweep: the binned
// Gauss-transform default works on a fixed grid, so its cost stays near flat
// from |S| = 400 to 6400, while the sorted exact oracle grows superlinearly.
// Both sizes use one fixed D2 sample each. The binned growth is the median
// of per-pair ratios over kPairs interleaved pairs, each pair timing
// kBinnedReps evaluations at both sizes (which size runs first alternates).
// A single 32-eval shot per size on a fresh sample spread 1.3-2.1 over twelve
// runs on a shared 4-vCPU VM, a third of them past the bound.
bool AddStabilityChecks(std::vector<RatioCheck>* checks) {
  constexpr int kSmall = 400;
  constexpr int kLarge = 6400;
  constexpr int kPairs = 21;
  constexpr int kBinnedReps = 32;
  // The exact sum is O(n^2); scale reps down so the sweep stays cheap.
  constexpr int kExactRepsSmall = 16;
  constexpr int kExactRepsLarge = 1;
  Rng rng(29);
  const auto small = D2Sampler().Sample(kSmall, rng);
  const auto large = D2Sampler().Sample(kLarge, rng);
  if (!small.ok() || !large.ok()) return false;
  const double small_h = SilvermanBandwidth(small.value());
  const double large_h = SilvermanBandwidth(large.value());

  DctPlan plan;
  const StabilityOptions options;  // binned, 4096 grid
  bool ok = true;
  const auto time_binned = [&](const std::vector<double>& sample, double h) {
    return MeasureSeconds([&] {
      for (int rep = 0; rep < kBinnedReps && ok; ++rep) {
        ok = EvaluateMutualImpactPsi(sample, h, options, {}, &plan).ok();
      }
    });
  };
  // Warm the transform tables at both sizes; the pairs then time
  // steady-state evaluations.
  time_binned(small.value(), small_h);
  time_binned(large.value(), large_h);

  std::vector<double> growth, small_seconds, large_seconds;
  for (int pair = 0; pair < kPairs && ok; ++pair) {
    double t_small = 0.0, t_large = 0.0;
    if (pair % 2 == 0) {
      t_small = time_binned(small.value(), small_h);
      t_large = time_binned(large.value(), large_h);
    } else {
      t_large = time_binned(large.value(), large_h);
      t_small = time_binned(small.value(), small_h);
    }
    growth.push_back(t_large / t_small);
    small_seconds.push_back(t_small / kBinnedReps);
    large_seconds.push_back(t_large / kBinnedReps);
  }
  if (!ok) return false;

  double exact_psi = 0.0;
  const double exact_small = MeasureSeconds([&] {
    for (int rep = 0; rep < kExactRepsSmall; ++rep) {
      exact_psi = MutualImpactPsiSorted(small.value(), small_h);
    }
  }) / kExactRepsSmall;
  const double exact_large = MeasureSeconds([&] {
    for (int rep = 0; rep < kExactRepsLarge; ++rep) {
      exact_psi = MutualImpactPsiSorted(large.value(), large_h);
    }
  }) / kExactRepsLarge;
  if (!(exact_psi > 0.0)) return false;

  const double binned_large = Median(large_seconds);
  std::printf(
      "stability psi grid=%zu  per eval at |S|=%d/%d: binned %.1f/%.1f us "
      "(median of %d pairs), exact %.1f/%.1f us\n",
      static_cast<size_t>(options.grid_size), kSmall, kLarge,
      1e6 * Median(small_seconds), 1e6 * binned_large, kPairs,
      1e6 * exact_small, 1e6 * exact_large);
  checks->push_back({"stability binned growth 400->6400", Median(growth),
                     Bound::kBelow, 1.5});
  checks->push_back({"stability exact growth 400->6400",
                     exact_large / exact_small, Bound::kAbove, 4.0});
  checks->push_back({"stability exact/binned at 6400",
                     exact_large / binned_large, Bound::kAbove, 10.0});
  return true;
}

// The --check mode: every speed ratio of the kde and stability sweeps.
int RunChecks() {
  std::vector<RatioCheck> checks;
  if (!AddKdeChecks(&checks) || !AddStabilityChecks(&checks)) {
    std::fprintf(stderr, "a kde or stability evaluation failed\n");
    return 1;
  }
  return ReportChecks(checks);
}

// One fully journaled extraction exported as a Chrome trace. Sampling is
// forced through the persistent pool in 4 chunks so the trace carries
// per-worker tracks and pool queue-wait spans even on single-core hosts.
int RunTraceExport(const char* path) {
  MetricsRegistry metrics;
  FlightRecorder recorder;
  ExtractorOptions options;
  options.initial_sample_size = 400;
  options.weight_probes = 10;
  options.sampling_threads = 4;
  options.pool = DefaultThreadPool();
  options.obs.metrics = &metrics;
  options.obs.recorder = &recorder;
  const auto extractor = AnswerStatisticsExtractor::Create(
      D2().sources.get(), D2().query, options);
  if (!extractor.ok()) {
    std::fprintf(stderr, "%s\n", extractor.status().ToString().c_str());
    return 1;
  }
  const auto stats = extractor->Extract();
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  const FlightSnapshot snapshot = recorder.Drain();
  const Status written = ExportChromeTraceToFile(snapshot, path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu events across %zu tracks (%llu dropped) to %s\n",
               snapshot.events.size(), static_cast<size_t>(snapshot.num_tracks),
               static_cast<unsigned long long>(snapshot.TotalDropped()), path);
  return 0;
}

}  // namespace
}  // namespace vastats::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      return vastats::bench::RunChecks();
    }
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace-out requires a file path\n");
        return 2;
      }
      return vastats::bench::RunTraceExport(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
