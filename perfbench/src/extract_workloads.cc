// Single-client extraction workloads: extract_d2, extract_wide and
// chaos_transport. One op = AnswerStatisticsExtractor::Create + Extract
// with a fresh seed, exactly what a caller pays per answer.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "workloads.h"

namespace perfbench {

using namespace vastats;  // NOLINT: the benchmark drives the whole library

namespace {

struct ExtractionBench {
  // Declaration order is destruction order reversed: the transport borrows
  // the fault model, and the options borrow everything above them.
  std::unique_ptr<SourceSet> sources;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<FaultModel> model;
  std::unique_ptr<transport::AsyncSourceTransport> transport;
  AggregateQuery query;
  ExtractorOptions options;
  ThreadCounts threads;
  int warmup_ops = 2;
  // SUM/AVG over a fault-free seam has a closed-form uniS mean to pin.
  bool closed_form_mean = true;
};

using MakeBench = Result<std::unique_ptr<ExtractionBench>> (*)();

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

// The D2 universe of bench/workloads.h's MakeD2Workload (mixture seed 2,
// placement seed 3) at the given size. Datasets are fixed; --seed drives
// the ops run over them.
Result<std::unique_ptr<SourceSet>> D2Universe(int sources, int components) {
  const auto mixture = MakeD2(2);
  SyntheticSourceSetOptions options;
  options.num_sources = sources;
  options.num_components = components;
  options.min_copies = 2;
  options.max_copies = 6;
  options.conflict_model = ConflictModel::kSharedBaseNoise;
  options.conflict_sigma = 0.5;
  options.seed = 3;
  VASTATS_ASSIGN_OR_RETURN(SourceSet set,
                           BuildSyntheticSourceSet(*mixture, options));
  return std::make_unique<SourceSet>(std::move(set));
}

// Table-2 defaults: |D|=100, |C|=500, SUM over every component,
// |S_uniS|=400, |S_boot|=50, per-set bandwidths, serial sampling.
Result<std::unique_ptr<ExtractionBench>> BuildD2() {
  auto bench = std::make_unique<ExtractionBench>();
  VASTATS_ASSIGN_OR_RETURN(bench->sources, D2Universe(100, 500));
  bench->query = MakeRangeQuery("sum-d2", AggregateKind::kSum, 0, 500);
  bench->options.sampling_threads = 1;
  bench->warmup_ops = 3;
  return bench;
}

// Wide universe where uniS dominates: |D|=400, |C|=4000, |S_uniS|=1600,
// shared bandwidth, chunk-parallel sampling on a persistent pool of
// nproc-2 workers plus the calling thread, which drains its own batch. The
// one vCPU left idle keeps the op steady on a shared host: with all nproc
// busy, a neighbour contending for any one vCPU stalled every fork-join and
// slowed the op by 25-35% (a busy loop pinned to one vCPU reproduces it),
// while at nproc-1 threads the scheduler moves the work off that vCPU.
Result<std::unique_ptr<ExtractionBench>> BuildWide() {
  auto bench = std::make_unique<ExtractionBench>();
  VASTATS_ASSIGN_OR_RETURN(bench->sources, D2Universe(400, 4000));
  bench->query = MakeRangeQuery("sum-wide", AggregateKind::kSum, 0, 4000);
  const int workers = std::max(1, Nproc() - 2);
  ThreadPoolOptions pool_options;
  pool_options.num_threads = workers;
  bench->pool = std::make_unique<ThreadPool>(pool_options);
  bench->options.initial_sample_size = 1600;
  bench->options.kde_bandwidth_mode = BandwidthMode::kShared;
  bench->options.sampling_threads = workers + 1;
  bench->options.pool = bench->pool.get();
  bench->threads.pool_workers = workers;
  bench->warmup_ops = 2;
  return bench;
}

// bench/transport's 30 x 60 universe and fault-model seed behind the
// AF_UNIX transport (--seed drives the ops), with transient failures, a
// partial outage from mid-extraction on, a 5% straggler tail (8x) and
// hedging. Modelled latency is realized uncompressed, one wall ms per
// virtual ms, and an op takes the extractor's minimum of 8 draws. Each
// request hop costs a few thread wake-ups, and on a host whose vCPUs are
// shared those wake-ups stretch with the hypervisor's steal; the longer the
// realized wait per request, the smaller that share of the op. At 0.1 wall
// ms per virtual ms and 16 draws the op grew ~3% per 1% of steal, at 1.0
// and 8 draws ~1-1.5%.
Result<std::unique_ptr<ExtractionBench>> BuildChaos() {
  auto bench = std::make_unique<ExtractionBench>();
  constexpr int kSources = 30;
  constexpr int kComponents = 60;
  constexpr int kDraws = 8;
  SyntheticSourceSetOptions universe;
  universe.num_sources = kSources;
  universe.num_components = kComponents;
  universe.min_copies = 3;
  universe.max_copies = 5;
  universe.seed = 7117;
  const auto d2 = MakeD2(7118);
  VASTATS_ASSIGN_OR_RETURN(SourceSet set, BuildSyntheticSourceSet(*d2, universe));
  bench->sources = std::make_unique<SourceSet>(std::move(set));

  FaultModelOptions faults;
  faults.transient_failure_prob = 0.05;
  faults.failure_spread_sigma = 0.5;
  faults.latency_base_ms = 3.0;
  faults.latency_per_component_ms = 0.05;
  faults.latency_jitter_sigma = 0.3;
  faults.outage_fraction = 0.1;
  faults.outage_epoch = kDraws / 2;
  faults.seed = 90210;
  VASTATS_ASSIGN_OR_RETURN(FaultModel model,
                           FaultModel::Create(kSources, faults));
  bench->model = std::make_unique<FaultModel>(std::move(model));

  transport::TransportOptions wire;
  wire.endpoint.backend = transport::EndpointBackend::kSocketPair;
  wire.endpoint.service_threads = Nproc();
  wire.endpoint.wall_ms_per_virtual_ms = 1.0;
  wire.endpoint.straggler_fraction = 0.05;
  wire.endpoint.straggler_multiplier = 8.0;
  wire.max_in_flight = 8;
  wire.hedge.enabled = true;
  wire.hedge.percentile = 0.5;
  wire.hedge.multiplier = 2.0;
  wire.hedge.min_samples = 8;
  wire.hedge.min_cutoff_ms = 1.0;
  VASTATS_ASSIGN_OR_RETURN(
      bench->transport,
      transport::AsyncSourceTransport::Create(*bench->sources,
                                              bench->model.get(), wire));

  FaultToleranceOptions tolerance;
  tolerance.model = bench->model.get();
  tolerance.min_draw_coverage = 0.5;
  tolerance.transport = bench->transport.get();
  bench->query =
      MakeRangeQuery("avg-chaos", AggregateKind::kAverage, 0, kComponents);
  bench->options.initial_sample_size = kDraws;
  bench->options.kde_bandwidth_mode = BandwidthMode::kShared;
  bench->options.sampling_threads = 1;
  bench->options.fault_tolerance = tolerance;
  bench->threads.endpoint_threads = wire.endpoint.service_threads;
  bench->warmup_ops = 2;
  bench->closed_form_mean = false;
  return bench;
}

// Builds the workload and runs its warm-up ops: the work a user pays
// before the first answer. The warm-up ops take fixed seeds, so set-up is
// the same work whatever --seed the run takes.
Result<std::unique_ptr<ExtractionBench>> SetUp(MakeBench make) {
  VASTATS_ASSIGN_OR_RETURN(std::unique_ptr<ExtractionBench> bench, make());
  for (int i = 0; i < bench->warmup_ops; ++i) {
    ExtractorOptions options = bench->options;
    options.seed = MixSeed(kWarmupSeed, static_cast<uint64_t>(i));
    VASTATS_ASSIGN_OR_RETURN(
        const AnswerStatistics answer,
        ExtractOnce(bench->sources.get(), bench->query, options));
    (void)answer;
  }
  return bench;
}

uint64_t OpSeed(uint64_t seed, int64_t op) {
  return MixSeed(seed, 1u << 20 | static_cast<uint64_t>(op));
}

int RunExtraction(const Args& args, MakeBench make) {
  EndToEnd e2e;
  std::unique_ptr<ExtractionBench> bench;
  // Sets the workload up afresh and records how long that took.
  const auto set_up = [&]() {
    bench.reset();
    const int64_t start = NowNs();
    Result<std::unique_ptr<ExtractionBench>> built = SetUp(make);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    bench = std::move(built).value();
    e2e.setup_s.push_back(MsBetween(start, NowNs()) * 1e-3);
    return true;
  };
  if (!set_up()) return 1;

  CheckLog checks;
  double expected = std::numeric_limits<double>::quiet_NaN();
  if (bench->closed_form_mean) {
    const Result<double> closed = UniSExpectedAnswer(*bench->sources, bench->query);
    if (!closed.ok()) {
      std::fprintf(stderr, "closed form: %s\n", closed.status().ToString().c_str());
      return 1;
    }
    expected = closed.value();
  }
  const CioOptions cio = bench->options.cio;
  int64_t cio_below_theta = 0;
  JsonObject detail;

  if (!args.trace) {
    // Untraced closed loop: the end-to-end metrics. Every window runs on a
    // freshly set-up workload (see kSetupsPerWindow); the op seeds carry on
    // across windows.
    struct Transported {
      int64_t op;
      uint64_t seed;
      uint64_t digest;
    };
    std::vector<Transported> transported;
    int64_t op = 0;
    for (int window = 0; window < kWindows; ++window) {
      for (int rep = window == 0 ? 1 : 0; rep < kSetupsPerWindow; ++rep) {
        if (!set_up()) return 1;
      }
      const SourceSet* sources = bench->sources.get();
      ExtractorOptions options = bench->options;
      e2e.BeginWindow();
      const int64_t window_end =
          NowNs() + static_cast<int64_t>(args.seconds / kWindows * 1e9);
      for (; NowNs() < window_end; ++op) {
        options.seed = OpSeed(args.seed, op);
        const int64_t start = NowNs();
        const Result<AnswerStatistics> answer =
            ExtractOnce(sources, bench->query, options);
        TimedOp& timed = e2e.ops.emplace_back();
        timed.end_ns = NowNs();
        timed.ms = MsBetween(start, timed.end_ns);
        if (!answer.ok()) {
          checks.Fail(op, answer.status().ToString());
        } else {
          timed.answered = true;
          e2e.coverage.push_back(AnswerCoverage(answer.value()));
          cio_below_theta +=
              CheckAnswer(answer.value(), cio, expected, op, checks);
          if (bench->transport != nullptr) {
            transported.push_back(
                {op, options.seed, AnswerDigest(answer.value())});
          }
        }
      }
      e2e.EndWindow();
    }
    const SourceSet* sources = bench->sources.get();

    // Transported answers must equal the simulated seam's, bit for bit.
    ExtractorOptions simulated = bench->options;
    if (simulated.fault_tolerance.has_value()) {
      simulated.fault_tolerance->transport = nullptr;
    }
    for (const Transported& op : transported) {
      simulated.seed = op.seed;
      const Result<AnswerStatistics> reference =
          ExtractOnce(sources, bench->query, simulated);
      if (!reference.ok() || AnswerDigest(reference.value()) != op.digest) {
        checks.Fail(op.op, "transported answer differs from the simulated seam");
      }
    }
    for (size_t op = 0; op < e2e.ops.size(); ++op) {
      e2e.ops[op].ok = e2e.ops[op].answered &&
                       !checks.Failed(static_cast<int64_t>(op));
    }
    detail.Obj("samples", SampleCounts(e2e))
        .Num("closed_form_mean", expected)
        .Int("cio_literal_below_theta", cio_below_theta);
    return Finish(args, bench->threads, e2e.attempted(),
                  e2e.attempted() - e2e.ok(), checks, EndToEndMetrics(e2e),
                  detail);
  }

  // Traced run: each op runs twice on one seed, untraced and with the trace
  // and counters attached; attaching them must not change the answer.
  const SourceSet* sources = bench->sources.get();
  ExtractorOptions options = bench->options;
  SpanLane lane;
  PerLayer layers;
  double plant_ms = 0.0;
  // Attribution self-test: with a planted delay, every other traced op
  // carries it, so planted and plain ops share the process and the moment
  // and only the plant differs between them.
  PerLayer planted;
  const bool plan_hook = args.plant_density_delay > 0.0;
  if (plan_hook) {
    // Calibrate the planted delay on density's own measured time.
    std::vector<double> kde_ms;
    for (int i = 0; i < 7; ++i) {
      options.seed = MixSeed(kWarmupSeed, 100 + static_cast<uint64_t>(i));
      LayerSample sample;
      TracedRun run;
      run.plan_hook = true;
      if (!ExtractTraced(sources, bench->query, options, run, &sample).ok()) {
        std::fprintf(stderr, "calibration op failed\n");
        return 1;
      }
      kde_ms.push_back(sample.slot_ms[kKde]);
    }
    plant_ms = args.plant_density_delay * Median(kde_ms);
  }
  ExtractorOptions simulated = bench->options;
  if (simulated.fault_tolerance.has_value()) {
    simulated.fault_tolerance->transport = nullptr;
  }
  transport::TransportCounters counters_before;
  if (bench->transport != nullptr) counters_before = bench->transport->counters();
  int64_t attempted = 0;
  int64_t transported_ops = 0;
  const int64_t loop_end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  for (int64_t op = 0; NowNs() < loop_end; ++op) {
    options.seed = OpSeed(args.seed, op);
    attempted += 2;
    const int64_t start = NowNs();
    const Result<AnswerStatistics> plain =
        ExtractOnce(sources, bench->query, options);
    const double plain_ms = MsBetween(start, NowNs());
    LayerSample sample;
    TracedRun run;
    run.lane = &lane;
    run.op = op;
    run.plan_hook = plan_hook;
    const bool plant = plant_ms > 0.0 && op % 2 == 1;
    run.plant_kde_delay_ms = plant ? plant_ms : 0.0;
    const Result<AnswerStatistics> traced =
        ExtractTraced(sources, bench->query, options, run, &sample);
    if (!plain.ok() || !traced.ok()) {
      checks.Fail(op, !plain.ok() ? plain.status().ToString()
                                  : traced.status().ToString());
      continue;
    }
    const uint64_t digest = AnswerDigest(traced.value());
    if (AnswerDigest(plain.value()) != digest) {
      checks.Fail(op, "traced answer differs from the untraced one");
    }
    layers.cio_below_theta += CheckAnswer(traced.value(), cio, expected, op, checks);
    if (bench->transport != nullptr) {
      // Transport wait is the transported sampling phase minus the same
      // extraction's sampling phase on the simulated seam, whose answer
      // must be bit-identical.
      simulated.seed = options.seed;
      const Result<AnswerStatistics> reference =
          ExtractOnce(sources, bench->query, simulated);
      if (!reference.ok() || AnswerDigest(reference.value()) != digest) {
        checks.Fail(op, "transported answer differs from the simulated seam");
      } else {
        sample.simulated_draw_ms =
            reference.value().timings.sampling_seconds * 1e3;
      }
      transported_ops += 2;
      layers.reports.push_back(plain.value().degradation);
      layers.reports.push_back(traced.value().degradation);
    }
    PerLayer& into = plant ? planted : layers;
    into.untraced_ms.push_back(plain_ms);
    into.traced.push_back(sample);
  }
  if (bench->transport != nullptr) {
    const transport::TransportCounters after = bench->transport->counters();
    double visits = 0.0;
    for (const DegradationReport& report : layers.reports) {
      visits += static_cast<double>(report.access.visits);
    }
    const double requests =
        static_cast<double>(after.requests - counters_before.requests);
    const double issued = static_cast<double>(after.prefetches_issued -
                                              counters_before.prefetches_issued);
    const double wasted = static_cast<double>(after.prefetches_wasted -
                                              counters_before.prefetches_wasted);
    const double fired =
        static_cast<double>(after.hedges_fired - counters_before.hedges_fired);
    const double won =
        static_cast<double>(after.hedges_won - counters_before.hedges_won);
    layers.requests_per_visit = visits > 0.0 ? requests / visits : 0.0;
    layers.prefetch_useful_ratio = issued > 0.0 ? 1.0 - wasted / issued : 0.0;
    layers.hedges_per_op =
        transported_ops > 0 ? fired / static_cast<double>(transported_ops) : 0.0;
    layers.hedge_win_ratio = fired > 0.0 ? won / fired : 0.0;
    layers.peak_in_flight = static_cast<double>(after.peak_in_flight);
  }

  double attributed = 0.0;
  double op_ms = 0.0;
  for (const LayerSample& sample : layers.traced) {
    attributed += sample.AttributedMs();
    op_ms += sample.op_ms;
  }
  const double traced_ops = static_cast<double>(layers.traced.size());
  // The accounting identity: layer spans + core glue = traced op.
  detail.Int("traced_ops", static_cast<int64_t>(layers.traced.size()))
      .Num("plant_density_delay_ms", plant_ms)
      .Num("traced_op_mean_ms", traced_ops > 0.0 ? op_ms / traced_ops : 0.0)
      .Num("layer_spans_mean_ms",
           traced_ops > 0.0 ? attributed / traced_ops : 0.0)
      .Obj("layer_shares", LayerShares(layers.traced));
  if (plant_ms > 0.0) {
    // Planted-op median ÷ plain-op median, per layer time.
    JsonObject ratios;
    const std::vector<Metric> with = PerLayerMetrics(planted);
    const std::vector<Metric> without = PerLayerMetrics(layers);
    for (size_t i = 0; i < with.size(); ++i) {
      const std::string& name = with[i].name;
      if (name.size() > 9 && name.compare(name.size() - 9, 9, "ms_per_op") == 0 &&
          without[i].value > 0.0) {
        ratios.Num(name, with[i].value / without[i].value);
      }
    }
    detail.Obj("planted_vs_plain", ratios);
  }
  if (!args.spans_out.empty() &&
      !WriteSpans(args.spans_out, args.workload, args.seed, {&lane})) {
    std::fprintf(stderr, "could not write %s\n", args.spans_out.c_str());
    return 1;
  }
  return Finish(args, bench->threads, attempted, checks.failed_ops() * 2,
                checks, PerLayerMetrics(layers), detail);
}

}  // namespace

int RunExtractD2(const Args& args) { return RunExtraction(args, BuildD2); }
int RunExtractWide(const Args& args) { return RunExtraction(args, BuildWide); }
int RunChaosTransport(const Args& args) {
  return RunExtraction(args, BuildChaos);
}

}  // namespace perfbench
