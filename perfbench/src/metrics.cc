#include <algorithm>
#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace {

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double MedianOf(const std::vector<LayerSample>& samples,
                double (*pick)(const LayerSample&)) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const LayerSample& sample : samples) values.push_back(pick(sample));
  return samples.empty() ? 0.0 : Median(std::move(values));
}

template <int kSlot>
double SlotMs(const LayerSample& s) {
  return s.slot_ms[kSlot];
}

}  // namespace

int64_t EndToEnd::ok() const {
  int64_t count = 0;
  for (const TimedOp& op : ops) count += op.ok;
  return count;
}

void EndToEnd::BeginWindow() {
  Window& window = windows.emplace_back();
  window.start_ns = NowNs();
  window.start_cpu_ms = ProcessCpuMs();
}

void EndToEnd::EndWindow() {
  windows.back().end_ns = NowNs();
  windows.back().end_cpu_ms = ProcessCpuMs();
}

namespace {

struct WindowFigures {
  std::vector<double> p50, p90, throughput, cpu;
};

WindowFigures PerWindow(const EndToEnd& e2e) {
  WindowFigures figures;
  for (const Window& window : e2e.windows) {
    const int64_t from = window.start_ns;
    const int64_t to = window.end_ns;
    std::vector<double> latency;
    double ok = 0.0;
    for (const TimedOp& op : e2e.ops) {
      if (op.end_ns < from || op.end_ns > to) continue;
      if (op.answered) latency.push_back(op.ms);
      ok += op.ok;
    }
    if (latency.empty() || to <= from) continue;
    figures.p50.push_back(Quantile(latency, 0.5));
    figures.p90.push_back(Quantile(latency, 0.9));
    figures.throughput.push_back(ok / (MsBetween(from, to) * 1e-3));
    figures.cpu.push_back((window.end_cpu_ms - window.start_cpu_ms) /
                          static_cast<double>(latency.size()));
  }
  return figures;
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e) {
  const WindowFigures windows = PerWindow(e2e);
  return {
      {"latency_p50_ms", Median(windows.p50), "ms"},
      {"latency_p90_ms", Median(windows.p90), "ms"},
      {"throughput_ops_s", Median(windows.throughput), "1/s"},
      {"cpu_ms_per_op", Median(windows.cpu), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_frac", Ratio(static_cast<double>(e2e.ok()),
                        static_cast<double>(e2e.attempted())),
       "ratio"},
      {"answer_coverage", Mean(e2e.coverage), "ratio"},
      {"setup_s", Median(e2e.setup_s), "s"},
  };
}

JsonObject SampleCounts(const EndToEnd& e2e) {
  int64_t answered = 0;
  for (const TimedOp& op : e2e.ops) answered += op.answered;
  std::vector<double> per_window;
  for (const Window& window : e2e.windows) {
    double count = 0.0;
    for (const TimedOp& op : e2e.ops) {
      count += op.answered && op.end_ns >= window.start_ns &&
               op.end_ns <= window.end_ns;
    }
    per_window.push_back(count);
  }
  JsonObject counts;
  counts.Int("latency_samples", answered)
      .Int("windows", static_cast<int64_t>(per_window.size()))
      .Num("min_samples_per_window",
           per_window.empty() ? 0.0
                              : *std::min_element(per_window.begin(), per_window.end()))
      .Bool("p90_supported", answered >= 100)
      .Int("setup_repetitions", static_cast<int64_t>(e2e.setup_s.size()))
      .Num("setup_s_min", Quantile(e2e.setup_s, 0.0))
      .Num("setup_s_max", Quantile(e2e.setup_s, 1.0));
  return counts;
}

std::vector<Metric> PerLayerMetrics(const PerLayer& layers) {
  const std::vector<LayerSample>& traced = layers.traced;
  const double n = static_cast<double>(traced.size());
  double cpu = 0.0, probe_ms = 0.0, draws = 0.0, visits = 0.0, fits = 0.0,
         botev = 0.0;
  for (const LayerSample& s : traced) {
    cpu += s.probe_cpu_ms;
    probe_ms += s.probe_wall_ms;
    draws += static_cast<double>(s.draws);
    visits += static_cast<double>(s.visits);
    fits += static_cast<double>(s.kde_fits);
    botev += static_cast<double>(s.botev_iterations);
  }
  // On the transported workload the sampling layer's own time is the
  // simulated-seam draw; the rest of the transported draw is transport wait.
  const bool transported = !traced.empty() && traced[0].simulated_draw_ms > 0.0;
  const double sampling_ms =
      transported
          ? MedianOf(traced, [](const LayerSample& s) { return s.simulated_draw_ms; })
          : MedianOf(traced, SlotMs<kSamplingDraw>);
  const double wait_ms =
      transported ? MedianOf(traced,
                             [](const LayerSample& s) {
                               return s.slot_ms[kSamplingDraw] -
                                      s.simulated_draw_ms;
                             })
                  : 0.0;
  const double attributed =
      MedianOf(traced, [](const LayerSample& s) { return s.AttributedMs(); });
  const double untraced =
      layers.untraced_ms.empty() ? 0.0 : Median(layers.untraced_ms);
  const double traced_op =
      MedianOf(traced, [](const LayerSample& s) { return s.op_ms; });

  double retries = 0.0, seam_visits = 0.0, failed = 0.0, skips = 0.0,
         virtual_ms = 0.0;
  for (const vastats::DegradationReport& report : layers.reports) {
    retries += static_cast<double>(report.access.retries);
    seam_visits += static_cast<double>(report.access.visits);
    failed += static_cast<double>(report.access.failed_visits);
    skips += static_cast<double>(report.access.breaker_open_skips);
    virtual_ms += report.access.virtual_ms;
  }
  const double reports = static_cast<double>(layers.reports.size());

  return {
      {"sampling.ms_per_op", sampling_ms, "ms"},
      {"sampling.cpu_per_wall", Ratio(cpu, probe_ms), "ratio"},
      {"sampling.visits_per_draw", Ratio(visits, draws), "visits/draw"},
      {"sampling.weight_probe_ms_per_op", MedianOf(traced, SlotMs<kWeightProbe>),
       "ms"},
      {"stats.bootstrap_ms_per_op", MedianOf(traced, SlotMs<kBootstrap>), "ms"},
      {"stats.ci_ms_per_op", MedianOf(traced, SlotMs<kCi>), "ms"},
      {"density.kde_ms_per_op", MedianOf(traced, SlotMs<kKde>), "ms"},
      {"density.fits_per_op", Ratio(fits, n), "fits/op"},
      {"density.botev_iterations_per_op", Ratio(botev, n), "iters/op"},
      {"core.create_ms_per_op", MedianOf(traced, SlotMs<kCreate>), "ms"},
      {"core.cio_ms_per_op", MedianOf(traced, SlotMs<kCio>), "ms"},
      {"core.cio_below_theta_frac",
       Ratio(static_cast<double>(layers.cio_below_theta), n), "ratio"},
      {"core.stability_ms_per_op", MedianOf(traced, SlotMs<kStability>), "ms"},
      {"core.unattributed_ms_per_op", traced.empty() ? 0.0 : untraced - attributed,
       "ms"},
      {"serving.answer_hit_ratio", layers.answer_hit_ratio, "ratio"},
      {"serving.bandwidth_hit_ratio", layers.bandwidth_hit_ratio, "ratio"},
      {"serving.invalidations_per_drift", layers.invalidations_per_drift,
       "count"},
      {"serving.evictions_per_op", layers.evictions_per_op, "count"},
      {"serving.rejected_frac", layers.rejected_frac, "ratio"},
      {"serving.self_ms_per_op", layers.serving_self_ms, "ms"},
      {"serving.queue_wait_ms", layers.queue_wait_ms, "ms"},
      {"transport.wait_ms_per_op", wait_ms, "ms"},
      {"transport.requests_per_visit", layers.requests_per_visit, "ratio"},
      {"transport.prefetch_useful_ratio", layers.prefetch_useful_ratio, "ratio"},
      {"transport.hedges_per_op", layers.hedges_per_op, "hedges/op"},
      {"transport.hedge_win_ratio", layers.hedge_win_ratio, "ratio"},
      {"transport.peak_in_flight", layers.peak_in_flight, "count"},
      {"datagen.retries_per_visit", Ratio(retries, seam_visits), "ratio"},
      {"datagen.failed_visit_ratio", Ratio(failed, seam_visits), "ratio"},
      {"datagen.breaker_skips_per_op", Ratio(skips, reports), "skips/op"},
      {"datagen.virtual_ms_per_op", Ratio(virtual_ms, reports), "ms"},
      {"trace.overhead_ratio", untraced > 0.0 ? traced_op / untraced : 0.0,
       "ratio"},
  };
}

JsonObject LayerShares(const std::vector<LayerSample>& traced) {
  double op_ms = 0.0;
  double attributed = 0.0;
  for (const LayerSample& sample : traced) {
    op_ms += sample.op_ms;
    attributed += sample.AttributedMs();
  }
  JsonObject shares;
  for (int slot = 0; slot < kNumSlots; ++slot) {
    double sum = 0.0;
    for (const LayerSample& sample : traced) sum += sample.slot_ms[slot];
    shares.Num(kSlotNames[slot], Ratio(sum, op_ms));
  }
  shares.Num("core.glue", Ratio(op_ms - attributed, op_ms));
  return shares;
}

int Finish(const Args& args, const ThreadCounts& threads, int64_t attempted,
           int64_t failed, const CheckLog& checks,
           const std::vector<Metric>& metrics, JsonObject detail) {
  const bool correct = failed == 0 && checks.failures() == 0;
  JsonObject thread_block;
  thread_block.Int("clients", threads.clients)
      .Int("pool_workers", threads.pool_workers)
      .Int("endpoint_threads", threads.endpoint_threads);
  JsonObject report;
  report.Str("workload", args.workload)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Bool("trace", args.trace)
      .Num("seconds", args.seconds)
      .Obj("host", HostBlock())
      .Obj("threads", thread_block)
      .Int("check_failures", checks.failures())
      .Obj("detail", detail);
  std::printf("{\"report\": %s}\n", report.ToString().c_str());
  for (const Metric& metric : metrics) {
    std::fprintf(stderr, "  %-34s %16.6g %s\n", metric.name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
