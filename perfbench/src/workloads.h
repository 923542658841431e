// The four perfbench workloads and the metric sets they report.
//
//   extract_d2       Algorithm 1 at the Table-2 defaults, serial, one client
//   extract_wide     |D|=400, |C|=4000, |S_uniS|=1600, kShared, pooled uniS
//   serve_zipf       ExtractionServer over the climate archive, 4 clients,
//                    Zipf(1.0) over 256 queries, ~2% drift notifications
//   chaos_transport  fault-tolerant extraction over the AF_UNIX transport
//
// Every workload runs closed-loop (each client waits for its reply), takes
// all of its inputs from --seed, checks every answer, and prints a report
// line followed by the result line.

#ifndef VASTATS_PERFBENCH_WORKLOADS_H_
#define VASTATS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "traced.h"

namespace perfbench {

// Each timed loop is cut into this many equal windows; every timing metric
// is computed per window and the median over windows is reported, so a
// burst of interference from outside the process moves one window, not the
// run's figure.
inline constexpr int kWindows = 4;

// An untraced run sets the workload up afresh this many times before every
// window and runs the window on the last set-up; setup_s reports the median
// of all kWindows * kSetupsPerWindow set-ups. Spreading them over the run
// samples the host's speed at several moments instead of at one.
inline constexpr int kSetupsPerWindow = 2;

// Seed of the warm-up ops inside set-up and of the calibration ops of the
// attribution self-test. It is fixed, not taken from --seed, so set-up does
// the same work on every seed.
inline constexpr uint64_t kWarmupSeed = 0x5e7b00c5ULL;

struct ThreadCounts {
  int clients = 1;
  int pool_workers = 0;
  int endpoint_threads = 0;
};

// One timed op of an untraced loop.
struct TimedOp {
  int64_t end_ns = 0;
  double ms = 0.0;
  bool answered = false;  // returned OK (its latency counts)
  bool ok = false;        // answered and passed every check
};

// One timed window: its bounds and the process CPU time at each.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double start_cpu_ms = 0.0;
  double end_cpu_ms = 0.0;
};

// What a timed, untraced loop measured (end-to-end metrics).
struct EndToEnd {
  std::vector<double> setup_s;      // one per set-up
  std::vector<TimedOp> ops;         // every attempted op
  std::vector<Window> windows;
  std::vector<double> coverage;     // AnswerCoverage per answer

  int64_t attempted() const { return static_cast<int64_t>(ops.size()); }
  int64_t ok() const;
  void BeginWindow();
  void EndWindow();
};

// Per-layer inputs gathered by a traced run. Metrics a workload does not
// exercise stay 0.
struct PerLayer {
  std::vector<LayerSample> traced;      // one per traced op
  std::vector<double> untraced_ms;      // paired untraced ops
  // Traced answers whose paper-literal CIO intervals cover < theta.
  int64_t cio_below_theta = 0;
  // serving
  double answer_hit_ratio = 0.0;
  double bandwidth_hit_ratio = 0.0;
  double invalidations_per_drift = 0.0;
  double evictions_per_op = 0.0;
  double rejected_frac = 0.0;
  double serving_self_ms = 0.0;
  double queue_wait_ms = 0.0;
  // transport (wait comes from the traced samples)
  double requests_per_visit = 0.0;
  double prefetch_useful_ratio = 0.0;
  double hedges_per_op = 0.0;
  double hedge_win_ratio = 0.0;
  double peak_in_flight = 0.0;
  // datagen (the SourceAccessor seam, from DegradationReports)
  std::vector<vastats::DegradationReport> reports;
};

std::vector<Metric> EndToEndMetrics(const EndToEnd& e2e);
// Sample counts behind the percentiles, for the report line.
JsonObject SampleCounts(const EndToEnd& e2e);
std::vector<Metric> PerLayerMetrics(const PerLayer& layers);
// Share of the traced op's time spent in each layer span, plus the glue
// between them.
JsonObject LayerShares(const std::vector<LayerSample>& traced);

// Prints the report line (host, threads, sample counts, extra detail) and
// the result line. Returns the process exit code: nonzero when any op
// failed or any check failed.
int Finish(const Args& args, const ThreadCounts& threads, int64_t attempted,
           int64_t failed, const CheckLog& checks,
           const std::vector<Metric>& metrics, JsonObject detail);

int RunExtractD2(const Args& args);
int RunExtractWide(const Args& args);
int RunChaosTransport(const Args& args);
int RunServeZipf(const Args& args);

}  // namespace perfbench

#endif  // VASTATS_PERFBENCH_WORKLOADS_H_
