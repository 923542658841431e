// Transport-pipelining baseline: one chaotic uniS run (96 draws over a
// 30-source redundant universe, modelled visit latency realized in wall
// time by the endpoint's service threads) driven five ways —
//
//   simulated            the inline fault seam (no transport, no wall
//                        latency) — the determinism reference;
//   sync                 transport with max_in_flight = 1: every visit
//                        waits out its own round-trip;
//   pipelined            max_in_flight = 8: prefetched requests overlap
//                        across the endpoint's service threads;
//   pipelined_stragglers the same pipeline with a 5% straggler tail
//                        (20x latency), hedging off;
//   hedged               the same tail with hedged duplicates past the
//                        p50-based cutoff.
//
// Latency is charged in virtual time (kModelVirtual), so all five runs
// must produce bit-identical samples, coverages, and AccessStats — any
// divergence exits non-zero. The binary prints each mode's wall time and
// transport counters, then the pipelined-vs-sync speedup (bound >= 2x) and
// the hedged-vs-straggler tail recovery (bound > 1x), and exits non-zero
// when one fails (ctest `bench_transport_check`, label `timing`).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "timing_checks.h"
#include "vastats/vastats.h"

namespace vastats::bench {
namespace {

constexpr int kNumSources = 30;
constexpr int kNumComponents = 60;
constexpr int kDraws = 96;

Result<SourceSet> BuildSources() {
  SyntheticSourceSetOptions options;
  options.num_sources = kNumSources;
  options.num_components = kNumComponents;
  options.min_copies = 3;
  options.max_copies = 5;
  options.seed = 7117;
  const auto d2 = MakeD2(7118);
  return BuildSyntheticSourceSet(*d2, options);
}

// Modelled per-visit latency around 3-4 virtual ms with mild jitter and a
// dash of transient failures so retries flow through the wire too.
FaultModelOptions ModelOptions() {
  FaultModelOptions options;
  options.transient_failure_prob = 0.05;
  options.latency_base_ms = 3.0;
  options.latency_per_component_ms = 0.05;
  options.latency_jitter_sigma = 0.3;
  options.seed = 90210;
  return options;
}

struct Mode {
  const char* name;
  // Null = the inline simulated seam.
  const transport::TransportOptions* transport;
};

struct ModeResult {
  std::string name;
  double seconds = 0.0;
  FaultAwareSampleResult result;
  transport::TransportCounters counters;
};

bool SameRun(const FaultAwareSampleResult& a, const FaultAwareSampleResult& b) {
  if (a.values != b.values || a.coverages != b.coverages ||
      a.dropped_draws != b.dropped_draws) {
    return false;
  }
  const AccessStats& x = a.access;
  const AccessStats& y = b.access;
  return x.visits == y.visits && x.attempts == y.attempts &&
         x.retries == y.retries &&
         x.transient_failures == y.transient_failures &&
         x.failed_visits == y.failed_visits &&
         x.virtual_ms == y.virtual_ms &&
         x.breaker_severity == y.breaker_severity;
}

Result<ModeResult> RunMode(const Mode& mode, const SourceSet& sources,
                           const UniSSampler& sampler,
                           const FaultModel& model) {
  ModeResult out;
  out.name = mode.name;
  std::unique_ptr<transport::AsyncSourceTransport> async;
  if (mode.transport != nullptr) {
    VASTATS_ASSIGN_OR_RETURN(
        async,
        transport::AsyncSourceTransport::Create(sources, &model,
                                                *mode.transport));
  }
  VASTATS_ASSIGN_OR_RETURN(
      const SourceAccessor accessor,
      SourceAccessor::Create(sources.NumSources(), &model, RetryPolicy{}));
  ParallelSampleOptions options;
  options.seed = 0xbe9c4;
  options.chunk_draws = 32;
  options.num_threads = 1;
  if (async != nullptr) {
    transport::AsyncSourceTransport* raw = async.get();
    options.transport_factory = [raw]() -> std::unique_ptr<VisitTransport> {
      auto channel = raw->OpenChannel();
      return channel.ok() ? std::move(channel).value() : nullptr;
    };
  }
  Stopwatch stopwatch;
  VASTATS_ASSIGN_OR_RETURN(
      out.result,
      ParallelUniSSampleWithFaults(sampler, kDraws, accessor, 0.3, options));
  out.seconds = stopwatch.ElapsedSeconds();
  if (async != nullptr) out.counters = async->counters();
  return out;
}

int RunTransportChecks() {
  auto sources = BuildSources();
  if (!sources.ok()) {
    std::fprintf(stderr, "%s\n", sources.status().ToString().c_str());
    return 1;
  }
  auto model = FaultModel::Create(kNumSources, ModelOptions());
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  auto sampler = UniSSampler::Create(
      &*sources,
      MakeRangeQuery("transport", AggregateKind::kAverage, 0, kNumComponents));
  if (!sampler.ok()) {
    std::fprintf(stderr, "%s\n", sampler.status().ToString().c_str());
    return 1;
  }

  // 0.2 wall ms per virtual ms compresses the modelled ~3.5ms visit to
  // ~0.7ms of real sleep: large against the wire cost, small enough that
  // the serialized mode stays around a second.
  transport::TransportOptions sync;
  sync.endpoint.service_threads = 6;
  sync.endpoint.wall_ms_per_virtual_ms = 0.2;
  sync.max_in_flight = 1;

  transport::TransportOptions pipelined = sync;
  pipelined.max_in_flight = 8;

  transport::TransportOptions stragglers = pipelined;
  stragglers.endpoint.straggler_fraction = 0.05;
  stragglers.endpoint.straggler_multiplier = 20.0;

  transport::TransportOptions hedged = stragglers;
  hedged.hedge.enabled = true;
  hedged.hedge.percentile = 0.5;
  hedged.hedge.multiplier = 2.0;
  hedged.hedge.min_samples = 8;
  hedged.hedge.min_cutoff_ms = 1.0;

  const Mode modes[] = {
      {"simulated", nullptr},
      {"sync", &sync},
      {"pipelined", &pipelined},
      {"pipelined_stragglers", &stragglers},
      {"hedged", &hedged},
  };
  std::vector<ModeResult> results;
  for (const Mode& mode : modes) {
    auto run = RunMode(mode, *sources, *sampler, *model);
    if (!run.ok()) {
      std::fprintf(stderr, "%s: %s\n", mode.name,
                   run.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(run).value());
  }

  bool identical = true;
  for (size_t i = 1; i < results.size(); ++i) {
    if (!SameRun(results[i].result, results[0].result)) {
      std::fprintf(stderr, "%s diverged from the simulated run\n",
                   results[i].name.c_str());
      identical = false;
    }
  }
  if (!identical) return 1;

  std::printf("%d draws over %d sources x %d components, %d visits\n",
              kDraws, kNumSources, kNumComponents,
              static_cast<int>(results[0].result.access.visits));
  std::printf("%-34s %12s %10s %8s %12s\n", "mode", "seconds", "hedges",
              "won", "peak_flight");
  for (const ModeResult& result : results) {
    std::printf("%-34s %12.6f %10llu %8llu %12llu\n", result.name.c_str(),
                result.seconds,
                static_cast<unsigned long long>(result.counters.hedges_fired),
                static_cast<unsigned long long>(result.counters.hedges_won),
                static_cast<unsigned long long>(
                    result.counters.peak_in_flight));
  }
  const double sync_seconds = results[1].seconds;
  const double pipelined_seconds = results[2].seconds;
  const double straggler_seconds = results[3].seconds;
  const double hedged_seconds = results[4].seconds;
  return ReportChecks({
      {"pipelined/sync visit throughput", sync_seconds / pipelined_seconds,
       Bound::kAtLeast, 2.0},
      {"hedged/stragglers throughput", straggler_seconds / hedged_seconds,
       Bound::kAbove, 1.0},
  });
}

}  // namespace
}  // namespace vastats::bench

int main() { return vastats::bench::RunTransportChecks(); }
