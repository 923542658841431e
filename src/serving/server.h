// ExtractionServer — concurrent multi-query extraction over one SourceSet.
//
// The single-query pipeline (core/extractor.h) is a pure function of
// (sources, query, options, seed); this layer turns it into a multi-tenant
// service without giving that up:
//
//   * a QueryScheduler admission-controls concurrent submissions (bounded
//     in-flight, bounded queue, ResourceExhausted beyond);
//   * an ExtractionCaches instance shares whole AnswerStatistics and Botev
//     bandwidths across requests, keyed by (query fingerprint, source
//     epoch) and invalidated on monitor drift (wire it up with
//     `monitor.SetDriftListener(server.drift_listener())`);
//   * a DctPlanCache keeps per-thread FFT plans alive across requests;
//   * ExtractBatch groups requests over the same component sequence so one
//     pass of per-draw source visits (uniS take recording + per-kind
//     replay) feeds every extraction in the group.
//
// Determinism contract: a request's result is a pure function of the
// request, the server's base options, and the source epochs — bit-identical
// at any concurrency, any admission interleaving, and any cache hit/miss
// pattern. Per-query seeds are keyed by (base.seed, component-sequence
// fingerprint), so a batched group and an isolated run of any member read
// the identical keyed draw streams at any sampling width; DerivedOptions()
// exposes the exact derivation for benches and tests to replay against a
// standalone extractor. (Phase
// *timings* are wall-clock metadata and excluded from the contract, as
// everywhere else in the library.)
//
// Telemetry: requests/admissions/rejections/cache-traffic counters, the
// `serving_in_flight` gauge, a `serving_request_latency_seconds` histogram,
// and flight-recorder scheduler/cache events (obs/flight_recorder.h). The
// base options' Trace is ignored — the span tree is single-threaded by
// design and a server runs requests from many threads; per-query timelines
// come from the flight recorder instead.

#ifndef VASTATS_SERVING_SERVER_H_
#define VASTATS_SERVING_SERVER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/extractor.h"
#include "core/monitor.h"
#include "serving/caches.h"
#include "serving/scheduler.h"

namespace vastats {
namespace serving {

struct QueryRequest {
  AggregateQuery query;
  // Optional virtual-time budget for the sampling phase, in the same
  // simulated milliseconds as RetryPolicy.session_deadline_ms. Requires the
  // server's base options to carry fault_tolerance (the seam that owns the
  // virtual clock); requests with a deadline are rejected with
  // InvalidArgument otherwise. 0 = no per-request deadline. Deterministic:
  // the deadline is part of the request fingerprint, and equal requests
  // truncate at the same draw on every run.
  double deadline_virtual_ms = 0.0;
};

struct ServingOptions {
  // Base pipeline configuration shared by every query. The server forces
  // kde_bandwidth_mode = kShared (the cacheable mode: one selector run per
  // extraction, so a cached h can stand in for the whole run; see
  // ExtractionCacheHooks) — results remain bit-identical across cache
  // states. base.obs is ignored; attach sinks to `obs` below.
  ExtractorOptions base;
  SchedulerOptions scheduler;
  ExtractionCachesOptions caches;
  // Plan registry to share FFT tables through; null = DefaultDctPlanCache().
  DctPlanCache* plan_cache = nullptr;
  // Pool for the batch API's per-group fan-out; null = DefaultThreadPool().
  ThreadPool* batch_pool = nullptr;
  // Thread-safe sinks only: metrics + flight recorder (trace is ignored,
  // see the header comment).
  ObsOptions obs;
};

class ExtractionServer {
 public:
  // `sources` must outlive the server (as it must every extractor).
  static Result<std::unique_ptr<ExtractionServer>> Create(
      const SourceSet* sources, ServingOptions options);

  // Serves one query: admission, answer-cache lookup, extraction on miss.
  // Thread-safe; blocks while queued, returns ResourceExhausted when the
  // queue is full.
  Result<AnswerStatistics> Extract(const QueryRequest& request);

  // Serves a batch, grouping requests with identical component sequences so
  // each group pays one sampling pass (one admission slot per group).
  // Results align with `requests` by index; per-request failures land in
  // the corresponding slot without failing the rest of the batch.
  std::vector<Result<AnswerStatistics>> ExtractBatch(
      std::span<const QueryRequest> requests);

  // The exact per-request ExtractorOptions the server extracts with (seed
  // derivation, forced bandwidth mode, deadline mapping — minus the cache
  // hooks, which never change results). Exposed so benches and tests can
  // run the bit-identity comparison against an isolated extractor.
  Result<ExtractorOptions> DerivedOptions(const QueryRequest& request) const;

  // Cache-key helpers, exposed for tests.
  uint64_t RequestFingerprint(const QueryRequest& request) const;
  std::vector<int> SourceClosure(const AggregateQuery& query) const;

  // Invalidation entry points: hand `drift_listener()` to
  // ContinuousQueryMonitor::SetDriftListener, or call OnSourceDrift
  // directly when source churn is observed out-of-band.
  SourceDriftListener* drift_listener() { return &caches_; }
  void OnSourceDrift(int source) { caches_.OnSourceDrift(source); }

  ExtractionCacheStats CacheStats() const { return caches_.Stats(); }
  const QueryScheduler& scheduler() const { return scheduler_; }
  DctPlanCache& plan_cache() { return *plan_cache_; }
  const ServingOptions& options() const { return options_; }

 private:
  ExtractionServer(const SourceSet* sources, ServingOptions options);

  // Extraction with admission already granted; `fingerprint`/`closure` are
  // the request's cache identity.
  Result<AnswerStatistics> ExtractAdmitted(const QueryRequest& request,
                                           uint64_t fingerprint,
                                           std::span<const int> closure);
  // One batch group (indices into `requests` sharing a component
  // sequence): admission, shared sampling, per-member replay + tail.
  void ExtractGroup(std::span<const QueryRequest> requests,
                    std::span<const size_t> members,
                    std::vector<Result<AnswerStatistics>>& results);
  // The group's one recorded sampling pass: draws the leader's keyed
  // sample stream once and replays every draw for each of `queries` (the
  // pending members, all over the leader's component sequence). Returns
  // one sample vector per query.
  Result<std::vector<std::vector<double>>> SampleGroupOnce(
      const QueryRequest& leader,
      std::span<const AggregateQuery* const> queries) const;
  // Phases 2-7 for one group member over its replayed samples; their
  // keyed streams make the tail match an isolated run.
  Result<AnswerStatistics> ExtractGroupTail(const QueryRequest& request,
                                            uint64_t fingerprint,
                                            std::span<const int> closure,
                                            std::vector<double> samples);
  // Wires the plan/bandwidth cache hooks for one extraction identity.
  void AttachCacheHooks(ExtractorOptions& derived, uint64_t fingerprint,
                        std::span<const int> closure);
  void RecordCacheEvent(bool hit, uint32_t cache_name_id,
                        uint64_t fingerprint) const;

  const SourceSet* sources_;
  ServingOptions options_;
  ExtractionCaches caches_;
  QueryScheduler scheduler_;
  DctPlanCache* plan_cache_;
  // True when the batch path may share one recorded sampling pass across a
  // group: an isolated run must draw the plain fixed-size keyed stream.
  bool groupable_sampling_ = false;
  uint32_t answer_cache_name_id_ = 0;
  uint32_t bandwidth_cache_name_id_ = 0;
};

}  // namespace serving
}  // namespace vastats

#endif  // VASTATS_SERVING_SERVER_H_
