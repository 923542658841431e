#include "serving/server.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/flight_recorder.h"
#include "serving/fingerprint.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace vastats {
namespace serving {
namespace {

// Request latency buckets in seconds: sub-millisecond cache hits up to
// multi-second cold extractions.
constexpr double kLatencyBuckets[] = {0.0005, 0.001, 0.0025, 0.005, 0.01,
                                      0.025,  0.05,  0.1,    0.25,  0.5,
                                      1.0,    2.5,   5.0,    10.0};

// Returns the scheduler slot on scope exit.
class SlotGuard {
 public:
  explicit SlotGuard(QueryScheduler& scheduler) : scheduler_(scheduler) {}
  ~SlotGuard() { scheduler_.Release(); }
  SlotGuard(const SlotGuard&) = delete;
  SlotGuard& operator=(const SlotGuard&) = delete;

 private:
  QueryScheduler& scheduler_;
};

}  // namespace

Result<std::unique_ptr<ExtractionServer>> ExtractionServer::Create(
    const SourceSet* sources, ServingOptions options) {
  if (sources == nullptr) {
    return Status::InvalidArgument("ExtractionServer requires a SourceSet");
  }
  // The serving layer owns the telemetry attachment: thread-safe sinks only
  // (the Trace's span tree is single-threaded), and the cacheable bandwidth
  // mode so a stored h can stand in for the per-extraction selector run.
  options.base.obs = ObsOptions{};
  options.base.obs.metrics = options.obs.metrics;
  options.base.obs.recorder = options.obs.recorder;
  options.base.kde_bandwidth_mode = BandwidthMode::kShared;
  VASTATS_RETURN_IF_ERROR(options.base.Validate());
  VASTATS_RETURN_IF_ERROR(options.scheduler.Validate());
  VASTATS_RETURN_IF_ERROR(options.caches.Validate());
  return std::unique_ptr<ExtractionServer>(
      new ExtractionServer(sources, std::move(options)));
}

ExtractionServer::ExtractionServer(const SourceSet* sources,
                                   ServingOptions options)
    : sources_(sources),
      options_(std::move(options)),
      caches_(sources->NumSources(), options_.caches),
      scheduler_(options_.scheduler, options_.obs),
      plan_cache_(options_.plan_cache != nullptr ? options_.plan_cache
                                                 : &DefaultDctPlanCache()) {
  // The batch path may share one recorded sampling pass across a group only
  // when an isolated run of each member would draw the plain (non-degraded,
  // fixed-size) keyed stream — the stream the recorded pass replays, at any
  // sampling width.
  groupable_sampling_ = !options_.base.adaptive.has_value() &&
                        !options_.base.fault_tolerance.has_value();
  if (options_.obs.recorder != nullptr) {
    answer_cache_name_id_ = options_.obs.recorder->InternName("answer_cache");
    bandwidth_cache_name_id_ =
        options_.obs.recorder->InternName("bandwidth_cache");
  }
}

Result<ExtractorOptions> ExtractionServer::DerivedOptions(
    const QueryRequest& request) const {
  ExtractorOptions derived = options_.base;  // normalized in Create()
  derived.seed =
      StreamKey(options_.base.seed, StreamTag::kRequest,
                ComponentSequenceFingerprint(request.query.components));
  if (request.deadline_virtual_ms > 0.0) {
    if (!derived.fault_tolerance.has_value()) {
      return Status::InvalidArgument(
          "request '" + request.query.name +
          "' carries a deadline but the server's base options have no "
          "fault_tolerance seam to enforce it");
    }
    double& session_ms = derived.fault_tolerance->retry.session_deadline_ms;
    session_ms = session_ms > 0.0
                     ? std::min(session_ms, request.deadline_virtual_ms)
                     : request.deadline_virtual_ms;
  }
  return derived;
}

uint64_t ExtractionServer::RequestFingerprint(
    const QueryRequest& request) const {
  return FoldDeadline(QueryFingerprint(request.query),
                      request.deadline_virtual_ms);
}

std::vector<int> ExtractionServer::SourceClosure(
    const AggregateQuery& query) const {
  std::vector<char> seen(static_cast<size_t>(sources_->NumSources()), 0);
  std::vector<int> closure;
  for (const ComponentId component : query.components) {
    for (const int s : sources_->Covering(component)) {
      if (s < 0 || static_cast<size_t>(s) >= seen.size()) continue;
      if (seen[static_cast<size_t>(s)]) continue;
      seen[static_cast<size_t>(s)] = 1;
      closure.push_back(s);
    }
  }
  std::sort(closure.begin(), closure.end());
  return closure;
}

void ExtractionServer::RecordCacheEvent(bool hit, uint32_t cache_name_id,
                                        uint64_t fingerprint) const {
  if (options_.obs.recorder == nullptr) return;
  options_.obs.recorder->Record(
      hit ? FlightEventKind::kCacheHit : FlightEventKind::kCacheMiss,
      cache_name_id, 0.0, fingerprint);
}

Result<AnswerStatistics> ExtractionServer::Extract(
    const QueryRequest& request) {
  const Stopwatch latency;
  options_.obs.GetCounter("serving_requests_total").Increment();
  VASTATS_RETURN_IF_ERROR(request.query.Validate());
  const uint64_t fingerprint = RequestFingerprint(request);
  const std::vector<int> closure = SourceClosure(request.query);
  VASTATS_RETURN_IF_ERROR(scheduler_.Admit(fingerprint));
  SlotGuard slot(scheduler_);
  Result<AnswerStatistics> result =
      ExtractAdmitted(request, fingerprint, closure);
  options_.obs.GetHistogram("serving_request_latency_seconds", kLatencyBuckets)
      .Observe(latency.ElapsedSeconds());
  return result;
}

void ExtractionServer::AttachCacheHooks(ExtractorOptions& derived,
                                        uint64_t fingerprint,
                                        std::span<const int> closure) {
  std::vector<int> owned_closure(closure.begin(), closure.end());
  derived.cache_hooks.plan_provider = [cache = plan_cache_] {
    return cache->ThreadLocalPlan();
  };
  derived.cache_hooks.bandwidth_lookup =
      [this, fingerprint, owned_closure]() -> std::optional<double> {
    std::optional<double> hit =
        caches_.LookupBandwidth(fingerprint, owned_closure);
    if (hit.has_value()) {
      options_.obs.GetCounter("serving_bandwidth_cache_hits_total").Increment();
    } else {
      options_.obs.GetCounter("serving_bandwidth_cache_misses_total")
          .Increment();
    }
    RecordCacheEvent(hit.has_value(), bandwidth_cache_name_id_, fingerprint);
    return hit;
  };
  derived.cache_hooks.bandwidth_store =
      [this, fingerprint,
       owned_closure = std::move(owned_closure)](double bandwidth) {
        caches_.StoreBandwidth(fingerprint, owned_closure, bandwidth);
      };
}

Result<AnswerStatistics> ExtractionServer::ExtractAdmitted(
    const QueryRequest& request, uint64_t fingerprint,
    std::span<const int> closure) {
  if (std::optional<AnswerStatistics> cached =
          caches_.LookupAnswer(fingerprint, closure)) {
    options_.obs.GetCounter("serving_answer_cache_hits_total").Increment();
    RecordCacheEvent(/*hit=*/true, answer_cache_name_id_, fingerprint);
    return *std::move(cached);
  }
  options_.obs.GetCounter("serving_answer_cache_misses_total").Increment();
  RecordCacheEvent(/*hit=*/false, answer_cache_name_id_, fingerprint);

  VASTATS_ASSIGN_OR_RETURN(ExtractorOptions derived, DerivedOptions(request));
  AttachCacheHooks(derived, fingerprint, closure);
  VASTATS_ASSIGN_OR_RETURN(
      const AnswerStatisticsExtractor extractor,
      AnswerStatisticsExtractor::Create(sources_, request.query,
                                        std::move(derived)));
  VASTATS_ASSIGN_OR_RETURN(AnswerStatistics statistics, extractor.Extract());
  if (request.deadline_virtual_ms > 0.0 &&
      statistics.degradation.access.deadline_truncated_draws > 0) {
    options_.obs.GetCounter("serving_deadline_expired_total").Increment();
    if (options_.obs.recorder != nullptr) {
      options_.obs.recorder->Record(FlightEventKind::kSchedulerDeadlineExpired,
                                    answer_cache_name_id_,
                                    request.deadline_virtual_ms, fingerprint);
    }
  }
  caches_.StoreAnswer(fingerprint, closure, statistics);
  return statistics;
}

std::vector<Result<AnswerStatistics>> ExtractionServer::ExtractBatch(
    std::span<const QueryRequest> requests) {
  std::vector<Result<AnswerStatistics>> results(
      requests.size(),
      Result<AnswerStatistics>(Status::Internal("request not processed")));
  if (requests.empty()) return results;
  options_.obs.GetCounter("serving_batch_requests_total")
      .Increment(static_cast<uint64_t>(requests.size()));

  // Group indices by component sequence. Grouping is deterministic (ordered
  // by fingerprint, members in request order), so the group layout — and
  // with it every member's sample stream — is a pure function of the batch.
  std::vector<std::vector<size_t>> groups;
  if (groupable_sampling_) {
    std::map<uint64_t, size_t> group_of;
    for (size_t i = 0; i < requests.size(); ++i) {
      // Deadline-carrying requests go to singleton groups: the shared pass
      // has no deadline seam, and an isolated run is the only faithful path.
      if (requests[i].deadline_virtual_ms > 0.0) {
        groups.push_back({i});
        continue;
      }
      const uint64_t component_fp =
          ComponentSequenceFingerprint(requests[i].query.components);
      const auto [it, inserted] = group_of.emplace(component_fp, groups.size());
      if (inserted) {
        groups.emplace_back();
      }
      groups[it->second].push_back(i);
    }
  } else {
    groups.reserve(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) groups.push_back({i});
  }
  options_.obs.GetCounter("serving_batch_groups_total")
      .Increment(static_cast<uint64_t>(groups.size()));

  ThreadPool* pool = options_.batch_pool != nullptr ? options_.batch_pool
                                                    : DefaultThreadPool();
  const Status dispatch = pool->ParallelFor(
      static_cast<int>(groups.size()),
      [&](int g) -> Status {
        ExtractGroup(requests, groups[static_cast<size_t>(g)], results);
        return Status::Ok();
      },
      nullptr);
  if (!dispatch.ok()) {
    // Group tasks never fail, so this only fires on pool-level trouble;
    // surface it in any slot a task did not reach.
    for (Result<AnswerStatistics>& slot : results) {
      if (!slot.ok() && slot.status().code() == StatusCode::kInternal) {
        slot = dispatch;
      }
    }
  }
  return results;
}

void ExtractionServer::ExtractGroup(
    std::span<const QueryRequest> requests, std::span<const size_t> members,
    std::vector<Result<AnswerStatistics>>& results) {
  const Stopwatch latency;
  Histogram latency_histogram = options_.obs.GetHistogram(
      "serving_request_latency_seconds", kLatencyBuckets);
  options_.obs.GetCounter("serving_requests_total")
      .Increment(static_cast<uint64_t>(members.size()));

  const uint64_t group_fingerprint =
      ComponentSequenceFingerprint(requests[members[0]].query.components);
  const Status admitted = scheduler_.Admit(group_fingerprint);
  if (!admitted.ok()) {
    for (const size_t index : members) results[index] = admitted;
    return;
  }
  SlotGuard slot(scheduler_);

  if (members.size() == 1) {
    const QueryRequest& request = requests[members[0]];
    const Status valid = request.query.Validate();
    if (!valid.ok()) {
      results[members[0]] = valid;
    } else {
      results[members[0]] = ExtractAdmitted(
          request, RequestFingerprint(request), SourceClosure(request.query));
    }
    latency_histogram.Observe(latency.ElapsedSeconds());
    return;
  }

  // Shared closure: every member has the identical component sequence.
  const std::vector<int> closure = SourceClosure(requests[members[0]].query);

  // Answer-cache pass; misses queue for the shared sampling pass, with
  // members repeating an already-pending fingerprint deduplicated onto it.
  struct PendingMember {
    size_t index = 0;
    uint64_t fingerprint = 0;
  };
  std::vector<PendingMember> pending;
  std::vector<std::pair<size_t, size_t>> duplicates;  // (index, pending slot)
  std::map<uint64_t, size_t> pending_slot_of;
  for (const size_t index : members) {
    const QueryRequest& request = requests[index];
    const Status valid = request.query.Validate();
    if (!valid.ok()) {
      results[index] = valid;
      continue;
    }
    const uint64_t fingerprint = RequestFingerprint(request);
    const auto slot_it = pending_slot_of.find(fingerprint);
    if (slot_it != pending_slot_of.end()) {
      duplicates.emplace_back(index, slot_it->second);
      continue;
    }
    if (std::optional<AnswerStatistics> cached =
            caches_.LookupAnswer(fingerprint, closure)) {
      options_.obs.GetCounter("serving_answer_cache_hits_total").Increment();
      RecordCacheEvent(/*hit=*/true, answer_cache_name_id_, fingerprint);
      results[index] = *std::move(cached);
      continue;
    }
    options_.obs.GetCounter("serving_answer_cache_misses_total").Increment();
    RecordCacheEvent(/*hit=*/false, answer_cache_name_id_, fingerprint);
    pending_slot_of.emplace(fingerprint, pending.size());
    pending.push_back(PendingMember{index, fingerprint});
  }

  if (!pending.empty()) {
    std::vector<const AggregateQuery*> queries;
    for (const PendingMember& member : pending) {
      queries.push_back(&requests[member.index].query);
    }
    Result<std::vector<std::vector<double>>> member_samples =
        SampleGroupOnce(requests[pending[0].index], queries);
    for (size_t p = 0; p < pending.size(); ++p) {
      if (!member_samples.ok()) {
        results[pending[p].index] = member_samples.status();
        continue;
      }
      results[pending[p].index] = ExtractGroupTail(
          requests[pending[p].index], pending[p].fingerprint, closure,
          std::move((*member_samples)[p]));
    }
  }

  for (const auto& [index, pending_slot] : duplicates) {
    results[index] = results[pending[pending_slot].index];
  }
  for (size_t i = 0; i < members.size(); ++i) {
    latency_histogram.Observe(latency.ElapsedSeconds());
  }
}

Result<std::vector<std::vector<double>>> ExtractionServer::SampleGroupOnce(
    const QueryRequest& leader,
    std::span<const AggregateQuery* const> queries) const {
  // Every member shares the leader's component sequence, hence its derived
  // seed and the keyed draw streams an isolated run of the member would
  // read; per-kind replay of each draw's recorded takes reproduces every
  // member's own sample values bit for bit (see UniSTake). The pass runs on
  // the isolated run's chunk driver at its width.
  VASTATS_ASSIGN_OR_RETURN(const ExtractorOptions leader_options,
                           DerivedOptions(leader));
  VASTATS_ASSIGN_OR_RETURN(
      const AnswerStatisticsExtractor leader_extractor,
      AnswerStatisticsExtractor::Create(sources_, leader.query,
                                        leader_options));
  const int draws = leader_options.initial_sample_size;
  std::vector<std::vector<double>> member_samples(
      queries.size(), std::vector<double>(static_cast<size_t>(draws)));
  const ParallelSampleOptions sampling = leader_extractor.SamplingOptions();
  const UniSSampler& sampler = leader_extractor.sampler();
  const auto chunk_fn = [&](int first_slot, std::span<double> out) -> Status {
    std::vector<UniSTake> takes;
    for (size_t i = 0; i < out.size(); ++i) {
      const size_t slot = static_cast<size_t>(first_slot) + i;
      Rng rng(StreamKey(sampling.seed, StreamTag::kUniSDraw, slot));
      VASTATS_ASSIGN_OR_RETURN(const UniSSample sample,
                               sampler.SampleOneRecorded(rng, takes));
      out[i] = sample.value;
      for (size_t q = 0; q < queries.size(); ++q) {
        VASTATS_ASSIGN_OR_RETURN(
            member_samples[q][slot],
            UniSSampler::ReplayTakes(takes, queries[q]->kind,
                                     queries[q]->quantile_q));
      }
    }
    return Status::Ok();
  };
  VASTATS_RETURN_IF_ERROR(
      ParallelChunkedSample(draws, sampling, chunk_fn).status());
  options_.obs.GetCounter("serving_shared_sampling_draws_saved_total")
      .Increment(static_cast<uint64_t>(draws) *
                 static_cast<uint64_t>(queries.size() - 1));
  return member_samples;
}

Result<AnswerStatistics> ExtractionServer::ExtractGroupTail(
    const QueryRequest& request, uint64_t fingerprint,
    std::span<const int> closure, std::vector<double> samples) {
  VASTATS_ASSIGN_OR_RETURN(ExtractorOptions derived, DerivedOptions(request));
  AttachCacheHooks(derived, fingerprint, closure);
  VASTATS_ASSIGN_OR_RETURN(
      const AnswerStatisticsExtractor extractor,
      AnswerStatisticsExtractor::Create(sources_, request.query,
                                        std::move(derived)));
  VASTATS_ASSIGN_OR_RETURN(AnswerStatistics statistics,
                           extractor.ExtractFromSamples(std::move(samples)));
  caches_.StoreAnswer(fingerprint, closure, statistics);
  return statistics;
}

}  // namespace serving
}  // namespace vastats
