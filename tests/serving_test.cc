// Serving-layer tests: fingerprints, shared caches + closure-exact drift
// invalidation, scheduler admission control, and the ExtractionServer's
// bit-identity contract across concurrency and cache states.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "core/monitor.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serving/caches.h"
#include "serving/fingerprint.h"
#include "serving/scheduler.h"
#include "serving/server.h"
#include "test_util.h"

namespace vastats {
namespace {

using serving::DctPlanCache;
using serving::ExtractionCaches;
using serving::ExtractionCacheStats;
using serving::ExtractionServer;
using serving::QueryRequest;
using serving::QueryScheduler;
using serving::SchedulerOptions;
using serving::ServingOptions;

// Fast pipeline options for serving tests: small sample/bootstrap/grid so a
// full extraction runs in milliseconds while exercising every phase.
ExtractorOptions FastOptions() {
  ExtractorOptions options;
  options.initial_sample_size = 60;
  options.bootstrap.num_sets = 12;
  options.kde.grid_size = 256;
  options.weight_probes = 8;
  options.seed = 0x5e471ce;
  return options;
}

AggregateQuery MakeQuery(std::string name, AggregateKind kind,
                         std::vector<ComponentId> components,
                         double quantile_q = 0.5) {
  AggregateQuery query;
  query.name = std::move(name);
  query.kind = kind;
  query.components = std::move(components);
  query.quantile_q = quantile_q;
  return query;
}

uint64_t CounterValue(const MetricsSnapshot& snapshot, std::string_view name) {
  const CounterSample* sample = snapshot.FindCounter(name);
  return sample == nullptr ? 0 : sample->value;
}

// Bitwise equality over every result field the determinism contract covers
// (timings are wall-clock metadata and excluded).
void ExpectBitIdentical(const AnswerStatistics& a, const AnswerStatistics& b) {
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i], b.samples[i]) << "sample " << i;
  }
  EXPECT_EQ(a.mean.value, b.mean.value);
  EXPECT_EQ(a.mean.ci.lo, b.mean.ci.lo);
  EXPECT_EQ(a.mean.ci.hi, b.mean.ci.hi);
  EXPECT_EQ(a.variance.value, b.variance.value);
  EXPECT_EQ(a.std_dev.value, b.std_dev.value);
  EXPECT_EQ(a.skewness.value, b.skewness.value);
  ASSERT_EQ(a.density.size(), b.density.size());
  EXPECT_EQ(a.density.x_min(), b.density.x_min());
  EXPECT_EQ(a.density.x_max(), b.density.x_max());
  for (size_t i = 0; i < a.density.size(); ++i) {
    EXPECT_EQ(a.density.values()[i], b.density.values()[i]) << "grid " << i;
  }
  ASSERT_EQ(a.coverage.intervals.size(), b.coverage.intervals.size());
  EXPECT_EQ(a.coverage.total_coverage, b.coverage.total_coverage);
  EXPECT_EQ(a.coverage.total_length_fraction, b.coverage.total_length_fraction);
  EXPECT_EQ(a.stability.stab_l2, b.stability.stab_l2);
  EXPECT_EQ(a.stability.stab_bh, b.stability.stab_bh);
  EXPECT_EQ(a.stability.psi, b.stability.psi);
  EXPECT_EQ(a.answer_weight_y, b.answer_weight_y);
}

// Isolated ground truth: a standalone extractor run with the server's own
// derived options (no server, no caches, no scheduler).
AnswerStatistics IsolatedRun(const ExtractionServer& server,
                             const SourceSet& sources,
                             const QueryRequest& request) {
  Result<ExtractorOptions> derived = server.DerivedOptions(request);
  EXPECT_TRUE(derived.ok()) << derived.status().message();
  Result<AnswerStatisticsExtractor> extractor =
      AnswerStatisticsExtractor::Create(&sources, request.query, *derived);
  EXPECT_TRUE(extractor.ok()) << extractor.status().message();
  Result<AnswerStatistics> statistics = extractor->Extract();
  EXPECT_TRUE(statistics.ok()) << statistics.status().message();
  return *statistics;
}

// --- fingerprints ----------------------------------------------------------

TEST(ServingFingerprintTest, DistinguishesWhatMattersIgnoresNames) {
  const AggregateQuery sum = MakeQuery("a", AggregateKind::kSum, {1, 2, 3});
  AggregateQuery renamed = sum;
  renamed.name = "completely different label";
  EXPECT_EQ(serving::QueryFingerprint(sum), serving::QueryFingerprint(renamed));

  AggregateQuery avg = sum;
  avg.kind = AggregateKind::kAverage;
  EXPECT_NE(serving::QueryFingerprint(sum), serving::QueryFingerprint(avg));

  AggregateQuery fewer = sum;
  fewer.components = {1, 2};
  EXPECT_NE(serving::QueryFingerprint(sum), serving::QueryFingerprint(fewer));
}

TEST(ServingFingerprintTest, ComponentSequenceIsOrderSensitive) {
  // Take positions index the component order, so a permuted sequence is a
  // different sampling stream — and must be a different fingerprint.
  EXPECT_NE(serving::ComponentSequenceFingerprint({{1, 2, 3}}),
            serving::ComponentSequenceFingerprint({{3, 2, 1}}));
  EXPECT_EQ(serving::ComponentSequenceFingerprint({{1, 2, 3}}),
            serving::ComponentSequenceFingerprint({{1, 2, 3}}));
}

TEST(ServingFingerprintTest, DeadlineFoldsOnlyWhenSet) {
  const uint64_t base = 0x1234abcdULL;
  EXPECT_EQ(serving::FoldDeadline(base, 0.0), base);
  EXPECT_EQ(serving::FoldDeadline(base, -5.0), base);
  EXPECT_NE(serving::FoldDeadline(base, 10.0), base);
  EXPECT_NE(serving::FoldDeadline(base, 10.0),
            serving::FoldDeadline(base, 20.0));
}

// --- caches ----------------------------------------------------------------

TEST(ServingCachesTest, DriftInvalidatesExactlyTheTouchedClosures) {
  ExtractionCaches caches(/*num_sources=*/4);
  const std::vector<int> closure_a = {2, 3};
  const std::vector<int> closure_b = {1};
  caches.StoreBandwidth(/*fingerprint=*/11, closure_a, 0.5);
  caches.StoreBandwidth(/*fingerprint=*/22, closure_b, 0.7);

  // Drift on source 3: closure {2,3} contains it, closure {1} does not.
  caches.OnSourceDrift(3);
  EXPECT_FALSE(caches.LookupBandwidth(11, closure_a).has_value());
  const std::optional<double> survivor = caches.LookupBandwidth(22, closure_b);
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(*survivor, 0.7);

  const ExtractionCacheStats stats = caches.Stats();
  EXPECT_EQ(stats.bandwidth_invalidations, 1u);
  EXPECT_EQ(stats.bandwidth_entries, 1u);
  EXPECT_EQ(caches.SourceEpoch(3), 1u);
  EXPECT_EQ(caches.SourceEpoch(1), 0u);
}

TEST(ServingCachesTest, StaleStampNeverServesAPreDriftValue) {
  // Even if an entry somehow survived active eviction, a lookup whose
  // closure stamp moved must miss. Store, bump an epoch, then look up: the
  // belt-and-braces path drops the entry.
  ExtractionCaches caches(/*num_sources=*/2);
  const std::vector<int> closure = {0, 1};
  caches.StoreBandwidth(7, closure, 1.25);
  ASSERT_TRUE(caches.LookupBandwidth(7, closure).has_value());
  caches.OnSourceDrift(0);
  EXPECT_FALSE(caches.LookupBandwidth(7, closure).has_value());
}

TEST(ServingCachesTest, LruEvictsBeyondCapacity) {
  serving::ExtractionCachesOptions options;
  options.bandwidth_capacity = 2;
  ExtractionCaches caches(/*num_sources=*/1, options);
  const std::vector<int> closure = {0};
  caches.StoreBandwidth(1, closure, 0.1);
  caches.StoreBandwidth(2, closure, 0.2);
  // Touch 1 so 2 is the LRU victim.
  ASSERT_TRUE(caches.LookupBandwidth(1, closure).has_value());
  caches.StoreBandwidth(3, closure, 0.3);
  EXPECT_TRUE(caches.LookupBandwidth(1, closure).has_value());
  EXPECT_FALSE(caches.LookupBandwidth(2, closure).has_value());
  EXPECT_TRUE(caches.LookupBandwidth(3, closure).has_value());
  EXPECT_EQ(caches.Stats().bandwidth_evictions, 1u);
}

TEST(ServingCachesTest, PlanCacheHandsOneThreadOnePlan) {
  DctPlanCache cache(/*tables_per_thread=*/4);
  DctPlan* plan = cache.ThreadLocalPlan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan, cache.ThreadLocalPlan());  // stable per thread
  EXPECT_EQ(plan->max_tables(), 4u);
  EXPECT_EQ(cache.NumPlans(), 1u);

  DctPlan* other_thread_plan = nullptr;
  std::thread worker(
      [&] { other_thread_plan = cache.ThreadLocalPlan(); });
  worker.join();
  EXPECT_NE(other_thread_plan, nullptr);
  EXPECT_NE(other_thread_plan, plan);
  EXPECT_EQ(cache.NumPlans(), 2u);

  // A second registry never aliases the first thread's plan.
  DctPlanCache second;
  EXPECT_NE(second.ThreadLocalPlan(), plan);
}

// --- scheduler -------------------------------------------------------------

TEST(ServingSchedulerTest, RejectsBeyondQueueDepth) {
  SchedulerOptions options;
  options.max_in_flight = 1;
  options.max_queue_depth = 0;
  MetricsRegistry metrics;
  ObsOptions obs;
  obs.metrics = &metrics;
  QueryScheduler scheduler(options, obs);

  ASSERT_TRUE(scheduler.Admit(0x1).ok());
  EXPECT_EQ(scheduler.InFlight(), 1);
  const Status rejected = scheduler.Admit(0x2);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);

  scheduler.Release();
  EXPECT_EQ(scheduler.InFlight(), 0);
  EXPECT_TRUE(scheduler.Admit(0x3).ok());
  scheduler.Release();

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "serving_admitted_total"), 2u);
  EXPECT_EQ(CounterValue(snapshot, "serving_rejected_total"), 1u);
}

TEST(ServingSchedulerTest, QueuedWaiterAdmitsWhenSlotFrees) {
  SchedulerOptions options;
  options.max_in_flight = 1;
  options.max_queue_depth = 1;
  QueryScheduler scheduler(options);
  ASSERT_TRUE(scheduler.Admit(0x1).ok());

  Status waiter_status = Status::Internal("not run");
  std::thread waiter([&] { waiter_status = scheduler.Admit(0x2); });
  // Wait until the waiter is queued, then free the slot.
  while (scheduler.Waiting() == 0) std::this_thread::yield();
  scheduler.Release();
  waiter.join();
  EXPECT_TRUE(waiter_status.ok());
  EXPECT_EQ(scheduler.InFlight(), 1);
  scheduler.Release();
}

TEST(ServingSchedulerTest, ValidatesOptions) {
  SchedulerOptions bad;
  bad.max_in_flight = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad.max_in_flight = 2;
  bad.max_queue_depth = -1;
  EXPECT_FALSE(bad.Validate().ok());
}

// --- server ----------------------------------------------------------------

class ServingServerTest : public ::testing::Test {
 protected:
  ServingServerTest() : sources_(testing::MakeFigure1Sources()) {}

  std::unique_ptr<ExtractionServer> MakeServer(ServingOptions options = {}) {
    if (options.base.initial_sample_size ==
        ExtractorOptions().initial_sample_size) {
      options.base = FastOptions();
    }
    Result<std::unique_ptr<ExtractionServer>> server =
        ExtractionServer::Create(&sources_, std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().message();
    return std::move(server.value());
  }

  SourceSet sources_;
};

TEST_F(ServingServerTest, ColdWarmAndPostInvalidationAreBitIdentical) {
  std::unique_ptr<ExtractionServer> server = MakeServer();
  QueryRequest request;
  request.query = MakeQuery("q", AggregateKind::kSum, {1, 2, 3});

  const AnswerStatistics isolated = IsolatedRun(*server, sources_, request);

  Result<AnswerStatistics> cold = server->Extract(request);
  ASSERT_TRUE(cold.ok()) << cold.status().message();
  ExpectBitIdentical(*cold, isolated);
  EXPECT_EQ(server->CacheStats().answer_misses, 1u);

  Result<AnswerStatistics> warm = server->Extract(request);
  ASSERT_TRUE(warm.ok());
  ExpectBitIdentical(*warm, isolated);
  EXPECT_EQ(server->CacheStats().answer_hits, 1u);

  // Invalidate a source in the query's closure; the re-extraction is a cold
  // run again and must reproduce the isolated result bit for bit.
  const std::vector<int> closure = server->SourceClosure(request.query);
  ASSERT_FALSE(closure.empty());
  server->OnSourceDrift(closure.front());
  Result<AnswerStatistics> recomputed = server->Extract(request);
  ASSERT_TRUE(recomputed.ok());
  ExpectBitIdentical(*recomputed, isolated);
  EXPECT_GE(server->CacheStats().answer_invalidations, 1u);
  EXPECT_EQ(server->CacheStats().answer_misses, 2u);
}

TEST_F(ServingServerTest, DriftOnDisjointClosureKeepsAnswersCached) {
  std::unique_ptr<ExtractionServer> server = MakeServer();
  QueryRequest narrow;
  narrow.query = MakeQuery("narrow", AggregateKind::kSum, {5});  // D2 only
  ASSERT_TRUE(server->Extract(narrow).ok());

  // Component 3 is served by D3/D4; source index 3 (D4) is outside the
  // narrow query's closure.
  const std::vector<int> narrow_closure = server->SourceClosure(narrow.query);
  ASSERT_EQ(narrow_closure, std::vector<int>{1});
  server->OnSourceDrift(3);

  ASSERT_TRUE(server->Extract(narrow).ok());
  EXPECT_EQ(server->CacheStats().answer_hits, 1u);
  EXPECT_EQ(server->CacheStats().answer_invalidations, 0u);
}

TEST_F(ServingServerTest, ConcurrentMixedTrafficStaysBitIdentical) {
  // 16 concurrent submissions over 4 distinct queries at max_in_flight 4:
  // every result must equal the isolated single-query run regardless of
  // admission interleaving or who warmed the cache.
  ServingOptions options;
  options.scheduler.max_in_flight = 4;
  options.scheduler.max_queue_depth = 16;
  std::unique_ptr<ExtractionServer> server = MakeServer(std::move(options));

  std::vector<QueryRequest> distinct;
  for (const AggregateKind kind :
       {AggregateKind::kSum, AggregateKind::kAverage, AggregateKind::kMax,
        AggregateKind::kCount}) {
    QueryRequest request;
    request.query = MakeQuery("q", kind, {1, 2, 3});
    distinct.push_back(std::move(request));
  }
  std::vector<AnswerStatistics> expected;
  for (const QueryRequest& request : distinct) {
    expected.push_back(IsolatedRun(*server, sources_, request));
  }

  constexpr int kThreads = 16;
  std::vector<Result<AnswerStatistics>> got(
      kThreads, Result<AnswerStatistics>(Status::Internal("not run")));
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[static_cast<size_t>(t)] =
            server->Extract(distinct[static_cast<size_t>(t) % distinct.size()]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(got[static_cast<size_t>(t)].ok())
        << got[static_cast<size_t>(t)].status().message();
    ExpectBitIdentical(*got[static_cast<size_t>(t)],
                       expected[static_cast<size_t>(t) % expected.size()]);
  }
  // Every request either hit or missed; at least one miss per distinct
  // query. The exact split is racy — duplicates admitted before their twin
  // completes miss too — so no upper bound on misses is asserted.
  const ExtractionCacheStats stats = server->CacheStats();
  EXPECT_EQ(stats.answer_hits + stats.answer_misses,
            static_cast<uint64_t>(kThreads));
  EXPECT_GE(stats.answer_misses, static_cast<uint64_t>(distinct.size()));

  // A second pass over fully-warm caches is all hits, deterministically.
  for (int t = 0; t < kThreads; ++t) {
    const Result<AnswerStatistics> warm =
        server->Extract(distinct[static_cast<size_t>(t) % distinct.size()]);
    ASSERT_TRUE(warm.ok()) << warm.status().message();
    ExpectBitIdentical(*warm, expected[static_cast<size_t>(t) % expected.size()]);
  }
  EXPECT_EQ(server->CacheStats().answer_hits,
            stats.answer_hits + static_cast<uint64_t>(kThreads));
}

TEST_F(ServingServerTest, MixedTrafficAdmitsAllHitsWarmAndGroupsTheBatch) {
  // The traffic of bench/serving: five distinct queries, three of them on
  // one component sequence, cycled over 16 request slots at 400 draws.
  constexpr int kRequests = 16;
  constexpr int kDraws = 400;
  std::vector<QueryRequest> requests(kRequests);
  const std::vector<AggregateQuery> distinct = {
      MakeQuery("q1-sum", AggregateKind::kSum, {1, 2, 3}),
      MakeQuery("q2-avg", AggregateKind::kAverage, {1, 2, 3}),
      MakeQuery("q3-max", AggregateKind::kMax, {1, 2, 3}),
      MakeQuery("q4-sum", AggregateKind::kSum, {3, 4}),
      MakeQuery("q5-var", AggregateKind::kVariance, {2, 3, 4})};
  for (int i = 0; i < kRequests; ++i) {
    requests[static_cast<size_t>(i)].query = distinct[i % distinct.size()];
  }
  const auto make_server = [&](MetricsRegistry* metrics) {
    ServingOptions options;  // default scheduler: 4 slots + 16 queued
    options.base = FastOptions();
    options.base.initial_sample_size = kDraws;
    options.obs.metrics = metrics;
    Result<std::unique_ptr<ExtractionServer>> server =
        ExtractionServer::Create(&sources_, std::move(options));
    EXPECT_TRUE(server.ok()) << server.status().message();
    return std::move(server.value());
  };
  const auto serve_concurrently = [&](ExtractionServer& server) {
    std::vector<std::thread> threads;
    for (const QueryRequest& request : requests) {
      threads.emplace_back([&server, &request] {
        EXPECT_TRUE(server.Extract(request).ok());
      });
    }
    for (std::thread& thread : threads) thread.join();
  };

  MetricsRegistry metrics;
  std::unique_ptr<ExtractionServer> server = make_server(&metrics);
  serve_concurrently(*server);
  const uint64_t hits_after_cold =
      CounterValue(metrics.Snapshot(), "serving_answer_cache_hits_total");
  serve_concurrently(*server);
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "serving_requests_total"), 32u);
  EXPECT_EQ(CounterValue(snapshot, "serving_admitted_total"), 32u);
  EXPECT_EQ(CounterValue(snapshot, "serving_rejected_total"), 0u);
  // Once the cold pass completes every entry exists, so all 16 warm
  // requests hit; the cold pass's own hit/miss split is racy.
  EXPECT_EQ(CounterValue(snapshot, "serving_answer_cache_hits_total") -
                hits_after_cold,
            16u);
  const HistogramSample* latency =
      snapshot.FindHistogram("serving_request_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, 32u);
  EXPECT_GT(latency->EstimateQuantile(0.5), 0.0);
  EXPECT_GT(latency->EstimateQuantile(0.99), 0.0);

  // On a cold server the batch forms one group per component sequence; the
  // shared group replays one 400-draw pass for its 3 members.
  MetricsRegistry batch_metrics;
  std::unique_ptr<ExtractionServer> batch_server =
      make_server(&batch_metrics);
  for (const Result<AnswerStatistics>& result :
       batch_server->ExtractBatch(requests)) {
    EXPECT_TRUE(result.ok()) << result.status().message();
  }
  const MetricsSnapshot batch_snapshot = batch_metrics.Snapshot();
  EXPECT_EQ(CounterValue(batch_snapshot, "serving_requests_total"), 16u);
  EXPECT_EQ(CounterValue(batch_snapshot, "serving_batch_groups_total"), 3u);
  EXPECT_EQ(CounterValue(batch_snapshot,
                         "serving_shared_sampling_draws_saved_total"),
            800u);
}

TEST_F(ServingServerTest, BatchSharesOneSamplingPassBitIdentically) {
  std::unique_ptr<ExtractionServer> server = MakeServer();

  // Same component sequence, different kinds: one group, one sampling pass.
  std::vector<QueryRequest> batch;
  for (const AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAverage,
                                   AggregateKind::kMax}) {
    QueryRequest request;
    request.query = MakeQuery("grouped", kind, {1, 2, 3});
    batch.push_back(std::move(request));
  }
  // Plus a singleton group over a different sequence.
  QueryRequest lone;
  lone.query = MakeQuery("lone", AggregateKind::kSum, {3, 4});
  batch.push_back(lone);

  std::vector<AnswerStatistics> expected;
  for (const QueryRequest& request : batch) {
    expected.push_back(IsolatedRun(*server, sources_, request));
  }

  const std::vector<Result<AnswerStatistics>> got =
      server->ExtractBatch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << got[i].status().message();
    ExpectBitIdentical(*got[i], expected[i]);
  }
}

TEST_F(ServingServerTest, BatchSharesOnePassAtWidthFourWithAPool) {
  // Every width draws the same keyed stream, so a parallel base still
  // batches: one recorded pass on the pool feeds every member.
  ThreadPool pool(ThreadPoolOptions{.num_threads = 4});
  MetricsRegistry metrics;
  ServingOptions options;
  options.base = FastOptions();
  options.base.sampling_threads = 4;
  options.base.pool = &pool;
  options.obs.metrics = &metrics;
  std::unique_ptr<ExtractionServer> server = MakeServer(std::move(options));

  std::vector<QueryRequest> batch;
  for (const AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAverage,
                                   AggregateKind::kMax}) {
    QueryRequest request;
    request.query = MakeQuery("wide", kind, {1, 2, 3, 4});
    batch.push_back(std::move(request));
  }
  std::vector<AnswerStatistics> expected;
  for (const QueryRequest& request : batch) {
    expected.push_back(IsolatedRun(*server, sources_, request));
  }

  const std::vector<Result<AnswerStatistics>> got =
      server->ExtractBatch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok()) << got[i].status().message();
    ExpectBitIdentical(*got[i], expected[i]);
  }
  EXPECT_GT(CounterValue(metrics.Snapshot(),
                         "serving_shared_sampling_draws_saved_total"),
            0u);
}

TEST_F(ServingServerTest, BatchDeduplicatesIdenticalRequests) {
  std::unique_ptr<ExtractionServer> server = MakeServer();
  QueryRequest request;
  request.query = MakeQuery("dup", AggregateKind::kAverage, {1, 2});
  const std::vector<QueryRequest> batch = {request, request, request};
  const AnswerStatistics expected = IsolatedRun(*server, sources_, request);

  const std::vector<Result<AnswerStatistics>> got =
      server->ExtractBatch(batch);
  ASSERT_EQ(got.size(), 3u);
  for (const Result<AnswerStatistics>& result : got) {
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical(*result, expected);
  }
  // One miss computed, the duplicates rode along without extra pipeline
  // runs (no extra misses, no hits needed either).
  EXPECT_EQ(server->CacheStats().answer_misses, 1u);
}

TEST_F(ServingServerTest, BatchAfterWarmAndAfterDriftMatchesIsolated) {
  std::unique_ptr<ExtractionServer> server = MakeServer();
  QueryRequest request;
  request.query = MakeQuery("warm", AggregateKind::kSum, {1, 2, 3});
  const AnswerStatistics expected = IsolatedRun(*server, sources_, request);

  // Warm through the single-query path, then batch: pure cache hits.
  ASSERT_TRUE(server->Extract(request).ok());
  std::vector<Result<AnswerStatistics>> got =
      server->ExtractBatch(std::vector<QueryRequest>{request, request});
  for (const Result<AnswerStatistics>& result : got) {
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical(*result, expected);
  }

  // Invalidate and batch again: recomputed, still bit-identical.
  server->OnSourceDrift(server->SourceClosure(request.query).front());
  got = server->ExtractBatch(std::vector<QueryRequest>{request, request});
  for (const Result<AnswerStatistics>& result : got) {
    ASSERT_TRUE(result.ok());
    ExpectBitIdentical(*result, expected);
  }
}

TEST_F(ServingServerTest, BatchSurfacesPerRequestFailures) {
  std::unique_ptr<ExtractionServer> server = MakeServer();
  QueryRequest good;
  good.query = MakeQuery("good", AggregateKind::kSum, {1, 2});
  QueryRequest bad;
  bad.query = MakeQuery("bad", AggregateKind::kSum, {});  // no components

  const std::vector<Result<AnswerStatistics>> got =
      server->ExtractBatch(std::vector<QueryRequest>{good, bad});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].ok());
  ASSERT_FALSE(got[1].ok());
  EXPECT_EQ(got[1].status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingServerTest, DeadlineRequiresFaultToleranceSeam) {
  std::unique_ptr<ExtractionServer> server = MakeServer();
  QueryRequest request;
  request.query = MakeQuery("deadline", AggregateKind::kSum, {1, 2});
  request.deadline_virtual_ms = 5.0;
  const Result<AnswerStatistics> result = server->Extract(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingServerTest, DeadlineMapsOntoVirtualBudgetDeterministically) {
  ServingOptions options;
  options.base = FastOptions();
  options.base.fault_tolerance.emplace();  // fault-free seam, virtual clock
  std::unique_ptr<ExtractionServer> server = MakeServer(std::move(options));

  QueryRequest request;
  request.query = MakeQuery("deadline", AggregateKind::kSum, {1, 2, 3});
  request.deadline_virtual_ms = 1e-7;  // truncates almost immediately

  Result<ExtractorOptions> derived = server->DerivedOptions(request);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->fault_tolerance->retry.session_deadline_ms, 1e-7);

  // Deadline and no-deadline requests have different fingerprints, so they
  // never alias in the answer cache.
  QueryRequest no_deadline = request;
  no_deadline.deadline_virtual_ms = 0.0;
  EXPECT_NE(server->RequestFingerprint(request),
            server->RequestFingerprint(no_deadline));

  const AnswerStatistics isolated = IsolatedRun(*server, sources_, request);
  const Result<AnswerStatistics> served = server->Extract(request);
  ASSERT_TRUE(served.ok()) << served.status().message();
  ExpectBitIdentical(*served, isolated);
  EXPECT_EQ(served->degradation.draws_kept, isolated.degradation.draws_kept);
}

TEST_F(ServingServerTest, SchedulerShedsLoadWithResourceExhausted) {
  ServingOptions options;
  options.scheduler.max_in_flight = 1;
  options.scheduler.max_queue_depth = 0;
  std::unique_ptr<ExtractionServer> server = MakeServer(std::move(options));

  // Hold the only slot directly, then submit: the request must be shed.
  QueryScheduler& scheduler =
      const_cast<QueryScheduler&>(server->scheduler());
  ASSERT_TRUE(scheduler.Admit(0xdead).ok());
  QueryRequest request;
  request.query = MakeQuery("shed", AggregateKind::kSum, {1, 2});
  const Result<AnswerStatistics> result = server->Extract(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  scheduler.Release();
  EXPECT_TRUE(server->Extract(request).ok());
}

TEST_F(ServingServerTest, MonitorDriftListenerInvalidatesServerCaches) {
  std::unique_ptr<ExtractionServer> server = MakeServer();
  QueryRequest request;
  request.query = MakeQuery("monitored", AggregateKind::kSum, {1, 2, 3});
  ASSERT_TRUE(server->Extract(request).ok());
  ASSERT_EQ(server->CacheStats().answer_entries, 1u);

  ContinuousQueryMonitor monitor(&sources_, FastOptions());
  monitor.SetDriftListener(server->drift_listener());
  const std::vector<int> closure = server->SourceClosure(request.query);
  ASSERT_TRUE(monitor.NotifySourceChanged(closure.front()).ok());

  EXPECT_EQ(server->CacheStats().answer_entries, 0u);
  EXPECT_GE(server->CacheStats().answer_invalidations, 1u);
}

TEST_F(ServingServerTest, FlightRecorderJournalsSchedulerAndCacheEvents) {
  FlightRecorder recorder;
  MetricsRegistry metrics;
  ServingOptions options;
  options.scheduler.max_in_flight = 1;
  options.scheduler.max_queue_depth = 0;
  options.obs.recorder = &recorder;
  options.obs.metrics = &metrics;
  std::unique_ptr<ExtractionServer> server = MakeServer(std::move(options));

  QueryRequest request;
  request.query = MakeQuery("journaled", AggregateKind::kSum, {1, 2});
  ASSERT_TRUE(server->Extract(request).ok());  // miss
  ASSERT_TRUE(server->Extract(request).ok());  // hit

  // Force a rejection for the reject event.
  QueryScheduler& scheduler =
      const_cast<QueryScheduler&>(server->scheduler());
  ASSERT_TRUE(scheduler.Admit(0xbeef).ok());
  EXPECT_EQ(server->Extract(request).status().code(),
            StatusCode::kResourceExhausted);
  scheduler.Release();

  const FlightSnapshot snapshot = recorder.Drain();
  int admits = 0, rejects = 0, cache_hits = 0, cache_misses = 0;
  bool saw_answer_cache_name = false;
  for (const EventRecord& event : snapshot.events) {
    if (event.kind == FlightEventKind::kSchedulerAdmit) ++admits;
    if (event.kind == FlightEventKind::kSchedulerReject) ++rejects;
    if (event.kind == FlightEventKind::kCacheHit) {
      ++cache_hits;
      if (snapshot.NameOf(event) == "answer_cache") {
        saw_answer_cache_name = true;
      }
    }
    if (event.kind == FlightEventKind::kCacheMiss) ++cache_misses;
  }
  // Two server extractions plus the direct Admit(0xbeef) above.
  EXPECT_EQ(admits, 3);
  EXPECT_EQ(rejects, 1);
  EXPECT_GE(cache_hits, 1);
  EXPECT_GE(cache_misses, 1);
  EXPECT_TRUE(saw_answer_cache_name);

  // The Chrome trace renders the new kinds with their scheduler/cache
  // categories and the mirrored in-flight counter track.
  Result<std::string> trace_result = ExportChromeTrace(snapshot);
  ASSERT_TRUE(trace_result.ok()) << trace_result.status().message();
  const std::string& trace = trace_result.value();
  EXPECT_NE(trace.find("\"scheduler_admit\""), std::string::npos);
  EXPECT_NE(trace.find("\"scheduler_reject\""), std::string::npos);
  EXPECT_NE(trace.find("\"serving_in_flight\""), std::string::npos);
  EXPECT_NE(trace.find("\"cache_hit\""), std::string::npos);
  EXPECT_NE(trace.find("\"cache_miss\""), std::string::npos);
  EXPECT_NE(trace.find("\"answer_cache\""), std::string::npos);
}

TEST_F(ServingServerTest, ServesMetricsForRequestsAndCaches) {
  MetricsRegistry metrics;
  ServingOptions options;
  options.obs.metrics = &metrics;
  std::unique_ptr<ExtractionServer> server = MakeServer(std::move(options));

  QueryRequest request;
  request.query = MakeQuery("metered", AggregateKind::kSum, {1, 2, 3});
  ASSERT_TRUE(server->Extract(request).ok());
  ASSERT_TRUE(server->Extract(request).ok());

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(CounterValue(snapshot, "serving_requests_total"), 2u);
  EXPECT_EQ(CounterValue(snapshot, "serving_answer_cache_misses_total"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "serving_answer_cache_hits_total"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "serving_admitted_total"), 2u);
}

}  // namespace
}  // namespace vastats
