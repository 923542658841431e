// Unit coverage of the async transport: wire framing, the sanctioned
// clock-mapping helpers, endpoint backends (in-process queues, AF_UNIX
// socket pairs, file-backed payload spools), prefetch pipelining with a
// bounded in-flight depth, and hedged duplicate requests.

#include "transport/async_transport.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/fault_model.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "transport/clock_map.h"
#include "transport/endpoint.h"
#include "transport/wire.h"

namespace vastats::transport {
namespace {

using ::vastats::testing::MakeFigure1Sources;

TEST(WireTest, RequestFramesRoundTripBackToBack) {
  WireRequest a;
  a.id = 0x1122334455667788ULL;
  a.channel = 7;
  a.source = 3;
  a.epoch = -1;  // sign must survive
  a.attempt = 2;
  a.num_components = 5;
  WireRequest b;
  b.id = 99;
  b.channel = 1;
  b.source = 0;
  b.epoch = (1LL << 40) + 17;
  b.attempt = 0;
  b.num_components = 1;

  std::string bytes;
  AppendRequestFrame(a, &bytes);
  AppendRequestFrame(b, &bytes);
  ASSERT_EQ(bytes.size(), 2 * kRequestFrameBytes);

  WireRequest got;
  const auto first = DecodeRequestFrame(bytes, &got);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, kRequestFrameBytes);
  EXPECT_EQ(got.id, a.id);
  EXPECT_EQ(got.channel, a.channel);
  EXPECT_EQ(got.source, a.source);
  EXPECT_EQ(got.epoch, a.epoch);
  EXPECT_EQ(got.attempt, a.attempt);
  EXPECT_EQ(got.num_components, a.num_components);

  const auto second =
      DecodeRequestFrame(std::string_view(bytes).substr(*first), &got);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, kRequestFrameBytes);
  EXPECT_EQ(got.epoch, b.epoch);
}

TEST(WireTest, PartialFramesWaitForMoreBytes) {
  WireRequest request;
  request.id = 5;
  std::string bytes;
  AppendRequestFrame(request, &bytes);
  for (size_t cut = 0; cut < kRequestFrameBytes; ++cut) {
    WireRequest got;
    const auto consumed =
        DecodeRequestFrame(std::string_view(bytes).substr(0, cut), &got);
    ASSERT_TRUE(consumed.ok());
    EXPECT_EQ(*consumed, 0u) << "cut=" << cut;
  }

  std::string response_bytes;
  AppendResponseFrame(5, false, 1.5,
                      EncodeBindings({{1, 2.0}, {2, 3.0}}), &response_bytes);
  WireResponse response;
  // Header complete but the body still streaming: not a frame yet.
  const auto consumed = DecodeResponseFrame(
      std::string_view(response_bytes).substr(0, kResponseHeaderBytes + 3),
      &response);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(*consumed, 0u);
}

TEST(WireTest, ResponseFramesRoundTripPayload) {
  const std::vector<TransportBinding> bindings = {
      {1, 21.5}, {2, -3.25}, {9, 0.0}};
  std::string bytes;
  AppendResponseFrame(42, false, 2.75, EncodeBindings(bindings), &bytes);
  ASSERT_EQ(bytes.size(),
            kResponseHeaderBytes + bindings.size() * kBindingBytes);

  WireResponse response;
  const auto consumed = DecodeResponseFrame(bytes, &response);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(*consumed, bytes.size());
  EXPECT_EQ(response.id, 42u);
  EXPECT_FALSE(response.failed);
  EXPECT_DOUBLE_EQ(response.virtual_ms, 2.75);
  ASSERT_EQ(response.payload.size(), bindings.size());
  for (size_t i = 0; i < bindings.size(); ++i) {
    EXPECT_EQ(response.payload[i].component, bindings[i].component);
    EXPECT_DOUBLE_EQ(response.payload[i].value, bindings[i].value);
  }

  std::string failed_bytes;
  AppendResponseFrame(43, true, 8.0, {}, &failed_bytes);
  const auto failed_consumed = DecodeResponseFrame(failed_bytes, &response);
  ASSERT_TRUE(failed_consumed.ok());
  EXPECT_TRUE(response.failed);
  EXPECT_TRUE(response.payload.empty());
}

TEST(WireTest, CorruptMagicIsAnError) {
  WireRequest request;
  std::string bytes;
  AppendRequestFrame(request, &bytes);
  bytes[0] = 'X';
  WireRequest got;
  EXPECT_FALSE(DecodeRequestFrame(bytes, &got).ok());

  std::string response_bytes;
  AppendResponseFrame(1, false, 0.0, {}, &response_bytes);
  response_bytes[1] ^= 0x40;
  WireResponse response;
  EXPECT_FALSE(DecodeResponseFrame(response_bytes, &response).ok());
}

TEST(ClockMapTest, WallBudgetMapScalesLinearly) {
  const WallBudgetMap map(0.25);
  EXPECT_DOUBLE_EQ(map.ToVirtualMs(8.0), 2.0);
  EXPECT_DOUBLE_EQ(map.ToVirtualMs(0.0), 0.0);
}

TEST(ClockMapTest, WallClockIsMonotone) {
  const WallClock clock;
  const double first = clock.NowMs();
  const double second = clock.NowMs();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

TEST(ClockMapTest, CutoffIsInfiniteUntilWarm) {
  LatencyCutoffEstimator estimator(16);
  for (int i = 0; i < 7; ++i) estimator.Observe(1.0);
  EXPECT_EQ(estimator.count(), 7);
  EXPECT_TRUE(std::isinf(estimator.CutoffMs(0.5, 2.0, 8, 0.0)));
  estimator.Observe(1.0);
  EXPECT_FALSE(std::isinf(estimator.CutoffMs(0.5, 2.0, 8, 0.0)));
}

TEST(ClockMapTest, CutoffUsesNearestRankPercentileTimesMultiplier) {
  LatencyCutoffEstimator estimator(128);
  for (int i = 1; i <= 100; ++i) estimator.Observe(static_cast<double>(i));
  // Nearest-rank p95 of {1..100} is 95; doubled is 190.
  EXPECT_DOUBLE_EQ(estimator.CutoffMs(0.95, 2.0, 16, 0.0), 190.0);
  // The floor wins when the observed latencies are tiny.
  EXPECT_DOUBLE_EQ(estimator.CutoffMs(0.95, 2.0, 16, 500.0), 500.0);
  // The window keeps only the most recent `capacity` observations.
  LatencyCutoffEstimator small(4);
  for (const double v : {100.0, 1.0, 1.0, 1.0, 1.0}) small.Observe(v);
  EXPECT_DOUBLE_EQ(small.CutoffMs(1.0, 1.0, 4, 0.0), 1.0);
}

TEST(TransportOptionsTest, Validation) {
  TransportOptions options;
  EXPECT_TRUE(options.Validate().ok());

  options.max_in_flight = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};

  options.latency_mode = LatencyChargeMode::kWallMapped;
  options.virtual_ms_per_wall_ms = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};

  options.hedge.enabled = true;
  options.hedge.percentile = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options.hedge.percentile = 0.9;
  options.hedge.multiplier = 0.5;
  EXPECT_FALSE(options.Validate().ok());
  options.hedge.multiplier = 2.0;
  options.hedge.max_hedges_per_attempt = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};

  options.latency_window = 1;
  EXPECT_FALSE(options.Validate().ok());
  options = {};

  options.endpoint.service_threads = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = {};
  options.endpoint.straggler_fraction = 1.5;
  EXPECT_FALSE(options.Validate().ok());
}

// Expected payload of a successful visit to `source`: its sorted bindings.
std::vector<TransportBinding> ExpectedPayload(const SourceSet& sources,
                                              int source) {
  std::vector<TransportBinding> expected;
  for (const auto& [component, value] :
       sources.source(source).SortedBindings()) {
    expected.push_back({component, value});
  }
  return expected;
}

void ExpectPayloadEq(std::span<const TransportBinding> got,
                     const std::vector<TransportBinding>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].component, want[i].component);
    EXPECT_DOUBLE_EQ(got[i].value, want[i].value);
  }
}

TEST(TransportChannelTest, DemandVisitDeliversSortedPayload) {
  const SourceSet sources = MakeFigure1Sources();
  for (const EndpointBackend backend :
       {EndpointBackend::kInProcess, EndpointBackend::kSocketPair}) {
    TransportOptions options;
    options.endpoint.backend = backend;
    auto transport = AsyncSourceTransport::Create(sources, nullptr, options);
    ASSERT_TRUE(transport.ok());
    auto channel = (*transport)->OpenChannel();
    ASSERT_TRUE(channel.ok());
    for (int source = 0; source < sources.NumSources(); ++source) {
      const auto expected = ExpectedPayload(sources, source);
      const TransportAttemptResult result = (*channel)->PerformAttempt(
          source, /*epoch=*/source, /*attempt=*/0,
          static_cast<int>(expected.size()));
      EXPECT_FALSE(result.failed);
      // Null model: every attempt succeeds instantly.
      EXPECT_DOUBLE_EQ(result.virtual_ms, 0.0);
      ExpectPayloadEq(result.payload, expected);
    }
  }
}

TEST(TransportChannelTest, FileBackedPayloadsServeIdenticalBytes) {
  const SourceSet sources = MakeFigure1Sources();
  TransportOptions options;
  options.endpoint.file_backed_payloads = true;
  auto transport = AsyncSourceTransport::Create(sources, nullptr, options);
  ASSERT_TRUE(transport.ok());
  auto channel = (*transport)->OpenChannel();
  ASSERT_TRUE(channel.ok());
  for (int source = 0; source < sources.NumSources(); ++source) {
    const auto expected = ExpectedPayload(sources, source);
    const TransportAttemptResult result = (*channel)->PerformAttempt(
        source, 0, 0, static_cast<int>(expected.size()));
    EXPECT_FALSE(result.failed);
    ExpectPayloadEq(result.payload, expected);
  }
}

TEST(TransportChannelTest, OutcomesMatchTheKeyedFaultModel) {
  const SourceSet sources = MakeFigure1Sources();
  FaultModelOptions fault;
  fault.transient_failure_prob = 0.4;
  fault.latency_jitter_sigma = 0.3;
  fault.outage_fraction = 0.25;
  fault.outage_epoch = 4;
  fault.seed = 2024;
  const auto model = FaultModel::Create(sources.NumSources(), fault);
  ASSERT_TRUE(model.ok());

  TransportOptions options;
  auto transport = AsyncSourceTransport::Create(sources, &*model, options);
  ASSERT_TRUE(transport.ok());
  auto channel = (*transport)->OpenChannel();
  ASSERT_TRUE(channel.ok());
  for (int64_t epoch = 0; epoch < 8; ++epoch) {
    for (int source = 0; source < sources.NumSources(); ++source) {
      for (int attempt = 0; attempt < 2; ++attempt) {
        const TransportAttemptResult result =
            (*channel)->PerformAttempt(source, epoch, attempt, 2);
        const bool want_failed =
            model->PermanentlyOut(source, epoch) ||
            model->AttemptFails(source, epoch, attempt);
        EXPECT_EQ(result.failed, want_failed)
            << "source=" << source << " epoch=" << epoch
            << " attempt=" << attempt;
        EXPECT_DOUBLE_EQ(result.virtual_ms,
                         model->AttemptLatencyMs(source, epoch, attempt, 2));
        if (!want_failed) {
          ExpectPayloadEq(result.payload, ExpectedPayload(sources, source));
        } else {
          EXPECT_TRUE(result.payload.empty());
        }
      }
    }
  }
}

TEST(TransportChannelTest, StagingPrefetchesUpToTheInFlightBound) {
  const SourceSet sources = MakeFigure1Sources();
  TransportOptions options;
  options.max_in_flight = 2;
  auto transport = AsyncSourceTransport::Create(sources, nullptr, options);
  ASSERT_TRUE(transport.ok());
  auto channel = (*transport)->OpenChannel();
  ASSERT_TRUE(channel.ok());

  const std::vector<int> order = {0, 1, 2, 3};
  const std::vector<int> counts = {2, 3, 4, 1};
  (*channel)->StageVisitOrder(0, order, counts);
  EXPECT_LE((*channel)->in_flight(), 2);
  EXPECT_GE((*channel)->counters().prefetches_issued, 2u);

  for (size_t i = 0; i < order.size(); ++i) {
    const TransportAttemptResult result =
        (*channel)->PerformAttempt(order[i], 0, 0, counts[i]);
    EXPECT_FALSE(result.failed);
    ExpectPayloadEq(result.payload, ExpectedPayload(sources, order[i]));
  }
  const TransportCounters& counters = (*channel)->counters();
  EXPECT_EQ(counters.prefetches_issued, 4u);
  EXPECT_LE(counters.peak_in_flight, 2u);
  EXPECT_GT(counters.peak_in_flight, 1u);  // the prefetches overlapped
  EXPECT_EQ(counters.requests, 4u);  // every visit rode its prefetch
  EXPECT_EQ(counters.hedges_fired, 0u);
}

TEST(TransportChannelTest, SyncModeNeverPrefetches) {
  const SourceSet sources = MakeFigure1Sources();
  TransportOptions options;
  options.max_in_flight = 1;
  auto transport = AsyncSourceTransport::Create(sources, nullptr, options);
  ASSERT_TRUE(transport.ok());
  auto channel = (*transport)->OpenChannel();
  ASSERT_TRUE(channel.ok());
  (*channel)->StageVisitOrder(0, std::vector<int>{0, 1, 2},
                              std::vector<int>{2, 3, 4});
  EXPECT_EQ((*channel)->in_flight(), 0);
  const TransportAttemptResult result = (*channel)->PerformAttempt(0, 0, 0, 2);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ((*channel)->counters().prefetches_issued, 0u);
  EXPECT_EQ((*channel)->counters().peak_in_flight, 1u);
}

TEST(TransportChannelTest, UnconsumedPrefetchesAreCountedWasted) {
  const SourceSet sources = MakeFigure1Sources();
  FaultModelOptions fault;  // default: no faults, but a real model object
  const auto model = FaultModel::Create(sources.NumSources(), fault);
  ASSERT_TRUE(model.ok());
  TransportOptions options;
  options.max_in_flight = 8;
  auto transport = AsyncSourceTransport::Create(sources, &*model, options);
  ASSERT_TRUE(transport.ok());
  {
    auto channel = (*transport)->OpenChannel();
    ASSERT_TRUE(channel.ok());
    // Stage a full draw but consume only the first visit; the rest of the
    // staged prefetches (already issued) must be discarded as wasted when
    // the next draw re-stages.
    (*channel)->StageVisitOrder(0, std::vector<int>{0, 1, 2, 3},
                                std::vector<int>{2, 3, 4, 1});
    (void)(*channel)->PerformAttempt(0, 0, 0, 2);
    (*channel)->StageVisitOrder(1, std::vector<int>{0}, std::vector<int>{2});
    (void)(*channel)->PerformAttempt(0, 1, 0, 2);
  }
  const TransportCounters merged = (*transport)->counters();
  EXPECT_EQ(merged.prefetches_issued, 5u);
  EXPECT_EQ(merged.prefetches_wasted, 3u);
  EXPECT_EQ(merged.requests, 5u);
  // Orphaned responses still in flight at close are dropped, so responses
  // may trail requests — but both consumed visits were ingested.
  EXPECT_LE(merged.responses, merged.requests);
  EXPECT_GE(merged.responses, 2u);
  EXPECT_GT(merged.bytes_received, 0u);
}

TEST(TransportChannelTest, HedgesFireOnStragglersAndNeverChangeResults) {
  const SourceSet sources = MakeFigure1Sources();
  TransportOptions options;
  options.endpoint.service_threads = 4;
  // Realize latency in wall time: ~0.2 ms per visit, with a keyed 25% of
  // request ids stretched 50x (~10 ms). A hedged duplicate re-rolls the
  // straggler draw under its fresh id, so it usually dodges the stall.
  options.endpoint.wall_ms_per_virtual_ms = 0.2;
  options.endpoint.straggler_fraction = 0.25;
  options.endpoint.straggler_multiplier = 50.0;
  options.hedge.enabled = true;
  options.hedge.percentile = 0.5;
  options.hedge.multiplier = 2.0;
  options.hedge.min_samples = 8;
  options.hedge.min_cutoff_ms = 0.5;
  options.poll_quantum_ms = 0.1;
  FaultModelOptions fault;  // default latency_base_ms = 1.0, no failures
  fault.transient_failure_prob = 0.0;
  fault.corrupt_value_prob = 0.0;
  const auto model = FaultModel::Create(sources.NumSources(), fault);
  ASSERT_TRUE(model.ok());

  auto transport = AsyncSourceTransport::Create(sources, &*model, options);
  ASSERT_TRUE(transport.ok());
  FlightRecorder recorder;
  auto channel = (*transport)->OpenChannel(nullptr, &recorder);
  ASSERT_TRUE(channel.ok());

  const auto expected = ExpectedPayload(sources, 2);
  for (int64_t epoch = 0; epoch < 300; ++epoch) {
    const TransportAttemptResult result =
        (*channel)->PerformAttempt(2, epoch, 0,
                                   static_cast<int>(expected.size()));
    // Hedging must never change what the sampler sees.
    EXPECT_FALSE(result.failed);
    EXPECT_DOUBLE_EQ(result.virtual_ms,
                     model->AttemptLatencyMs(2, epoch, 0,
                                             static_cast<int>(expected.size())));
    ExpectPayloadEq(result.payload, expected);
    if ((*channel)->counters().hedges_won > 0 && epoch >= 32) break;
  }

  const TransportCounters& counters = (*channel)->counters();
  EXPECT_GT(counters.hedges_fired, 0u);
  EXPECT_EQ(counters.hedges_won + counters.hedges_cancelled,
            counters.hedges_fired);

  const FlightSnapshot snapshot = recorder.Drain();
  bool saw_fired = false;
  for (const EventRecord& event : snapshot.events) {
    if (event.kind == FlightEventKind::kTransportHedgeFired) {
      saw_fired = true;
      int source = 0, attempt = 0;
      int64_t epoch = 0;
      UnpackTransportVisit(event.aux, &source, &epoch, &attempt);
      EXPECT_EQ(source, 2);
      EXPECT_EQ(attempt, 0);
      EXPECT_GE(event.value, options.hedge.min_cutoff_ms);
    }
  }
  EXPECT_TRUE(saw_fired);
}

TEST(TransportChannelTest, WallMappedModeChargesMeasuredBlocking) {
  const SourceSet sources = MakeFigure1Sources();
  TransportOptions options;
  options.latency_mode = LatencyChargeMode::kWallMapped;
  options.virtual_ms_per_wall_ms = 2.0;
  options.endpoint.wall_ms_per_virtual_ms = 0.5;  // ~0.5 ms real delay
  FaultModelOptions fault;
  const auto model = FaultModel::Create(sources.NumSources(), fault);
  ASSERT_TRUE(model.ok());
  auto transport = AsyncSourceTransport::Create(sources, &*model, options);
  ASSERT_TRUE(transport.ok());
  auto channel = (*transport)->OpenChannel();
  ASSERT_TRUE(channel.ok());
  // A demand visit blocks for the endpoint's (wall-realized) service delay,
  // so the mapped charge must be strictly positive.
  const TransportAttemptResult demand = (*channel)->PerformAttempt(0, 0, 0, 2);
  EXPECT_FALSE(demand.failed);
  EXPECT_GT(demand.virtual_ms, 0.0);
  EXPECT_TRUE(std::isfinite(demand.virtual_ms));
}

TEST(TransportChannelTest, MetricsFlushOnChannelClose) {
  const SourceSet sources = MakeFigure1Sources();
  MetricsRegistry metrics;
  TransportOptions options;
  auto transport = AsyncSourceTransport::Create(sources, nullptr, options);
  ASSERT_TRUE(transport.ok());
  {
    auto channel = (*transport)->OpenChannel(&metrics);
    ASSERT_TRUE(channel.ok());
    (*channel)->StageVisitOrder(0, std::vector<int>{0, 1},
                                std::vector<int>{2, 3});
    (void)(*channel)->PerformAttempt(0, 0, 0, 2);
    (void)(*channel)->PerformAttempt(1, 0, 0, 3);
  }
  const MetricsSnapshot snapshot = metrics.Snapshot();
  const auto counter_value = [&](std::string_view name) -> uint64_t {
    const CounterSample* sample = snapshot.FindCounter(name);
    return sample != nullptr ? sample->value : 0;
  };
  EXPECT_EQ(counter_value("transport_requests_total"), 2u);
  EXPECT_EQ(counter_value("transport_responses_total"), 2u);
  EXPECT_EQ(counter_value("transport_prefetches_issued_total"), 2u);
  EXPECT_EQ(counter_value("transport_prefetches_wasted_total"), 0u);
  EXPECT_GT(counter_value("transport_bytes_received_total"), 0u);
}

}  // namespace
}  // namespace vastats::transport
