// Serving-layer throughput/latency baseline: 16-request mixed traffic over
// the Table-2 D2 universe, served four ways —
//
//   baseline_serialized     16 isolated single-query extractors, one after
//                           another (the pre-serving way to answer them);
//   server_cold_concurrent  16 threads submitting into a fresh
//                           ExtractionServer (scheduler + empty caches);
//   server_warm_concurrent  the same 16 again on the now-warm server (every
//                           request answered from the shared answer cache);
//   server_batch_cold       ExtractBatch over the 16 on a fresh server, so
//                           groups with identical component sequences share
//                           one recorded sampling pass.
//
// Every server result is compared bit-for-bit against its isolated run
// (the determinism contract); any mismatch exits non-zero. The binary prints
// each mode's wall time and qps, then the throughput ratios against their
// bounds (warm >= 3x serialized, batch > 1x serialized), and exits non-zero
// when one fails (ctest `bench_serving_check`, label `timing`). The counts
// behind these modes (admissions, warm hits, batch groups, shared draws)
// are deterministic and live in ServingServerTest.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "timing_checks.h"
#include "vastats/vastats.h"
#include "workloads.h"

namespace vastats::bench {
namespace {

using serving::ExtractionServer;
using serving::QueryRequest;
using serving::ServingOptions;

constexpr int kNumRequests = 16;
constexpr int kSampleSize = 400;

// Mixed traffic: five distinct queries, three of which share a component
// sequence (so the batch path can group them into one sampling pass), cycled
// round-robin over 16 request slots.
std::vector<QueryRequest> MakeTraffic() {
  std::vector<AggregateQuery> distinct;
  distinct.push_back(MakeRangeQuery("q1-sum", AggregateKind::kSum, 0, 200));
  distinct.push_back(
      MakeRangeQuery("q2-avg", AggregateKind::kAverage, 0, 200));
  distinct.push_back(MakeRangeQuery("q3-max", AggregateKind::kMax, 0, 200));
  distinct.push_back(MakeRangeQuery("q4-sum", AggregateKind::kSum, 200, 150));
  distinct.push_back(
      MakeRangeQuery("q5-var", AggregateKind::kVariance, 100, 200));
  std::vector<QueryRequest> requests(kNumRequests);
  for (int i = 0; i < kNumRequests; ++i) {
    requests[i].query = distinct[i % distinct.size()];
  }
  return requests;
}

ServingOptions MakeServingOptions() {
  ServingOptions options;
  options.base.initial_sample_size = kSampleSize;
  options.base.weight_probes = 10;
  // Serial sampling is what makes a batch group shareable (the recorded
  // pass must be the stream an isolated run consumes).
  options.base.sampling_threads = 1;
  return options;
}

// Bitwise equality over every field the determinism contract covers
// (timings are wall-clock metadata and excluded).
bool SameAnswer(const AnswerStatistics& a, const AnswerStatistics& b) {
  if (a.samples != b.samples) return false;
  if (a.mean.value != b.mean.value || a.mean.ci.lo != b.mean.ci.lo ||
      a.mean.ci.hi != b.mean.ci.hi) {
    return false;
  }
  if (a.variance.value != b.variance.value ||
      a.std_dev.value != b.std_dev.value ||
      a.skewness.value != b.skewness.value) {
    return false;
  }
  if (a.density.size() != b.density.size() ||
      a.density.x_min() != b.density.x_min() ||
      a.density.x_max() != b.density.x_max() ||
      !std::equal(a.density.values().begin(), a.density.values().end(),
                  b.density.values().begin())) {
    return false;
  }
  if (a.coverage.intervals.size() != b.coverage.intervals.size() ||
      a.coverage.total_coverage != b.coverage.total_coverage ||
      a.coverage.total_length_fraction != b.coverage.total_length_fraction) {
    return false;
  }
  return a.stability.stab_l2 == b.stability.stab_l2 &&
         a.stability.stab_bh == b.stability.stab_bh &&
         a.stability.psi == b.stability.psi &&
         a.answer_weight_y == b.answer_weight_y;
}

// Submits every request from its own thread and waits for all of them;
// results align with `requests` by index.
std::vector<Result<AnswerStatistics>> ServeConcurrently(
    ExtractionServer& server, const std::vector<QueryRequest>& requests) {
  std::vector<Result<AnswerStatistics>> results(
      requests.size(), Result<AnswerStatistics>(Status::Internal("unset")));
  std::vector<std::thread> threads;
  threads.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    threads.emplace_back(
        [&server, &requests, &results, i] {
          results[i] = server.Extract(requests[i]);
        });
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

bool AllMatch(const std::vector<Result<AnswerStatistics>>& got,
              const std::vector<AnswerStatistics>& want, const char* label) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!got[i].ok()) {
      std::fprintf(stderr, "%s request %zu failed: %s\n", label, i,
                   got[i].status().ToString().c_str());
      return false;
    }
    if (!SameAnswer(got[i].value(), want[i])) {
      std::fprintf(stderr, "%s request %zu diverged from its isolated run\n",
                   label, i);
      return false;
    }
  }
  return true;
}

int RunServingChecks() {
  const Workload workload = MakeD2Workload();
  const std::vector<QueryRequest> requests = MakeTraffic();

  auto server_result =
      ExtractionServer::Create(workload.sources.get(), MakeServingOptions());
  if (!server_result.ok()) {
    std::fprintf(stderr, "%s\n", server_result.status().ToString().c_str());
    return 1;
  }
  ExtractionServer& server = **server_result;

  // Ground truth + the serialized baseline: one isolated extractor per
  // request, run back to back with the server's own derived options.
  std::vector<AnswerStatistics> isolated;
  isolated.reserve(requests.size());
  Stopwatch stopwatch;
  for (const QueryRequest& request : requests) {
    const auto derived = server.DerivedOptions(request);
    if (!derived.ok()) {
      std::fprintf(stderr, "%s\n", derived.status().ToString().c_str());
      return 1;
    }
    const auto extractor = AnswerStatisticsExtractor::Create(
        workload.sources.get(), request.query, *derived);
    if (!extractor.ok()) {
      std::fprintf(stderr, "%s\n", extractor.status().ToString().c_str());
      return 1;
    }
    const auto statistics = extractor->Extract();
    if (!statistics.ok()) {
      std::fprintf(stderr, "%s\n", statistics.status().ToString().c_str());
      return 1;
    }
    isolated.push_back(*statistics);
  }
  const double baseline_seconds = stopwatch.ElapsedSeconds();

  // Cold: 16 concurrent submissions into empty caches. Duplicates that
  // overlap in flight may each pay a full extraction (the answer cache only
  // serves completed entries); results are bit-identical either way.
  stopwatch.Restart();
  const auto cold = ServeConcurrently(server, requests);
  const double cold_seconds = stopwatch.ElapsedSeconds();
  const bool cold_identical = AllMatch(cold, isolated, "cold");

  // Warm: the same traffic again; every request is an answer-cache hit.
  stopwatch.Restart();
  const auto warm = ServeConcurrently(server, requests);
  const double warm_seconds = stopwatch.ElapsedSeconds();
  const bool warm_identical = AllMatch(warm, isolated, "warm");

  // Batch on a second, cold server: the three same-sequence queries group
  // into one recorded sampling pass; duplicate requests dedupe inside
  // their group.
  auto batch_server_result =
      ExtractionServer::Create(workload.sources.get(), MakeServingOptions());
  if (!batch_server_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 batch_server_result.status().ToString().c_str());
    return 1;
  }
  stopwatch.Restart();
  const auto batch = (*batch_server_result)->ExtractBatch(requests);
  const double batch_seconds = stopwatch.ElapsedSeconds();
  const bool batch_identical = AllMatch(batch, isolated, "batch");

  if (!cold_identical || !warm_identical || !batch_identical) {
    std::fprintf(stderr, "bit-identity check failed\n");
    return 1;
  }

  std::printf("%d requests (5 distinct queries), |S|=%d, D2 universe\n",
              kNumRequests, kSampleSize);
  std::printf("%-34s %12s %10s\n", "mode", "seconds", "qps");
  const struct {
    const char* name;
    double seconds;
  } modes[] = {{"baseline_serialized", baseline_seconds},
               {"server_cold_concurrent", cold_seconds},
               {"server_warm_concurrent", warm_seconds},
               {"server_batch_cold", batch_seconds}};
  for (const auto& mode : modes) {
    std::printf("%-34s %12.6f %10.1f\n", mode.name, mode.seconds,
                kNumRequests / mode.seconds);
  }
  return ReportChecks({
      {"warm/serialized throughput", baseline_seconds / warm_seconds,
       Bound::kAtLeast, 3.0},
      {"batch/serialized throughput", baseline_seconds / batch_seconds,
       Bound::kAbove, 1.0},
  });
}

}  // namespace
}  // namespace vastats::bench

int main() { return vastats::bench::RunServingChecks(); }
