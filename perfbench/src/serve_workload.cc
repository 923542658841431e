// serve_zipf: an ExtractionServer over the climate archive (1672 stations,
// 104 districts) answering 256 distinct queries — SUM/AVG/MAX/VAR over 4
// adjacent districts x 12 months — drawn with Zipf(1.0) popularity by 4
// closed-loop clients, with ~2% of client ops being OnSourceDrift(station)
// notifications. Admission width equals the client count, so hits never
// queue behind misses.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "workloads.h"

namespace perfbench {

using namespace vastats;  // NOLINT: the benchmark drives the whole library
using serving::ExtractionServer;
using serving::QueryRequest;

namespace {

constexpr int kClients = 4;
constexpr int kDistrictWindows = 64;  // district windows [d, d+4), d < 64
constexpr int kDistinctQueries = kDistrictWindows * 4;
constexpr double kDriftShare = 0.02;
constexpr double kZipfExponent = 1.0;
constexpr int kWarmupOpsPerClient = 24;

// A fixed set of threads that run one job at a time, all members in
// parallel. The clients are persistent so their per-thread DCT plans,
// allocator arenas and caches carry over from warm-up into the timed loop.
class Crew {
 public:
  explicit Crew(int size) {
    threads_.reserve(static_cast<size_t>(size));
    for (int i = 0; i < size; ++i) {
      threads_.emplace_back([this, i] { Loop(i); });
    }
  }
  ~Crew() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) thread.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  // Runs job(member) on every member and waits for all of them.
  void Run(const std::function<void(int)>& job) {
    std::unique_lock<std::mutex> lock(mutex_);
    job_ = &job;
    remaining_ = static_cast<int>(threads_.size());
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
  }

 private:
  void Loop(int member) {
    uint64_t seen = 0;
    while (true) {
      const std::function<void(int)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(member);
      std::lock_guard<std::mutex> lock(mutex_);
      if (--remaining_ == 0) done_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t generation_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

// One client op: a query index, or a drift notification (query = -1).
struct ClientOp {
  int query = -1;
  int station = 0;
};

class Traffic {
 public:
  Traffic(uint64_t seed, int num_stations) : num_stations_(num_stations) {
    // Popularity rank r has weight 1 / (r + 1)^s; which query holds which
    // rank is a seeded permutation.
    double total = 0.0;
    for (int r = 0; r < kDistinctQueries; ++r) {
      total += 1.0 / std::pow(r + 1.0, kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    rank_to_query_.resize(kDistinctQueries);
    for (int i = 0; i < kDistinctQueries; ++i) rank_to_query_[i] = i;
    Rng rng(MixSeed(seed, 7));
    std::shuffle(rank_to_query_.begin(), rank_to_query_.end(), rng);
  }

  ClientOp Next(Rng& rng) const {
    ClientOp op;
    if (rng.Uniform01() < kDriftShare) {
      op.station = static_cast<int>(rng.UniformInt(0, num_stations_ - 1));
      return op;
    }
    const double u = rng.Uniform01();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    op.query = rank_to_query_[std::min(rank, cdf_.size() - 1)];
    return op;
  }

 private:
  int num_stations_;
  std::vector<double> cdf_;
  std::vector<int> rank_to_query_;
};

std::vector<QueryRequest> MakeQueries() {
  const AggregateKind kinds[] = {AggregateKind::kSum, AggregateKind::kAverage,
                                 AggregateKind::kMax, AggregateKind::kVariance};
  std::vector<QueryRequest> queries;
  for (int window = 0; window < kDistrictWindows; ++window) {
    for (const AggregateKind kind : kinds) {
      QueryRequest request;
      request.query.name = "q";
      request.query.name += std::to_string(queries.size());
      request.query.kind = kind;
      for (int d = window; d < window + 4; ++d) {
        for (int month = 1; month <= 12; ++month) {
          request.query.components.push_back(ClimateArchive::ComponentFor(
              ClimateAttribute::kMeanTemperature, d, month));
        }
      }
      queries.push_back(std::move(request));
    }
  }
  return queries;
}

struct ServeBench {
  std::unique_ptr<SourceSet> sources;
  std::vector<QueryRequest> queries;
  std::unique_ptr<Traffic> traffic;
  std::unique_ptr<ExtractionServer> server;
  std::unique_ptr<Crew> crew;  // last: its threads use everything above
};

Result<std::unique_ptr<ServeBench>> SetUp(uint64_t seed) {
  auto bench = std::make_unique<ServeBench>();
  // The archive is the fixed dataset (default seed 2006); --seed drives
  // the traffic over it.
  const ClimateArchiveOptions archive_options;
  VASTATS_ASSIGN_OR_RETURN(const ClimateArchive archive,
                           ClimateArchive::Build(archive_options));
  VASTATS_ASSIGN_OR_RETURN(SourceSet sources, archive.MakeSourceSet());
  bench->sources = std::make_unique<SourceSet>(std::move(sources));
  bench->queries = MakeQueries();
  bench->traffic =
      std::make_unique<Traffic>(seed, archive_options.num_stations);

  serving::ServingOptions options;
  options.base.sampling_threads = 1;
  options.base.seed = MixSeed(seed, 9);
  options.scheduler.max_in_flight = kClients;
  options.scheduler.max_queue_depth = 4 * kClients;
  VASTATS_ASSIGN_OR_RETURN(
      bench->server,
      ExtractionServer::Create(bench->sources.get(), std::move(options)));
  bench->crew = std::make_unique<Crew>(kClients);

  // Warm-up: every client sends a fixed-seed stream of the same traffic,
  // which fills the answer and bandwidth caches and the clients' DCT plans.
  std::vector<Status> failures(kClients);
  const std::function<void(int)> warm = [&](int c) {
    Rng rng(MixSeed(kWarmupSeed, static_cast<uint64_t>(c)));
    for (int i = 0; i < kWarmupOpsPerClient; ++i) {
      const ClientOp op = bench->traffic->Next(rng);
      if (op.query < 0) {
        bench->server->OnSourceDrift(op.station);
        continue;
      }
      const Result<AnswerStatistics> answer =
          bench->server->Extract(bench->queries[op.query]);
      if (!answer.ok()) failures[c] = answer.status();
    }
  };
  bench->crew->Run(warm);
  for (const Status& status : failures) VASTATS_RETURN_IF_ERROR(status);
  return bench;
}

struct Served {
  int query = 0;
  double ms = 0.0;
  int64_t end_ns = 0;
  bool ok = false;
  uint64_t digest = 0;
  double coverage = 0.0;  // AnswerCoverage of the served answer
  int waiting = 0;        // scheduler waiters seen at submission
};

// Adds the cache counters `after` gained over `before` to `total`.
void AddCacheDelta(const serving::ExtractionCacheStats& before,
                   const serving::ExtractionCacheStats& after,
                   serving::ExtractionCacheStats* total) {
  total->answer_hits += after.answer_hits - before.answer_hits;
  total->answer_misses += after.answer_misses - before.answer_misses;
  total->answer_evictions += after.answer_evictions - before.answer_evictions;
  total->answer_invalidations +=
      after.answer_invalidations - before.answer_invalidations;
  total->bandwidth_hits += after.bandwidth_hits - before.bandwidth_hits;
  total->bandwidth_misses += after.bandwidth_misses - before.bandwidth_misses;
}

}  // namespace

int RunServeZipf(const Args& args) {
  EndToEnd e2e;
  std::unique_ptr<ServeBench> bench;
  ThreadCounts threads;
  threads.clients = kClients;

  // Every window runs on a freshly set-up server (see kSetupsPerWindow);
  // the client op streams carry on across windows.
  std::vector<Rng> client_rngs;
  for (int c = 0; c < kClients; ++c) {
    client_rngs.emplace_back(MixSeed(args.seed, 100 + static_cast<uint64_t>(c)));
  }
  std::vector<std::vector<Served>> served(kClients);
  std::vector<int64_t> drifts(kClients, 0);
  std::vector<int64_t> requests(kClients, 0);
  std::vector<SpanLane> lanes(kClients);
  serving::ExtractionCacheStats cache;
  double loop_seconds = 0.0;
  for (int window = 0; window < kWindows; ++window) {
    for (int rep = 0; rep < kSetupsPerWindow; ++rep) {
      bench.reset();
      const int64_t start = NowNs();
      Result<std::unique_ptr<ServeBench>> built = SetUp(args.seed);
      if (!built.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     built.status().ToString().c_str());
        return 1;
      }
      bench = std::move(built).value();
      e2e.setup_s.push_back(MsBetween(start, NowNs()) * 1e-3);
    }
    ExtractionServer& server = *bench->server;
    const serving::ExtractionCacheStats before = server.CacheStats();
    e2e.BeginWindow();
    const int64_t window_end =
        NowNs() + static_cast<int64_t>(args.seconds / kWindows * 1e9);
    const std::function<void(int)> clients = [&](int c) {
      SpanLane* lane = args.trace ? &lanes[c] : nullptr;
      while (NowNs() < window_end) {
        const ClientOp op = bench->traffic->Next(client_rngs[c]);
        if (op.query < 0) {
          server.OnSourceDrift(op.station);
          ++drifts[c];
          continue;
        }
        Served record;
        record.query = op.query;
        record.waiting = server.scheduler().Waiting();
        Span span(lane, "serving.request",
                  c * (int64_t{1} << 40) + requests[c]++);
        const Result<AnswerStatistics> answer =
            server.Extract(bench->queries[op.query]);
        record.ms = span.CloseMs();
        record.end_ns = NowNs();
        record.ok = answer.ok();
        if (answer.ok()) {
          record.digest = AnswerDigest(answer.value());
          record.coverage = AnswerCoverage(answer.value());
        }
        served[c].push_back(record);
      }
    };
    bench->crew->Run(clients);
    e2e.EndWindow();
    loop_seconds += MsBetween(e2e.windows.back().start_ns,
                              e2e.windows.back().end_ns) * 1e-3;
    AddCacheDelta(before, server.CacheStats(), &cache);
  }
  ExtractionServer& server = *bench->server;

  // References: every query served is extracted again by an isolated
  // extractor with the server's DerivedOptions; each served answer must be
  // bit-identical to it. A traced run extracts each reference both untraced
  // and traced (the miss path's layer times).
  std::vector<char> used(kDistinctQueries, 0);
  for (const std::vector<Served>& records : served) {
    for (const Served& record : records) used[record.query] = 1;
  }
  std::vector<int> distinct;
  for (int q = 0; q < kDistinctQueries; ++q) {
    if (used[q]) distinct.push_back(q);
  }
  struct Reference {
    bool good = false;
    uint64_t digest = 0;
    double plain_ms = 0.0;
    LayerSample traced;
    bool below_theta = false;
  };
  std::vector<Reference> references(kDistinctQueries);
  CheckLog checks;
  const std::function<void(int)> reference_job = [&](int c) {
    for (size_t k = static_cast<size_t>(c); k < distinct.size(); k += kClients) {
      const int q = distinct[k];
      const QueryRequest& request = bench->queries[q];
      Reference& ref = references[q];
      const Result<ExtractorOptions> derived = server.DerivedOptions(request);
      if (!derived.ok()) {
        checks.Fail(-q - 1, derived.status().ToString());
        continue;
      }
      const int64_t start = NowNs();
      const Result<AnswerStatistics> plain =
          ExtractOnce(bench->sources.get(), request.query, derived.value());
      ref.plain_ms = MsBetween(start, NowNs());
      if (!plain.ok()) {
        checks.Fail(-q - 1, plain.status().ToString());
        continue;
      }
      ref.digest = AnswerDigest(plain.value());
      const int64_t failures_before = checks.failures();
      if (args.trace) {
        TracedRun run;
        run.lane = &lanes[c];
        run.op = -q - 1;
        run.thread_cpu = true;
        const Result<AnswerStatistics> traced = ExtractTraced(
            bench->sources.get(), request.query, derived.value(), run,
            &ref.traced);
        if (!traced.ok() || AnswerDigest(traced.value()) != ref.digest) {
          checks.Fail(-q - 1, "traced answer differs from the untraced one");
        }
      }
      double expected = std::numeric_limits<double>::quiet_NaN();
      const Result<double> closed =
          UniSExpectedAnswer(*bench->sources, request.query);
      if (closed.ok()) expected = closed.value();
      ref.below_theta = CheckAnswer(plain.value(), derived.value().cio,
                                    expected, -q - 1, checks);
      ref.good = checks.failures() == failures_before;
    }
  };
  bench->crew->Run(reference_job);

  double waiting_sum = 0.0;
  int64_t answered = 0;
  for (const std::vector<Served>& records : served) {
    for (const Served& record : records) {
      waiting_sum += record.waiting;
      const Reference& ref = references[record.query];
      TimedOp& timed = e2e.ops.emplace_back();
      timed.end_ns = record.end_ns;
      timed.ms = record.ms;
      timed.answered = record.ok;
      timed.ok = record.ok && ref.good && record.digest == ref.digest;
      if (record.ok) {
        ++answered;
        e2e.coverage.push_back(record.coverage);
        if (record.digest != ref.digest) {
          checks.Fail(record.query, "served answer differs from isolated run");
        }
      }
    }
  }
  int64_t total_drifts = 0;
  for (const int64_t d : drifts) total_drifts += d;
  const double hits = static_cast<double>(cache.answer_hits);
  const double misses = static_cast<double>(cache.answer_misses);
  const double queries = static_cast<double>(e2e.attempted());

  JsonObject detail;
  detail.Obj("samples", SampleCounts(e2e))
      .Int("drifts", total_drifts)
      .Int("distinct_queries_served", static_cast<int64_t>(distinct.size()))
      .Num("answer_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);

  if (!args.trace) {
    int64_t below = 0;
    for (const int q : distinct) below += references[q].below_theta;
    detail.Int("cio_literal_below_theta", below);
    return Finish(args, threads, e2e.attempted(), e2e.attempted() - e2e.ok(),
                  checks, EndToEndMetrics(e2e), detail);
  }

  PerLayer layers;
  double isolated_ms = 0.0;
  for (const int q : distinct) {
    layers.traced.push_back(references[q].traced);
    layers.untraced_ms.push_back(references[q].plain_ms);
    layers.cio_below_theta += references[q].below_theta;
    isolated_ms += references[q].plain_ms;
  }
  isolated_ms /= std::max<double>(1.0, static_cast<double>(distinct.size()));
  const double bw_hits = static_cast<double>(cache.bandwidth_hits);
  const double bw_misses = static_cast<double>(cache.bandwidth_misses);
  layers.answer_hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  layers.bandwidth_hit_ratio =
      bw_hits + bw_misses > 0.0 ? bw_hits / (bw_hits + bw_misses) : 0.0;
  layers.invalidations_per_drift =
      total_drifts > 0
          ? static_cast<double>(cache.answer_invalidations) /
                static_cast<double>(total_drifts)
          : 0.0;
  layers.evictions_per_op =
      queries > 0.0
          ? static_cast<double>(cache.answer_evictions) / queries
          : 0.0;
  layers.rejected_frac =
      queries > 0.0
          ? (queries - static_cast<double>(answered)) / queries
          : 0.0;
  const double miss_share = hits + misses > 0.0 ? misses / (hits + misses) : 0.0;
  std::vector<double> latency;
  for (const TimedOp& op : e2e.ops) {
    if (op.answered) latency.push_back(op.ms);
  }
  layers.serving_self_ms = Mean(latency) - miss_share * isolated_ms;
  // Little's law: mean waiters seen at submission / arrival rate.
  const double arrival_rate = queries / loop_seconds;
  layers.queue_wait_ms =
      queries > 0.0 ? (waiting_sum / queries) / arrival_rate * 1e3 : 0.0;
  detail.Num("isolated_extraction_ms", isolated_ms)
      .Num("miss_share", miss_share)
      .Obj("layer_shares", LayerShares(layers.traced));
  if (!args.spans_out.empty()) {
    std::vector<const SpanLane*> all;
    for (const SpanLane& lane : lanes) all.push_back(&lane);
    if (!WriteSpans(args.spans_out, args.workload, args.seed, all)) {
      std::fprintf(stderr, "could not write %s\n", args.spans_out.c_str());
      return 1;
    }
  }
  return Finish(args, threads, e2e.attempted(), e2e.attempted() - e2e.ok(),
                checks, PerLayerMetrics(layers), detail);
}

}  // namespace perfbench
