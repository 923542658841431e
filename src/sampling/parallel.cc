#include "sampling/parallel.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>

namespace vastats {
namespace {

// Stream-splitting constant (same odd 64-bit golden-ratio multiplier the
// Rng seeder uses); chunk streams are decorrelated by the splitmix64
// expansion inside Rng's constructor.
constexpr uint64_t kStreamStride = 0x9e3779b97f4a7c15ULL;

// Doubling buckets over per-chunk draw counts; all buckets below
// chunk_draws collect only the tail chunk and failed chunks.
constexpr double kDrawBuckets[] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

// Flushes one chunk's uniS tally. Called from the executing thread on
// purpose: each worker lands in its own registry shard, keeping the
// parallel path contention-free.
void FlushChunk(const ObsOptions& obs, const UniSDrawCounters& counters) {
  counters.Flush();
  if (obs.metrics == nullptr) return;
  obs.GetHistogram("parallel_sampler_draws_per_chunk", kDrawBuckets)
      .Observe(static_cast<double>(counters.draws()));
}

}  // namespace

Result<std::vector<double>> ParallelChunkedSample(
    int n, const ParallelSampleOptions& options,
    const ChunkSampleFn& chunk_fn) {
  if (n <= 0) {
    return Status::InvalidArgument("ParallelChunkedSample requires n > 0");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (options.chunk_draws <= 0) {
    return Status::InvalidArgument("chunk_draws must be > 0");
  }
  const int chunk = options.chunk_draws;
  const int num_chunks = (n + chunk - 1) / chunk;
  const bool pooled = options.pool != nullptr;
  int workers;  // parallelism actually applied
  if (pooled) {
    workers = options.pool->num_threads() + 1;
  } else {
    workers = options.num_threads == 0
                  ? static_cast<int>(
                        std::max(1u, std::thread::hardware_concurrency()))
                  : options.num_threads;
  }
  workers = std::min(workers, num_chunks);

  const ObsOptions& obs = options.obs;
  ScopedSpan span(obs, "parallel_sample");
  span.Annotate("draws", static_cast<int64_t>(n));
  span.Annotate("chunks", static_cast<int64_t>(num_chunks));
  span.Annotate("threads", static_cast<int64_t>(workers));
  span.Annotate("pool", pooled);

  std::vector<double> values(static_cast<size_t>(n));
  auto task = [&](int chunk_index) -> Status {
    // Chunk-indexed stream: the seed depends on the chunk index only, so
    // scheduling and execution width cannot change the output.
    Rng rng(options.seed +
            kStreamStride * (static_cast<uint64_t>(chunk_index) + 1));
    const int begin = chunk_index * chunk;
    const int count = std::min(chunk, n - begin);
    return chunk_fn(chunk_index, rng,
                    std::span<double>(values).subspan(
                        static_cast<size_t>(begin),
                        static_cast<size_t>(count)));
  };

  PoolMetricsObserver pool_observer(obs);
  Status status;
  if (pooled) {
    status = options.pool->ParallelFor(num_chunks, task, &pool_observer);
  } else if (workers > 1) {
    // A call-scoped pool: workers - 1 threads plus this caller, joined
    // before the call returns.
    ThreadPool call_pool(ThreadPoolOptions{.num_threads = workers - 1});
    status = call_pool.ParallelFor(num_chunks, task, &pool_observer);
  } else {
    for (int i = 0; i < num_chunks && status.ok(); ++i) status = task(i);
  }

  if (obs.metrics != nullptr) {
    obs.GetCounter("parallel_sampler_runs_total").Increment();
    obs.GetGauge("parallel_sampler_threads").Set(static_cast<double>(workers));
    if (!status.ok()) {
      obs.GetCounter("parallel_sampler_failures_total").Increment();
    }
  }
  VASTATS_RETURN_IF_ERROR(status);
  return values;
}

Result<std::vector<double>> ParallelUniSSample(
    const UniSSampler& sampler, int n,
    const ParallelSampleOptions& options) {
  const ObsOptions& obs = options.obs;
  auto chunk_fn = [&](int /*chunk_index*/, Rng& rng,
                      std::span<double> out) -> Status {
    UniSDrawCounters counters(obs, /*visited_histogram=*/true);
    Status status;
    for (double& slot : out) {
      const auto sample = sampler.SampleOne(rng);
      if (!sample.ok()) {
        status = sample.status();
        break;
      }
      slot = sample->value;
      counters.Record(*sample);
    }
    FlushChunk(obs, counters);
    return status;
  };
  return ParallelChunkedSample(n, options, chunk_fn);
}

Result<FaultAwareSampleResult> ParallelUniSSampleWithFaults(
    const UniSSampler& sampler, int n, const SourceAccessor& accessor,
    double min_coverage, const ParallelSampleOptions& options) {
  if (!(min_coverage >= 0.0 && min_coverage <= 1.0)) {
    return Status::InvalidArgument("min_coverage must be in [0, 1]");
  }
  if (accessor.num_sources() < sampler.sources().NumSources()) {
    return Status::InvalidArgument(
        "SourceAccessor covers fewer sources than the sampler visits");
  }
  const ObsOptions& obs = options.obs;
  // What a chunk leaves besides its slot values: per slot the coverage of
  // the kept draw (0 marks a dropped slot — a kept draw covered something)
  // and the session's access stats. Merged in chunk order after the join,
  // so "which slot was kept" and the merged stats are schedule-independent.
  struct ChunkOutcome {
    std::vector<double> coverages;
    AccessStats access;
  };
  std::mutex outcomes_mutex;
  std::map<int, ChunkOutcome> outcomes;

  auto chunk_fn = [&](int chunk_index, Rng& rng,
                      std::span<double> out) -> Status {
    // One transport channel per chunk stream, living exactly as long as
    // the session that owns it. Outcomes stay keyed by (source, global
    // slot epoch, attempt) endpoint-side, so transported chunks keep the
    // width-invariance contract.
    std::unique_ptr<VisitTransport> channel;
    if (options.transport_factory) channel = options.transport_factory();
    AccessSession session =
        accessor.StartSession(obs.metrics, obs.recorder, channel.get());
    ChunkOutcome outcome;
    outcome.coverages.assign(out.size(), 0.0);
    UniSDrawCounters counters(obs, /*visited_histogram=*/true);
    const int begin = chunk_index * options.chunk_draws;
    Status status;
    uint64_t kept = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      if (session.SessionBudgetExhausted()) break;
      // Fault epochs are GLOBAL slot indices: the fault schedule a draw
      // sees depends on which draw it is, never on scheduling.
      session.BeginDraw(begin + static_cast<int>(i));
      const auto sample = sampler.SampleOneDegraded(rng, session);
      if (!sample.ok()) {
        status = sample.status();
        break;
      }
      counters.Record(*sample);
      if (!sample->value_valid || sample->coverage < min_coverage) continue;
      out[i] = sample->value;
      outcome.coverages[i] = sample->coverage;
      ++kept;
    }
    outcome.access = session.Finish();
    FlushChunk(obs, counters);
    if (obs.metrics != nullptr) {
      obs.GetCounter("unis_degraded_draws_kept_total").Increment(kept);
      obs.GetCounter("unis_degraded_draws_dropped_total")
          .Increment(counters.draws() - kept);
    }
    const std::lock_guard<std::mutex> lock(outcomes_mutex);
    outcomes.emplace(chunk_index, std::move(outcome));
    return status;
  };
  VASTATS_ASSIGN_OR_RETURN(
      const std::vector<double> values,
      ParallelChunkedSample(n, options, chunk_fn));

  FaultAwareSampleResult result;
  result.values.reserve(values.size());
  result.coverages.reserve(values.size());
  size_t slot = 0;
  for (const auto& [chunk_index, outcome] : outcomes) {
    for (const double coverage : outcome.coverages) {
      if (coverage > 0.0) {
        result.values.push_back(values[slot]);
        result.coverages.push_back(coverage);
      } else {
        ++result.dropped_draws;
      }
      ++slot;
    }
    result.access.Merge(outcome.access);
  }
  return result;
}

}  // namespace vastats
