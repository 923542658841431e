#include "sampling/parallel.h"

#include <algorithm>
#include <thread>

namespace vastats {
namespace {

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

int ResolveSamplingThreads(int sampling_threads,
                           unsigned hardware_concurrency) {
  if (sampling_threads > 0) return sampling_threads;
  return static_cast<int>(std::max(1u, hardware_concurrency));
}

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
  // Parallelism actually applied.
  const int workers = std::min(
      pooled ? options.pool->num_threads() + 1
             : ResolveSamplingThreads(options.num_threads,
                                      std::thread::hardware_concurrency()),
      num_chunks);

  const ObsOptions& obs = options.obs;
  ScopedSpan span(obs, "parallel_sample");
  span.Annotate("draws", static_cast<int64_t>(n));
  span.Annotate("chunks", static_cast<int64_t>(num_chunks));
  span.Annotate("threads", static_cast<int64_t>(workers));
  span.Annotate("pool", pooled);

  std::vector<double> values(static_cast<size_t>(n));
  auto task = [&](int chunk_index) -> Status {
    const int begin = chunk_index * chunk;
    const int count = std::min(chunk, n - begin);
    return chunk_fn(begin, std::span<double>(values).subspan(
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
    const UniSSampler& sampler, int n, const ParallelSampleOptions& options,
    int first_draw) {
  const ObsOptions& obs = options.obs;
  auto chunk_fn = [&](int first_slot, std::span<double> out) -> Status {
    UniSDrawCounters counters(obs, /*visited_histogram=*/true);
    Status status;
    int64_t draw = int64_t{first_draw} + first_slot;
    for (double& slot : out) {
      Rng rng(StreamKey(options.seed, StreamTag::kUniSDraw,
                        static_cast<uint64_t>(draw++)));
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
  // What the chunks leave besides the slot values: per slot the coverage of
  // the kept draw (0 marks a dropped slot — a kept draw covered something)
  // and per chunk its session's access stats, merged in chunk order after
  // the join, so "which slot was kept" and the merged stats are
  // schedule-independent. (An invalid n or chunk_draws is the driver's to
  // reject.)
  std::vector<double> coverages(static_cast<size_t>(std::max(n, 0)), 0.0);
  const size_t chunk = static_cast<size_t>(std::max(options.chunk_draws, 1));
  std::vector<AccessStats> chunk_access((coverages.size() + chunk - 1) / chunk);

  auto chunk_fn = [&](int first_slot, std::span<double> out) -> Status {
    // One transport channel per chunk, living exactly as long as the
    // session that owns it. Outcomes stay keyed by (source, global slot
    // epoch, attempt) endpoint-side, so transported chunks keep the
    // width-invariance contract.
    std::unique_ptr<VisitTransport> channel;
    if (options.transport_factory) channel = options.transport_factory();
    AccessSession session =
        accessor.StartSession(obs.metrics, obs.recorder, channel.get());
    UniSDrawCounters counters(obs, /*visited_histogram=*/true);
    Status status;
    uint64_t kept = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      if (session.SessionBudgetExhausted()) break;
      // Draw streams and fault epochs are keyed by the GLOBAL slot index:
      // what a draw sees depends on which draw it is, never on scheduling.
      const int slot = first_slot + static_cast<int>(i);
      session.BeginDraw(slot);
      Rng rng(StreamKey(options.seed, StreamTag::kUniSDraw,
                        static_cast<uint64_t>(slot)));
      const auto sample = sampler.SampleOneDegraded(rng, session);
      if (!sample.ok()) {
        status = sample.status();
        break;
      }
      counters.Record(*sample);
      if (!sample->value_valid || sample->coverage < min_coverage) continue;
      out[i] = sample->value;
      coverages[static_cast<size_t>(slot)] = sample->coverage;
      ++kept;
    }
    chunk_access[static_cast<size_t>(first_slot) / chunk] = session.Finish();
    FlushChunk(obs, counters);
    if (obs.metrics != nullptr) {
      obs.GetCounter("unis_degraded_draws_kept_total").Increment(kept);
      obs.GetCounter("unis_degraded_draws_dropped_total")
          .Increment(counters.draws() - kept);
    }
    return status;
  };
  VASTATS_ASSIGN_OR_RETURN(
      const std::vector<double> values,
      ParallelChunkedSample(n, options, chunk_fn));

  FaultAwareSampleResult result;
  result.values.reserve(values.size());
  result.coverages.reserve(values.size());
  for (size_t slot = 0; slot < values.size(); ++slot) {
    if (coverages[slot] > 0.0) {
      result.values.push_back(values[slot]);
      result.coverages.push_back(coverages[slot]);
    } else {
      ++result.dropped_draws;
    }
  }
  for (const AccessStats& access : chunk_access) result.access.Merge(access);
  return result;
}

}  // namespace vastats
