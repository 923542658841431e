// Parallel uniS sampling — the paper's §7: "uniS can be fully parallelized
// as samples are obtained independently. Future work should examine how the
// algorithm scales when parallelized."
//
// Determinism contract (thread-count-invariant): the n requested draws are
// partitioned into fixed-size chunks of `chunk_draws` samples, and every
// chunk owns an independent RNG stream derived from the master seed and the
// *chunk index* — never from a thread id. Workers only decide which chunk
// they execute next, not what that chunk produces, so the output is
// bit-identical for a fixed (seed, n, chunk_draws) across ANY execution
// width and dispatch. (This deliberately replaces the seed's old contract,
// where the stream partitioning depended on num_threads and different
// thread counts produced different samples.)
//
// Dispatch: every entry point runs its chunks through one driver, which
// runs them with ThreadPool::ParallelFor.
//  * options.pool != nullptr — chunks run as tasks on the persistent
//    worker pool; no threads are created by this call.
//  * options.pool == nullptr — the width is options.num_threads (0 means
//    hardware concurrency), capped at the chunk count. A width w > 1 runs
//    the chunks on a call-scoped pool of w - 1 workers plus the caller; a
//    width of 1 runs them inline on the calling thread.
// Both modes produce identical samples; `bench/micro_pipeline`'s
// BM_ParallelSamplePool and BM_ParallelSampleNoPool compare their dispatch
// cost.

#ifndef VASTATS_SAMPLING_PARALLEL_H_
#define VASTATS_SAMPLING_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "datagen/source_accessor.h"
#include "obs/obs.h"
#include "sampling/unis.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace vastats {

struct ParallelSampleOptions {
  // Width without a pool; 0 means hardware_concurrency (at least 1).
  // Ignored when `pool` is set (the pool's width applies).
  int num_threads = 0;
  uint64_t seed = 0x5eed;
  // Draws per chunk — the determinism granule. Part of the output contract:
  // changing it changes which stream produces which slot (but the result
  // stays independent of thread count and pool size).
  int chunk_draws = 64;
  // Borrowed persistent pool; null runs the chunks on a call-scoped pool of
  // num_threads - 1 workers plus the caller.
  ThreadPool* pool = nullptr;
  // Optional telemetry. The span is recorded from the calling thread only;
  // workers report through the (sharded, thread-safe) metrics registry:
  // the shared uniS counters and per-draw histogram (UniSDrawCounters)
  // plus a per-chunk draw-count histogram, and the pool adds its
  // queue/task/latency series.
  ObsOptions obs;
  // When set, every chunk's AccessSession routes its visits through a
  // fresh transport channel from this factory (one channel per stream, the
  // AccessSession contract) instead of the inline fault simulation. The
  // factory must be thread-safe — chunks call it concurrently — and is
  // typically AsyncSourceTransport::OpenChannel behind a lambda. Null
  // keeps the simulated seam. Only ParallelUniSSampleWithFaults consults
  // this; the fault-free paths never visit sources through the seam.
  std::function<std::unique_ptr<VisitTransport>()> transport_factory;
};

// Fills one chunk of the output: `rng` is seeded from the chunk index and
// `out` is the chunk's slot range. Invoked concurrently for distinct chunks.
using ChunkSampleFn =
    std::function<Status(int chunk_index, Rng& rng, std::span<double> out)>;

// Generic chunk-indexed sampling driver: partitions n slots into chunks,
// derives one RNG stream per chunk, and executes `chunk_fn` per chunk on
// the borrowed or a call-scoped pool. On any chunk failure the error of the
// lowest failing chunk index is returned and no partial result leaks.
Result<std::vector<double>> ParallelChunkedSample(
    int n, const ParallelSampleOptions& options, const ChunkSampleFn& chunk_fn);

// Draws `n` viable answers from `sampler` using the chunked driver. The
// sampler is shared read-only across threads (UniSSampler::SampleOne is
// const and carries no mutable state).
Result<std::vector<double>> ParallelUniSSample(
    const UniSSampler& sampler, int n, const ParallelSampleOptions& options);

// Result of a fault-injected (or merely fault-tolerant) sampling run.
// `values[i]` and `coverages[i]` describe the i-th KEPT draw, compacted in
// global slot order, so the array is itself deterministic.
struct FaultAwareSampleResult {
  std::vector<double> values;
  std::vector<double> coverages;  // per kept draw, in (0, 1]
  // Requested draws that produced nothing usable: zero coverage, coverage
  // below the floor, or abandonment after the session budget ran out.
  int dropped_draws = 0;
  // Access telemetry merged across all chunk sessions, in chunk order.
  AccessStats access;
};

// Draws `n` answers through the fault-tolerant access seam: a chunk
// function over the same driver as ParallelUniSSample. Chunk RNG streams
// are keyed by chunk index, fault epochs are global slot indices, and every
// chunk owns a private AccessSession (breaker state and virtual clock
// confined to one stream). Output — kept values, coverages, dropped count,
// and merged AccessStats — is bit-identical across every width, with or
// without a pool. Draws with coverage < `min_coverage` are dropped, not
// errors. With a null fault model it draws exactly ParallelUniSSample's
// values and reports the same uniS counters.
Result<FaultAwareSampleResult> ParallelUniSSampleWithFaults(
    const UniSSampler& sampler, int n, const SourceAccessor& accessor,
    double min_coverage, const ParallelSampleOptions& options);

}  // namespace vastats

#endif  // VASTATS_SAMPLING_PARALLEL_H_
