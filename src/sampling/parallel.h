// Parallel uniS sampling — the paper's §7: "uniS can be fully parallelized
// as samples are obtained independently. Future work should examine how the
// algorithm scales when parallelized."
//
// Determinism contract (width-invariant by construction): uniS draw i reads
// its own keyed stream, Rng(StreamKey(seed, StreamTag::kUniSDraw, i)) (see
// util/random.h), so what a draw produces depends on its global index and
// nothing else. The n requested draws are partitioned into chunks of
// `chunk_draws` slots only to schedule them; workers decide which chunk
// they execute next, never what a slot holds. The samples are therefore
// bit-identical for a fixed (seed, n) at every execution width, with or
// without a pool, and at every chunk_draws, and draws [0, n) of any longer
// run are exactly an n-draw run. The serial width-1 path is the same driver
// run inline, so there is one sample stream, not a serial and a parallel
// one. (Under the fault seam each chunk also owns an AccessSession, whose
// breaker state and session budget span the chunk's draws; see
// ParallelUniSSampleWithFaults.)
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
  // Key seed of the draw streams: draw i reads
  // Rng(StreamKey(seed, StreamTag::kUniSDraw, i)).
  uint64_t seed = 0x5eed;
  // Draws per chunk: the scheduling granule, and the span of one chunk's
  // AccessSession under the fault seam. The fault-free samples do not
  // depend on it.
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

// Resolves a requested sampling width against a hardware concurrency
// reading: k > 0 stays k; 0 becomes max(1, hardware_concurrency). The
// driver applies it to options.num_threads.
int ResolveSamplingThreads(int sampling_threads, unsigned hardware_concurrency);

// Fills one chunk of the output: `out` is the chunk's slot range and
// `first_slot` the index of out[0] among the n slots. Invoked concurrently
// for distinct chunks.
using ChunkSampleFn =
    std::function<Status(int first_slot, std::span<double> out)>;

// Generic chunked sampling driver: partitions n slots into chunks and
// executes `chunk_fn` per chunk on the borrowed or a call-scoped pool, or
// inline at width 1. On any chunk failure the error of the lowest failing
// chunk is returned and no partial result leaks.
Result<std::vector<double>> ParallelChunkedSample(
    int n, const ParallelSampleOptions& options, const ChunkSampleFn& chunk_fn);

// Draws uniS draws [first_draw, first_draw + n) of the keyed stream
// options.seed using the chunked driver. The sampler is shared read-only
// across threads (UniSSampler::SampleOne is const and carries no mutable
// state).
Result<std::vector<double>> ParallelUniSSample(
    const UniSSampler& sampler, int n, const ParallelSampleOptions& options,
    int first_draw = 0);

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
// function over the same driver as ParallelUniSSample. Draw i reads the
// same keyed stream as there and its fault epoch is i, and every chunk owns
// a private AccessSession (breaker state, virtual clock and session budget
// confined to the chunk's draws). Output — kept values, coverages, dropped
// count, and merged AccessStats — is bit-identical across every width, with
// or without a pool; it depends on chunk_draws only through breaker trips
// and the session budget. Draws with coverage < `min_coverage` are
// dropped, not errors. With a null fault model it draws exactly
// ParallelUniSSample's values and reports the same uniS counters.
Result<FaultAwareSampleResult> ParallelUniSSampleWithFaults(
    const UniSSampler& sampler, int n, const SourceAccessor& accessor,
    double min_coverage, const ParallelSampleOptions& options);

}  // namespace vastats

#endif  // VASTATS_SAMPLING_PARALLEL_H_
