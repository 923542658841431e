// Bootstrap resampling and bagging (Breiman 1996), per paper §2.1.
//
// Starting from an initial uniS sample set, the library draws
// `num_sets` bootstrap sample sets of `set_size` points each (with
// replacement), applies an estimator to each set to get an ensemble of
// replicates, and bags (aggregates) the ensemble into a single, lower
// variance estimate. The replicates also feed the confidence-interval
// machinery in stats/confidence.h.
//
// Keyed form: set b resamples from its own stream,
// Rng(StreamKey(seed, StreamTag::kBootstrapSet, b)), through
// `Rng::ResampleIndices` (the bootstrap resampling primitive), so a set
// depends on its index alone and the per-set statistic evaluations are
// independent tasks. Every evaluation entry point accepts an optional
// persistent `ThreadPool`; the pooled result is bit-identical to the serial
// one (replicate `s` is always the statistic of set `s` — only the
// execution order changes).

#ifndef VASTATS_STATS_BOOTSTRAP_H_
#define VASTATS_STATS_BOOTSTRAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "stats/jackknife.h"
#include "util/random.h"
#include "util/status.h"

namespace vastats {

class FlightRecorder;
class MetricsRegistry;
class ThreadPool;

struct BootstrapOptions {
  // Number of bootstrap sample sets, |S_boot| (paper default 50).
  int num_sets = 50;
  // Size of each bootstrap set, |B^i_boot|; 0 means "same as the data".
  int set_size = 0;

  Status Validate() const;
};

// Draws the resampling indices for `options.num_sets` bootstrap sets over a
// data vector of `data_size` points (one index vector per set, set b from
// the keyed stream (seed, kBootstrapSet, b)). The index sets are identical
// to the value sets of BootstrapSets under the same seed.
Result<std::vector<std::vector<int>>> BootstrapIndexSets(
    int data_size, const BootstrapOptions& options, uint64_t seed);

// Draws `options.num_sets` bootstrap sample sets from `data`.
Result<std::vector<std::vector<double>>> BootstrapSets(
    std::span<const double> data, const BootstrapOptions& options,
    uint64_t seed);

// Evaluates `statistic` on each bootstrap set of `data` and returns the
// ensemble of replicates (one value per set). With a `pool`, the per-set
// evaluations run as pool tasks after the indices are drawn in one batch;
// `metrics` and `recorder` (optional, borrowed) receive the pool's task
// telemetry.
Result<std::vector<double>> BootstrapReplicates(
    std::span<const double> data, const StatisticFn& statistic,
    const BootstrapOptions& options, uint64_t seed, ThreadPool* pool = nullptr,
    MetricsRegistry* metrics = nullptr, FlightRecorder* recorder = nullptr);

// Evaluates `statistic` on already-materialized bootstrap sets.
Result<std::vector<double>> ReplicatesFromSets(
    std::span<const std::vector<double>> sets, const StatisticFn& statistic,
    ThreadPool* pool = nullptr, MetricsRegistry* metrics = nullptr,
    FlightRecorder* recorder = nullptr);

// Index-based twin of ReplicatesFromSets: evaluates `statistic` on the set
// gathered from `data` by each index vector, without materializing the sets.
Result<std::vector<double>> ReplicatesFromIndexSets(
    std::span<const double> data,
    std::span<const std::vector<int>> index_sets, const StatisticFn& statistic,
    ThreadPool* pool = nullptr, MetricsRegistry* metrics = nullptr,
    FlightRecorder* recorder = nullptr);

// How the replicate ensemble is bagged into a single estimate.
enum class BagAggregator { kMean, kMedian };

// Aggregates a replicate ensemble (paper §2.1: "combining, e.g. averaging,
// this ensemble of estimates").
Result<double> Bag(std::span<const double> replicates,
                   BagAggregator aggregator);

}  // namespace vastats

#endif  // VASTATS_STATS_BOOTSTRAP_H_
