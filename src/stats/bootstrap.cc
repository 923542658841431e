#include "stats/bootstrap.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"
#include "util/thread_pool.h"

namespace vastats {
namespace {

// Evaluates replicates[s] = statistic(set_s) for s in [0, num_sets), either
// inline or as pool tasks. `evaluate` must be safe to run concurrently for
// distinct s (it only reads shared data and writes its own slot).
Result<std::vector<double>> EvaluateReplicates(
    int num_sets, ThreadPool* pool, MetricsRegistry* metrics,
    FlightRecorder* recorder, const std::function<double(int)>& evaluate) {
  std::vector<double> replicates(static_cast<size_t>(num_sets));
  auto task = [&](int s) -> Status {
    replicates[static_cast<size_t>(s)] = evaluate(s);
    return Status::Ok();
  };
  if (pool != nullptr) {
    PoolMetricsObserver pool_observer(metrics, recorder);
    VASTATS_RETURN_IF_ERROR(pool->ParallelFor(num_sets, task, &pool_observer));
  } else {
    for (int s = 0; s < num_sets; ++s) {
      VASTATS_RETURN_IF_ERROR(task(s));
    }
  }
  return replicates;
}

}  // namespace

Status BootstrapOptions::Validate() const {
  if (num_sets <= 0) {
    return Status::InvalidArgument("BootstrapOptions.num_sets must be > 0");
  }
  if (set_size < 0) {
    return Status::InvalidArgument("BootstrapOptions.set_size must be >= 0");
  }
  return Status::Ok();
}

Result<std::vector<std::vector<int>>> BootstrapIndexSets(
    int data_size, const BootstrapOptions& options, uint64_t seed) {
  VASTATS_RETURN_IF_ERROR(options.Validate());
  if (data_size <= 0) {
    return Status::InvalidArgument("BootstrapIndexSets requires data_size > 0");
  }
  const int set_size = options.set_size > 0 ? options.set_size : data_size;
  std::vector<std::vector<int>> index_sets;
  index_sets.reserve(static_cast<size_t>(options.num_sets));
  for (int b = 0; b < options.num_sets; ++b) {
    Rng rng(
        StreamKey(seed, StreamTag::kBootstrapSet, static_cast<uint64_t>(b)));
    index_sets.push_back(rng.ResampleIndices(data_size, set_size));
  }
  return index_sets;
}

Result<std::vector<std::vector<double>>> BootstrapSets(
    std::span<const double> data, const BootstrapOptions& options,
    uint64_t seed) {
  if (data.empty()) {
    return Status::InvalidArgument("BootstrapSets requires non-empty data");
  }
  VASTATS_ASSIGN_OR_RETURN(
      const std::vector<std::vector<int>> index_sets,
      BootstrapIndexSets(static_cast<int>(data.size()), options, seed));
  std::vector<std::vector<double>> sets;
  sets.reserve(index_sets.size());
  for (const std::vector<int>& indices : index_sets) {
    std::vector<double> set(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      set[i] = data[static_cast<size_t>(indices[i])];
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

Result<std::vector<double>> BootstrapReplicates(
    std::span<const double> data, const StatisticFn& statistic,
    const BootstrapOptions& options, uint64_t seed, ThreadPool* pool,
    MetricsRegistry* metrics, FlightRecorder* recorder) {
  if (data.empty()) {
    return Status::InvalidArgument(
        "BootstrapReplicates requires non-empty data");
  }
  VASTATS_ASSIGN_OR_RETURN(
      const std::vector<std::vector<int>> index_sets,
      BootstrapIndexSets(static_cast<int>(data.size()), options, seed));
  return ReplicatesFromIndexSets(data, index_sets, statistic, pool, metrics,
                                 recorder);
}

Result<std::vector<double>> ReplicatesFromSets(
    std::span<const std::vector<double>> sets, const StatisticFn& statistic,
    ThreadPool* pool, MetricsRegistry* metrics, FlightRecorder* recorder) {
  if (sets.empty()) {
    return Status::InvalidArgument("ReplicatesFromSets requires >= 1 set");
  }
  for (const std::vector<double>& set : sets) {
    if (set.empty()) {
      return Status::InvalidArgument("ReplicatesFromSets: empty sample set");
    }
  }
  return EvaluateReplicates(
      static_cast<int>(sets.size()), pool, metrics, recorder,
      [&](int s) { return statistic(sets[static_cast<size_t>(s)]); });
}

Result<std::vector<double>> ReplicatesFromIndexSets(
    std::span<const double> data,
    std::span<const std::vector<int>> index_sets, const StatisticFn& statistic,
    ThreadPool* pool, MetricsRegistry* metrics, FlightRecorder* recorder) {
  if (data.empty()) {
    return Status::InvalidArgument(
        "ReplicatesFromIndexSets requires non-empty data");
  }
  if (index_sets.empty()) {
    return Status::InvalidArgument(
        "ReplicatesFromIndexSets requires >= 1 index set");
  }
  for (const std::vector<int>& indices : index_sets) {
    if (indices.empty()) {
      return Status::InvalidArgument(
          "ReplicatesFromIndexSets: empty index set");
    }
    for (const int index : indices) {
      if (index < 0 || static_cast<size_t>(index) >= data.size()) {
        return Status::OutOfRange(
            "ReplicatesFromIndexSets: index outside the data");
      }
    }
  }
  return EvaluateReplicates(
      static_cast<int>(index_sets.size()), pool, metrics, recorder, [&](int s) {
        const std::vector<int>& indices = index_sets[static_cast<size_t>(s)];
        // Gathered into a task-local buffer so concurrent evaluations never
        // share scratch space.
        std::vector<double> buffer(indices.size());
        for (size_t i = 0; i < indices.size(); ++i) {
          buffer[i] = data[static_cast<size_t>(indices[i])];
        }
        return statistic(buffer);
      });
}

Result<double> Bag(std::span<const double> replicates,
                   BagAggregator aggregator) {
  if (replicates.empty()) {
    return Status::InvalidArgument("Bag requires >= 1 replicate");
  }
  switch (aggregator) {
    case BagAggregator::kMean:
      return ComputeMoments(replicates).mean();
    case BagAggregator::kMedian:
      return Median(replicates);
  }
  return Status::Internal("unknown BagAggregator");
}

}  // namespace vastats
