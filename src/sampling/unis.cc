#include "sampling/unis.h"

#include <string>
#include <unordered_map>

namespace vastats {
namespace {

// Histogram buckets for "sources visited before coverage" — doubling steps
// up to well past any realistic source count per draw.
constexpr double kVisitBuckets[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

}  // namespace

UniSDrawCounters::UniSDrawCounters(const ObsOptions& obs,
                                   bool visited_histogram)
    : obs_(obs) {
  if (visited_histogram) {
    visited_ = obs.GetHistogram("unis_sources_visited_per_draw", kVisitBuckets);
  }
}

void UniSDrawCounters::Record(const UniSSample& sample) {
  if (obs_.metrics == nullptr) return;
  ++draws_;
  visits_ += static_cast<uint64_t>(sample.sources_visited);
  contributing_ += static_cast<uint64_t>(sample.sources_contributing);
  for (const UniSVisit& visit : sample.visits) {
    takeovers_ += static_cast<uint64_t>(visit.components_taken);
  }
  if (visited_.attached()) {
    visited_.Observe(static_cast<double>(sample.sources_visited));
  }
}

void UniSDrawCounters::Flush() const {
  if (obs_.metrics == nullptr) return;
  obs_.GetCounter("unis_draws_total").Increment(draws_);
  obs_.GetCounter("unis_source_visits_total").Increment(visits_);
  obs_.GetCounter("unis_component_takeovers_total").Increment(takeovers_);
  obs_.GetCounter("unis_contributing_sources_total").Increment(contributing_);
}

UniSSampler::UniSSampler(const SourceSet* sources, AggregateQuery query,
                         UniSOptions options)
    : sources_(sources), query_(std::move(query)), options_(options) {
  BuildIndex();
}

Result<UniSSampler> UniSSampler::Create(const SourceSet* sources,
                                        AggregateQuery query,
                                        UniSOptions options) {
  if (sources == nullptr) {
    return Status::InvalidArgument("UniSSampler requires a SourceSet");
  }
  VASTATS_RETURN_IF_ERROR(query.Validate());
  VASTATS_RETURN_IF_ERROR(sources->ValidateCoverage(query.components));
  return UniSSampler(sources, std::move(query), options);
}

void UniSSampler::BuildIndex() {
  const size_t m = query_.components.size();
  position_.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    position_[query_.components[i]] = static_cast<int>(i);
  }
  const int num_sources = sources_->NumSources();
  per_source_.assign(static_cast<size_t>(num_sources), {});
  covering_.assign(m, {});
  for (int s = 0; s < num_sources; ++s) {
    const DataSource& source = sources_->source(s);
    auto& list = per_source_[static_cast<size_t>(s)];
    for (const auto& [component, value] : source.SortedBindings()) {
      const auto it = position_.find(component);
      if (it == position_.end()) continue;
      list.emplace_back(it->second, value);
      covering_[static_cast<size_t>(it->second)].push_back(s);
    }
  }
}

std::vector<int> UniSSampler::UniformOrder(
    Rng& rng, std::span<const char> excluded) const {
  const int num_sources = sources_->NumSources();
  std::vector<int> order;
  order.reserve(static_cast<size_t>(num_sources));
  for (int s = 0; s < num_sources; ++s) {
    if (!excluded.empty() && excluded[static_cast<size_t>(s)]) continue;
    order.push_back(s);
  }
  rng.Shuffle(order);
  return order;
}

Result<UniSSample> UniSSampler::SampleOne(
    Rng& rng, std::span<const char> excluded) const {
  return Draw<false>(UniformOrder(rng, excluded), nullptr, nullptr);
}

Result<UniSSample> UniSSampler::SampleOneRecorded(
    Rng& rng, std::vector<UniSTake>& takes,
    std::span<const char> excluded) const {
  takes.clear();
  return Draw<false>(UniformOrder(rng, excluded), nullptr, &takes);
}

Result<UniSSample> UniSSampler::SampleOneInOrder(
    std::span<const int> order) const {
  return Draw<false>(order, nullptr, nullptr);
}

Result<UniSSample> UniSSampler::SampleOneDegraded(
    Rng& rng, AccessSession& session, std::span<const char> excluded) const {
  return Draw<true>(UniformOrder(rng, excluded), &session, nullptr);
}

Result<double> UniSSampler::ReplayTakes(std::span<const UniSTake> takes,
                                        AggregateKind kind,
                                        double quantile_q) {
  const std::unique_ptr<PartialAggregator> partial =
      NewAggregator(kind, quantile_q);
  for (const UniSTake& take : takes) partial->Add(take.value);
  return partial->Finalize();
}

template <bool kThroughSeam>
Result<UniSSample> UniSSampler::Draw(std::span<const int> order,
                                     AccessSession* session,
                                     std::vector<UniSTake>* takes) const {
  const int m = NumComponents();
  if constexpr (kThroughSeam) {
    if (session->transport_attached()) {
      // Stage the order so a pipelined transport can prefetch the visit
      // sequence ahead of consumption. Staging never touches the rng or
      // the virtual clock, so the drawn sample is unchanged.
      std::vector<int> counts(order.size(), 0);
      for (size_t i = 0; i < order.size(); ++i) {
        counts[i] = static_cast<int>(
            per_source_[static_cast<size_t>(order[i])].size());
      }
      session->StageVisits(order, counts);
    }
  }

  std::vector<char> covered(static_cast<size_t>(m), 0);
  int num_covered = 0;
  const std::unique_ptr<PartialAggregator> partial =
      NewAggregator(query_.kind, query_.quantile_q);

  UniSSample sample;
  sample.visits.reserve(order.size());
  // Transported bindings of the current visit, mapped to query positions.
  std::vector<std::pair<int, double>> payload;
  for (const int s : order) {
    std::span<const std::pair<int, double>> bindings =
        per_source_[static_cast<size_t>(s)];
    if constexpr (kThroughSeam) {
      if (session->DrawDeadlineExhausted()) {
        sample.truncated_by_deadline = true;
        session->RecordDeadlineTruncation();
        break;
      }
      const AccessSession::VisitOutcome outcome =
          session->Visit(s, static_cast<int>(bindings.size()));
      if (outcome.skipped_breaker_open) {
        ++sample.sources_skipped_open;
        continue;
      }
      ++sample.sources_visited;
      if (!outcome.ok) {
        ++sample.sources_failed;
        sample.visits.push_back(UniSVisit{s, 0});
        continue;
      }
      if (session->transport_attached()) {
        // Bind from the transferred payload: the wire carries the source's
        // full sorted bindings, and filtering them through the query
        // position map reproduces per_source_'s (pos, value) sequence
        // exactly — so a model-virtual transport draw is bit-identical to
        // a simulated one.
        payload.clear();
        for (const TransportBinding& binding : session->last_payload()) {
          const auto it = position_.find(binding.component);
          if (it != position_.end()) {
            payload.emplace_back(it->second, binding.value);
          }
        }
        bindings = payload;
      }
    } else {
      ++sample.sources_visited;
    }
    int taken = 0;
    for (const auto& [pos, value] : bindings) {
      if (covered[static_cast<size_t>(pos)]) continue;
      if constexpr (kThroughSeam) {
        if (session->ValueCorrupted(s, pos)) continue;
      }
      covered[static_cast<size_t>(pos)] = 1;
      ++num_covered;
      partial->Add(value);
      if (takes != nullptr) takes->push_back(UniSTake{pos, value});
      ++taken;
    }
    sample.visits.push_back(UniSVisit{s, taken});
    if (taken > 0) ++sample.sources_contributing;
    if (num_covered == m) break;
  }

  sample.coverage = static_cast<double>(num_covered) / static_cast<double>(m);
  if constexpr (kThroughSeam) {
    if (num_covered == 0) {
      // Nothing bound: no answer to finalize. Degraded, not an error — the
      // caller drops the draw and keeps sampling.
      sample.value_valid = false;
      return sample;
    }
  } else if (num_covered < m && options_.require_full_coverage) {
    return Status::FailedPrecondition(
        "uniS covered only " + std::to_string(num_covered) + " of " +
        std::to_string(m) + " components (sources missing or excluded)");
  }
  VASTATS_ASSIGN_OR_RETURN(sample.value, partial->Finalize());
  return sample;
}

Result<std::vector<UniSSample>> UniSSampler::SampleDegraded(
    int n, uint64_t seed, AccessSession& session,
    const ObsOptions& obs) const {
  if (n <= 0) return Status::InvalidArgument("SampleDegraded requires n > 0");
  ScopedSpan span(obs, "unis_sample_degraded");
  UniSDrawCounters counters(obs);
  uint64_t draws = 0;
  std::vector<UniSSample> samples;
  samples.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (session.SessionBudgetExhausted()) break;
    Rng rng(StreamKey(seed, StreamTag::kUniSDraw,
                      static_cast<uint64_t>(session.BeginNextDraw())));
    VASTATS_ASSIGN_OR_RETURN(UniSSample s, SampleOneDegraded(rng, session));
    ++draws;
    counters.Record(s);
    if (!s.value_valid) continue;
    samples.push_back(std::move(s));
  }
  counters.Flush();
  span.Annotate("draws", static_cast<int64_t>(draws));
  span.Annotate("kept", static_cast<int64_t>(samples.size()));
  return samples;
}

Result<std::vector<double>> UniSSampler::Sample(int n, Rng& rng,
                                                const ObsOptions& obs) const {
  return SampleExcluding(n, {}, rng, obs);
}

bool UniSSampler::CoverableWithout(std::span<const int> excluded) const {
  std::vector<char> mask(static_cast<size_t>(sources_->NumSources()), false);
  for (const int s : excluded) {
    if (s >= 0 && s < sources_->NumSources()) mask[static_cast<size_t>(s)] = 1;
  }
  for (const auto& covering : covering_) {
    bool ok = false;
    for (const int s : covering) {
      if (!mask[static_cast<size_t>(s)]) {
        ok = true;
        break;
      }
    }
    if (!ok) return false;
  }
  return true;
}

Result<std::vector<double>> UniSSampler::SampleExcluding(
    int n, std::span<const int> excluded, Rng& rng,
    const ObsOptions& obs) const {
  if (n <= 0) return Status::InvalidArgument("Sample requires n > 0");
  if (options_.require_full_coverage && !CoverableWithout(excluded)) {
    return Status::FailedPrecondition(
        "query is not coverable with the given sources excluded");
  }
  std::vector<char> mask(static_cast<size_t>(sources_->NumSources()), false);
  for (const int s : excluded) {
    if (s < 0 || s >= sources_->NumSources()) {
      return Status::OutOfRange("excluded source index out of range");
    }
    mask[static_cast<size_t>(s)] = 1;
  }
  ScopedSpan span(obs, "unis_sample");
  UniSDrawCounters counters(obs, /*visited_histogram=*/true);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    VASTATS_ASSIGN_OR_RETURN(const UniSSample s, SampleOne(rng, mask));
    values.push_back(s.value);
    counters.Record(s);
  }
  counters.Flush();
  span.Annotate("draws", static_cast<int64_t>(n));
  span.Annotate("excluded", static_cast<int64_t>(excluded.size()));
  return values;
}

Result<std::vector<int>> UniSSampler::SampleAssignment(Rng& rng) const {
  const int m = NumComponents();
  std::vector<int> order = rng.Permutation(sources_->NumSources());
  std::vector<int> assignment(static_cast<size_t>(m), -1);
  int num_covered = 0;
  for (const int s : order) {
    for (const auto& [pos, value] : per_source_[static_cast<size_t>(s)]) {
      if (assignment[static_cast<size_t>(pos)] >= 0) continue;
      assignment[static_cast<size_t>(pos)] = s;
      ++num_covered;
    }
    if (num_covered == m) break;
  }
  if (num_covered < m) {
    return Status::FailedPrecondition(
        "uniS assignment covered only " + std::to_string(num_covered) +
        " of " + std::to_string(m) + " components");
  }
  return assignment;
}

Result<double> UniSSampler::EstimateSourcesPerAnswer(
    int probes, uint64_t seed, const ObsOptions& obs) const {
  if (probes <= 0) {
    return Status::InvalidArgument("EstimateSourcesPerAnswer needs probes > 0");
  }
  ScopedSpan span(obs, "unis_estimate_weight");
  UniSDrawCounters counters(obs);
  double total = 0.0;
  for (int j = 0; j < probes; ++j) {
    Rng rng(
        StreamKey(seed, StreamTag::kWeightProbe, static_cast<uint64_t>(j)));
    VASTATS_ASSIGN_OR_RETURN(const UniSSample s, SampleOne(rng));
    total += static_cast<double>(s.sources_contributing);
    counters.Record(s);
  }
  counters.Flush();
  const double y = total / static_cast<double>(probes);
  span.Annotate("probes", static_cast<int64_t>(probes));
  span.Annotate("answer_weight_y", y);
  return y;
}

}  // namespace vastats
