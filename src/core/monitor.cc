#include "core/monitor.h"

#include <algorithm>
#include <utility>

namespace vastats {
namespace {

// Quarantine span after the k-th consecutive failure: 0, 1, 2, 4, ...
// ticks. A single failure may be transient, so it costs nothing; repeat
// failures back off exponentially, capped so a long-broken query is still
// re-probed regularly.
constexpr int kMaxQuarantineShift = 6;  // cap: 64 ticks

int64_t QuarantineTicks(int consecutive_failures) {
  if (consecutive_failures <= 1) return 0;
  const int shift = std::min(consecutive_failures - 2, kMaxQuarantineShift);
  return int64_t{1} << shift;
}

// Refresh urgency of an entry, most urgent first: 0 = the last extraction
// ended with breakers still open (statistics computed against dark
// sources), 1 = it degraded in any other way, 2 = clean.
int DegradationRank(const AnswerStatistics& statistics) {
  if (statistics.degradation.access.SourcesOpen() > 0) return 0;
  if (statistics.degradation.degraded) return 1;
  return 2;
}

}  // namespace

ContinuousQueryMonitor::ContinuousQueryMonitor(const SourceSet* sources,
                                               ExtractorOptions base_options)
    : sources_(sources), base_options_(std::move(base_options)) {}

Status ContinuousQueryMonitor::CheckId(QueryId id) const {
  if (id < 0 || id >= NumQueries()) {
    return Status::OutOfRange("unknown query id " + std::to_string(id));
  }
  return Status::Ok();
}

Result<QueryId> ContinuousQueryMonitor::Register(AggregateQuery query) {
  if (sources_ == nullptr) {
    return Status::FailedPrecondition("monitor has no source set");
  }
  const ObsOptions& obs = base_options_.obs;
  ScopedSpan span(obs, "monitor_register");
  const QueryId id = NumQueries();
  span.Annotate("query_id", static_cast<int64_t>(id));
  ExtractorOptions options = base_options_;
  options.seed = StreamKey(base_options_.seed, StreamTag::kMonitorQuery,
                           static_cast<uint64_t>(id), /*refresh=*/0);
  VASTATS_ASSIGN_OR_RETURN(
      const AnswerStatisticsExtractor extractor,
      AnswerStatisticsExtractor::Create(sources_, query, options));
  VASTATS_ASSIGN_OR_RETURN(AnswerStatistics stats, extractor.Extract());
  entries_.push_back(Entry{std::move(query), std::move(stats), 1});
  if (obs.metrics != nullptr) {
    obs.GetCounter("monitor_registrations_total").Increment();
    obs.GetGauge("monitor_queue_depth").Set(static_cast<double>(NumQueries()));
  }
  return id;
}

Result<AnswerStatistics> ContinuousQueryMonitor::Statistics(
    QueryId id) const {
  VASTATS_RETURN_IF_ERROR(CheckId(id));
  return entries_[static_cast<size_t>(id)].statistics;
}

Result<double> ContinuousQueryMonitor::Stability(QueryId id) const {
  VASTATS_RETURN_IF_ERROR(CheckId(id));
  return entries_[static_cast<size_t>(id)].statistics.stability.stab_l2;
}

std::vector<QueryId> ContinuousQueryMonitor::RefreshOrder() const {
  std::vector<QueryId> order(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    order[i] = static_cast<QueryId>(i);
  }
  std::sort(order.begin(), order.end(), [this](QueryId a, QueryId b) {
    const AnswerStatistics& sa = entries_[static_cast<size_t>(a)].statistics;
    const AnswerStatistics& sb = entries_[static_cast<size_t>(b)].statistics;
    const int rank_a = DegradationRank(sa);
    const int rank_b = DegradationRank(sb);
    if (rank_a != rank_b) return rank_a < rank_b;
    return sa.stability.stab_l2 < sb.stability.stab_l2;
  });
  return order;
}

Result<std::vector<double>> ContinuousQueryMonitor::QualityPriors(
    QueryId id, const SourceQualityOptions& quality,
    const BreakerSeverityPriorOptions& severity) const {
  VASTATS_RETURN_IF_ERROR(CheckId(id));
  const Entry& entry = entries_[static_cast<size_t>(id)];
  VASTATS_ASSIGN_OR_RETURN(
      std::vector<double> weights,
      EstimateSourceQuality(*sources_, entry.query.components, quality));
  return ApplyBreakerSeverityPriors(
      std::move(weights),
      entry.statistics.degradation.access.breaker_severity, severity);
}

Status ContinuousQueryMonitor::Refresh(QueryId id) {
  VASTATS_RETURN_IF_ERROR(CheckId(id));
  const ObsOptions& obs = base_options_.obs;
  ScopedSpan span(obs, "monitor_refresh");
  span.Annotate("query_id", static_cast<int64_t>(id));
  Entry& entry = entries_[static_cast<size_t>(id)];
  ExtractorOptions options = base_options_;
  options.seed = StreamKey(base_options_.seed, StreamTag::kMonitorQuery,
                           static_cast<uint64_t>(id),
                           static_cast<uint64_t>(entry.refreshes));
  // Re-create the extractor so changed bindings (and broken coverage) are
  // observed.
  auto extractor =
      AnswerStatisticsExtractor::Create(sources_, entry.query, options);
  auto stats = extractor.ok() ? extractor->Extract() : extractor.status();
  if (!stats.ok()) {
    obs.GetCounter("monitor_refresh_failures_total").Increment();
    // Exponential quarantine backoff: 1, 2, 4, ... ticks (capped), so a
    // persistently failing query sits out RefreshLeastStable rounds.
    ++entry.consecutive_failures;
    entry.quarantined_until_tick =
        tick_ + QuarantineTicks(entry.consecutive_failures);
    obs.GetGauge("monitor_quarantined_queries")
        .Set(static_cast<double>(std::count_if(
            entries_.begin(), entries_.end(), [this](const Entry& e) {
              return e.quarantined_until_tick > tick_;
            })));
    return stats.status();
  }
  entry.statistics = std::move(stats).value();
  ++entry.refreshes;
  // Decay, not reset: one lucky refresh of a flaky query halves the streak
  // so its next failure re-quarantines with history intact.
  entry.consecutive_failures /= 2;
  entry.quarantined_until_tick = 0;
  obs.GetCounter("monitor_refreshes_total").Increment();
  if (obs.metrics != nullptr && entry.statistics.degradation.degraded) {
    obs.GetCounter("monitor_degraded_refreshes_total").Increment();
  }
  return Status::Ok();
}

Result<DriftReport> ContinuousQueryMonitor::RefreshWithDrift(
    QueryId id, const DriftOptions& options) {
  VASTATS_RETURN_IF_ERROR(CheckId(id));
  const ObsOptions& obs = base_options_.obs;
  ScopedSpan span(obs, "monitor_refresh_with_drift");
  span.Annotate("query_id", static_cast<int64_t>(id));
  // Snapshot what the drift must be measured against before refreshing.
  const GridDensity previous_density =
      entries_[static_cast<size_t>(id)].statistics.density;
  const double previous_stability =
      entries_[static_cast<size_t>(id)].statistics.stability.stab_l2;
  VASTATS_RETURN_IF_ERROR(Refresh(id));
  VASTATS_ASSIGN_OR_RETURN(
      const DriftReport report,
      AssessDrift(previous_density, previous_stability,
                  entries_[static_cast<size_t>(id)].statistics.density,
                  options));
  span.Annotate("realized_l2", report.realized_l2);
  span.Annotate("drift_ratio", report.ratio);
  span.Annotate("anomalous", report.anomalous);
  if (report.anomalous && drift_listener_ != nullptr) {
    // The drift assessment sees only the answer distribution, not which
    // source moved it — so conservatively notify every source in the
    // query's closure. Downstream caches over any of those sources must
    // not serve pre-drift entries.
    const AggregateQuery& query = entries_[static_cast<size_t>(id)].query;
    std::vector<char> notified(
        static_cast<size_t>(sources_->NumSources()), 0);
    for (const ComponentId component : query.components) {
      for (const int s : sources_->Covering(component)) {
        if (notified[static_cast<size_t>(s)]) continue;
        notified[static_cast<size_t>(s)] = 1;
        VASTATS_RETURN_IF_ERROR(NotifySourceChanged(s));
      }
    }
  }
  if (obs.metrics != nullptr) {
    obs.GetCounter("monitor_drift_checks_total").Increment();
    if (report.anomalous) {
      obs.GetCounter("monitor_drift_anomalies_total").Increment();
    }
    // Buckets in units of the predicted one-churn-event drift; the
    // anomaly threshold (tolerance_factor, default 3) sits mid-range.
    static constexpr double kRatioBuckets[] = {0.25, 0.5, 1.0, 2.0,
                                               3.0,  5.0, 10.0};
    obs.GetHistogram("monitor_drift_ratio", kRatioBuckets)
        .Observe(report.ratio);
  }
  return report;
}

Status ContinuousQueryMonitor::NotifySourceChanged(int source) {
  if (source < 0 || source >= sources_->NumSources()) {
    return Status::OutOfRange("NotifySourceChanged: source " +
                              std::to_string(source) + " out of [0, " +
                              std::to_string(sources_->NumSources()) + ")");
  }
  base_options_.obs.GetCounter("monitor_source_drift_notices_total")
      .Increment();
  if (drift_listener_ != nullptr) drift_listener_->OnSourceDrift(source);
  return Status::Ok();
}

Result<std::vector<QueryId>> ContinuousQueryMonitor::RefreshLeastStable(
    int budget, std::vector<QueryId>* failed) {
  if (budget <= 0) {
    return Status::InvalidArgument("RefreshLeastStable needs budget > 0");
  }
  const ObsOptions& obs = base_options_.obs;
  ScopedSpan span(obs, "monitor_refresh_least_stable");
  span.Annotate("budget", static_cast<int64_t>(budget));
  ++tick_;
  int quarantine_skips = 0;
  std::vector<QueryId> refreshed;
  for (const QueryId id : RefreshOrder()) {
    if (static_cast<int>(refreshed.size()) >= budget) break;
    if (entries_[static_cast<size_t>(id)].quarantined_until_tick >= tick_) {
      ++quarantine_skips;
      continue;
    }
    const Status status = Refresh(id);
    if (status.ok()) {
      refreshed.push_back(id);
    } else if (failed != nullptr) {
      failed->push_back(id);
    }
  }
  if (obs.metrics != nullptr && quarantine_skips > 0) {
    obs.GetCounter("monitor_quarantine_skips_total")
        .Increment(static_cast<uint64_t>(quarantine_skips));
  }
  span.Annotate("refreshed", static_cast<int64_t>(refreshed.size()));
  span.Annotate("quarantine_skips", static_cast<int64_t>(quarantine_skips));
  return refreshed;
}

Result<int> ContinuousQueryMonitor::RefreshCount(QueryId id) const {
  VASTATS_RETURN_IF_ERROR(CheckId(id));
  return entries_[static_cast<size_t>(id)].refreshes;
}

Result<int> ContinuousQueryMonitor::ConsecutiveFailures(QueryId id) const {
  VASTATS_RETURN_IF_ERROR(CheckId(id));
  return entries_[static_cast<size_t>(id)].consecutive_failures;
}

Result<bool> ContinuousQueryMonitor::Quarantined(QueryId id) const {
  VASTATS_RETURN_IF_ERROR(CheckId(id));
  return entries_[static_cast<size_t>(id)].quarantined_until_tick > tick_;
}

}  // namespace vastats
