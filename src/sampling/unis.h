// uniS — the paper's unbiased viable-answer sampler (§4.2).
//
// One uniS draw: visit the data sources in a uniformly random order; at each
// source, take *every* still-uncovered component the source binds, updating
// an incrementally-maintained partial aggregate; stop once all components of
// the query are covered (or all sources are exhausted); finalize the partial
// aggregate into one viable answer.
//
// Sources are selected uniformly and independently, with no quality or
// coverage priors — the paper's correctness requirement when no source
// meta-knowledge is available.

#ifndef VASTATS_SAMPLING_UNIS_H_
#define VASTATS_SAMPLING_UNIS_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "datagen/source_accessor.h"
#include "datagen/source_set.h"
#include "obs/obs.h"
#include "stats/aggregate_query.h"
#include "util/random.h"
#include "util/status.h"

namespace vastats {

struct UniSOptions {
  // When true (default), a draw fails unless every query component was
  // covered. When false, partially-covered draws finalize over the covered
  // subset (coverage is reported on the sample).
  bool require_full_coverage = true;
};

// One source visit within a uniS draw.
struct UniSVisit {
  int source = 0;
  // Components this visit supplied (0 when everything it binds was already
  // covered).
  int components_taken = 0;
};

// One viable answer drawn by uniS.
struct UniSSample {
  double value = 0.0;
  // Fraction of the query's components that were covered (1.0 normally).
  double coverage = 1.0;
  // Number of sources visited before coverage completed.
  int sources_visited = 0;
  // Number of sources that contributed at least one component — the
  // per-answer weight y of the stability analysis (Theorem 4.2).
  int sources_contributing = 0;
  // False when a degraded draw covered nothing at all (value is then
  // meaningless and must be discarded by the caller).
  bool value_valid = true;
  // Degraded-mode accounting (zero on the fault-free paths).
  int sources_failed = 0;        // visits that exhausted their retries
  int sources_skipped_open = 0;  // sources skipped on an open breaker
  bool truncated_by_deadline = false;
  // The visits in order (drives the cost model in integration/cost_model.h).
  std::vector<UniSVisit> visits;
};

// One component take within a uniS draw: `position` indexes
// `query().components`, `value` is the binding taken. The take sequence of a
// draw is a pure function of (rng state, component set, exclusions) — the
// aggregate kind only ever consumes takes, it never touches the rng — so
// replaying a recorded sequence through another kind's aggregator yields,
// bit for bit, the answer that kind would have sampled itself over the same
// component set. The serving batch path leans on this to share one pass of
// source visits across queries.
struct UniSTake {
  int position = 0;
  double value = 0.0;
};

// Per-draw uniS telemetry, shared by every sampling path (serial, chunked,
// through the seam): Record() costs integer adds, and Flush() adds the
// tally to the unis_draws_total, unis_source_visits_total,
// unis_component_takeovers_total and unis_contributing_sources_total
// counters once per batch or chunk. With `visited_histogram` set, Record()
// also observes each draw's visit count in unis_sources_visited_per_draw.
// Inert without a metrics registry.
class UniSDrawCounters {
 public:
  explicit UniSDrawCounters(const ObsOptions& obs,
                            bool visited_histogram = false);

  void Record(const UniSSample& sample);
  void Flush() const;

  uint64_t draws() const { return draws_; }

 private:
  const ObsOptions& obs_;
  Histogram visited_;
  uint64_t draws_ = 0;
  uint64_t visits_ = 0;
  uint64_t takeovers_ = 0;
  uint64_t contributing_ = 0;
};

class UniSSampler {
 public:
  // Validates that `sources` covers every component of `query` and
  // precomputes the per-source component lists. `sources` must outlive the
  // sampler.
  static Result<UniSSampler> Create(const SourceSet* sources,
                                    AggregateQuery query,
                                    UniSOptions options = {});

  // Draws one viable answer. `excluded` marks source indices that must not
  // be visited (used by the stability simulations); it may be empty.
  Result<UniSSample> SampleOne(Rng& rng,
                               std::span<const char> excluded = {}) const;

  // Like SampleOne, but also records the (position, value) takes of the draw
  // in visit order into `takes` (cleared first). Consumes exactly the same
  // rng stream as SampleOne and returns the identical sample.
  Result<UniSSample> SampleOneRecorded(Rng& rng, std::vector<UniSTake>& takes,
                                       std::span<const char> excluded = {}) const;

  // Finalizes a recorded take sequence through a fresh aggregator of `kind`:
  // the value the recorded draw would have produced had it been sampled for
  // that kind directly (see UniSTake).
  static Result<double> ReplayTakes(std::span<const UniSTake> takes,
                                    AggregateKind kind, double quantile_q);

  // Draws one answer through the fault-tolerant access seam: every source
  // visit goes through `session` (retry/backoff, circuit breakers, corrupt
  // value rejection, deadline budgets). Partial coverage never fails —
  // the draw finalizes over what it covered and reports the coverage; only
  // a draw that covered *nothing* comes back with value_valid == false.
  // The caller must have called session.BeginDraw()/BeginNextDraw() first.
  Result<UniSSample> SampleOneDegraded(
      Rng& rng, AccessSession& session,
      std::span<const char> excluded = {}) const;

  // Draws one answer visiting the sources in the given `order` instead of
  // a uniform shuffle: the draw loop of SampleOne with the visiting order
  // as an input. `order` lists distinct source indices in
  // [0, sources().NumSources()); sources missing from it are never visited.
  Result<UniSSample> SampleOneInOrder(std::span<const int> order) const;

  // Draws `n` answers through the access seam, auto-advancing the session
  // epoch per draw; the draw at epoch e reads the keyed stream
  // Rng(StreamKey(seed, StreamTag::kUniSDraw, e)), so a fresh session's
  // draws are draws 0, 1, ... of the one sample stream. Draws that covered
  // nothing are dropped; draws cut short by the session budget are
  // abandoned. One-session counterpart of ParallelUniSSampleWithFaults.
  Result<std::vector<UniSSample>> SampleDegraded(
      int n, uint64_t seed, AccessSession& session,
      const ObsOptions& obs = {}) const;

  // Draws `n` viable answer values from `rng`: SampleExcluding with nothing
  // excluded.
  Result<std::vector<double>> Sample(int n, Rng& rng,
                                     const ObsOptions& obs = {}) const;

  // Draws `n` viable answers with the given sources excluded. Fails when the
  // remaining sources cannot cover the query (under full-coverage options).
  // `obs` (optional) records a `unis_sample` span plus draw/visit/take-over
  // counters and the per-draw sources-visited histogram.
  Result<std::vector<double>> SampleExcluding(int n,
                                              std::span<const int> excluded,
                                              Rng& rng,
                                              const ObsOptions& obs = {}) const;

  // Monte-Carlo estimate of y, the average number of sources contributing
  // to an answer; probe j reads
  // Rng(StreamKey(seed, StreamTag::kWeightProbe, j)).
  Result<double> EstimateSourcesPerAnswer(int probes, uint64_t seed,
                                          const ObsOptions& obs = {}) const;

  // Draws one uniS value *assignment* instead of the aggregated answer:
  // result[i] is the source index supplying query().components[i]. Useful
  // when the evaluation itself happens elsewhere (e.g. pushed down an
  // aggregation hierarchy). Requires full coverage.
  Result<std::vector<int>> SampleAssignment(Rng& rng) const;

  // True when `query` remains fully coverable with `excluded` removed.
  bool CoverableWithout(std::span<const int> excluded) const;

  const AggregateQuery& query() const { return query_; }
  const SourceSet& sources() const { return *sources_; }
  int NumComponents() const { return static_cast<int>(query_.components.size()); }

 private:
  UniSSampler(const SourceSet* sources, AggregateQuery query,
              UniSOptions options);

  void BuildIndex();

  // A uniformly shuffled visiting order over the sources not `excluded`.
  std::vector<int> UniformOrder(Rng& rng, std::span<const char> excluded) const;

  // The one uniS draw loop. kThroughSeam = false is the fault-free loop
  // (`session` unused); true routes every visit through `session`. `takes`
  // (optional) records the draw's takes in visit order.
  template <bool kThroughSeam>
  Result<UniSSample> Draw(std::span<const int> order, AccessSession* session,
                          std::vector<UniSTake>* takes) const;

  const SourceSet* sources_;
  AggregateQuery query_;
  UniSOptions options_;
  // per_source_[s] lists (query position, value) for the query components
  // source s binds.
  std::vector<std::vector<std::pair<int, double>>> per_source_;
  // covering_[pos] lists the source indices binding component `pos`.
  std::vector<std::vector<int>> covering_;
  // ComponentId -> query position, for binding transported payloads (which
  // carry the source's full sorted bindings, not the query-filtered list).
  std::unordered_map<ComponentId, int> position_;
};

}  // namespace vastats

#endif  // VASTATS_SAMPLING_UNIS_H_
