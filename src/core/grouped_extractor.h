// Evaluation of grouped aggregate queries (GROUP BY / HAVING) on top of the
// answer-statistics extractor: one viable answer distribution per group,
// plus the probability that each group satisfies the HAVING predicate.
//
// In a heterogeneous information system the HAVING clause of the paper's
// introductory query ("HAVING Average(Temp) > 20") is not a crisp filter:
// a group may pass for some source/value combinations and fail for others.
// The evaluator reports that pass probability so clients can threshold it
// (e.g. keep groups passing with >= 95% of viable answers).

#ifndef VASTATS_CORE_GROUPED_EXTRACTOR_H_
#define VASTATS_CORE_GROUPED_EXTRACTOR_H_

#include <string>
#include <vector>

#include "core/extractor.h"
#include "integration/grouped_query.h"

namespace vastats {

struct GroupAnswer {
  std::string key;
  AnswerStatistics statistics;
  // Fraction of the group's viable answer samples satisfying the HAVING
  // clause (1.0 when the query has none).
  double having_probability = 1.0;
};

struct GroupedAnswer {
  std::vector<GroupAnswer> groups;

  // Keys of the groups whose HAVING pass probability reaches
  // `min_probability`.
  std::vector<std::string> PassingKeys(double min_probability) const;
};

class GroupedQueryEvaluator {
 public:
  // `sources` must outlive the evaluator.
  static Result<GroupedQueryEvaluator> Create(const SourceSet* sources,
                                              GroupedAggregateQuery query,
                                              ExtractorOptions options);

  // Runs Algorithm 1 per group; group g uses the keyed seed
  // StreamKey(options.seed, StreamTag::kGroup, g) so runs are reproducible
  // and groups independent.
  Result<GroupedAnswer> Evaluate() const;

  const GroupedAggregateQuery& query() const { return query_; }

 private:
  GroupedQueryEvaluator(const SourceSet* sources, GroupedAggregateQuery query,
                        ExtractorOptions options)
      : sources_(sources),
        query_(std::move(query)),
        options_(std::move(options)) {}

  const SourceSet* sources_;
  GroupedAggregateQuery query_;
  ExtractorOptions options_;
};

}  // namespace vastats

#endif  // VASTATS_CORE_GROUPED_EXTRACTOR_H_
