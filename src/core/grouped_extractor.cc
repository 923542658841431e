#include "core/grouped_extractor.h"

namespace vastats {

std::vector<std::string> GroupedAnswer::PassingKeys(
    double min_probability) const {
  std::vector<std::string> keys;
  for (const GroupAnswer& group : groups) {
    if (group.having_probability >= min_probability) {
      keys.push_back(group.key);
    }
  }
  return keys;
}

Result<GroupedQueryEvaluator> GroupedQueryEvaluator::Create(
    const SourceSet* sources, GroupedAggregateQuery query,
    ExtractorOptions options) {
  if (sources == nullptr) {
    return Status::InvalidArgument("GroupedQueryEvaluator needs a SourceSet");
  }
  VASTATS_RETURN_IF_ERROR(query.Validate());
  VASTATS_RETURN_IF_ERROR(options.Validate());
  for (const QueryGroup& group : query.groups) {
    VASTATS_RETURN_IF_ERROR(sources->ValidateCoverage(group.components));
  }
  return GroupedQueryEvaluator(sources, std::move(query), std::move(options));
}

Result<GroupedAnswer> GroupedQueryEvaluator::Evaluate() const {
  GroupedAnswer answer;
  answer.groups.reserve(query_.groups.size());
  for (size_t g = 0; g < query_.groups.size(); ++g) {
    ExtractorOptions options = options_;
    options.seed = StreamKey(options_.seed, StreamTag::kGroup, g);
    VASTATS_ASSIGN_OR_RETURN(
        const AnswerStatisticsExtractor extractor,
        AnswerStatisticsExtractor::Create(sources_, query_.GroupQuery(g),
                                          options));
    VASTATS_ASSIGN_OR_RETURN(AnswerStatistics stats, extractor.Extract());

    double having_probability = 1.0;
    if (query_.has_having) {
      // Pass probability over the viable answer samples. When the HAVING
      // aggregate differs from the SELECT aggregate, draw a dedicated
      // sample of the HAVING aggregate's viable answers, draw i keyed by
      // (group seed, kHavingSample, i).
      std::vector<double> having_samples;
      if (query_.having.aggregate == query_.aggregate) {
        having_samples = stats.samples;
      } else {
        AggregateQuery having_query = query_.GroupQuery(g);
        having_query.kind = query_.having.aggregate;
        VASTATS_ASSIGN_OR_RETURN(
            const UniSSampler having_sampler,
            UniSSampler::Create(sources_, having_query));
        for (size_t i = 0; i < stats.samples.size(); ++i) {
          Rng rng(StreamKey(options.seed, StreamTag::kHavingSample, i));
          VASTATS_ASSIGN_OR_RETURN(const UniSSample draw,
                                   having_sampler.SampleOne(rng));
          having_samples.push_back(draw.value);
        }
      }
      int passing = 0;
      for (const double v : having_samples) {
        if (query_.having.Test(v)) ++passing;
      }
      having_probability =
          having_samples.empty()
              ? 0.0
              : static_cast<double>(passing) /
                    static_cast<double>(having_samples.size());
    }
    answer.groups.push_back(GroupAnswer{query_.groups[g].key,
                                        std::move(stats),
                                        having_probability});
  }
  return answer;
}

}  // namespace vastats
