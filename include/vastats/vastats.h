// vastats — Viable Answer Statistics for heterogeneous data integration.
//
// Umbrella header re-exporting the public API. Typical usage:
//
//   #include "vastats/vastats.h"
//
//   vastats::SourceSet sources = ...;            // register data sources
//   vastats::AggregateQuery query = ...;          // sum/avg/... over components
//   auto extractor = vastats::AnswerStatisticsExtractor::Create(
//       &sources, query, vastats::ExtractorOptions{});
//   auto stats = extractor->Extract();            // Algorithm 1
//   // stats->mean / variance / skewness with BCa CIs,
//   // stats->coverage (high coverage intervals), stats->stability.

#ifndef VASTATS_VASTATS_H_
#define VASTATS_VASTATS_H_

#include "core/cio.h"
#include "core/drift.h"
#include "core/extractor.h"
#include "core/grouped_extractor.h"
#include "core/monitor.h"
#include "core/report.h"
#include "core/stability.h"
#include "core/uncertain_export.h"
#include "datagen/climate.h"
#include "datagen/distributions.h"
#include "datagen/source_builder.h"
#include "density/bagged_kde.h"
#include "fusion/fusion.h"
#include "density/density_io.h"
#include "density/distance.h"
#include "density/grid_density.h"
#include "density/histogram.h"
#include "density/kde.h"
#include "datagen/component.h"
#include "datagen/data_source.h"
#include "integration/cost_model.h"
#include "datagen/fault_model.h"
#include "integration/hierarchy.h"
#include "integration/io.h"
#include "integration/mediated_schema.h"
#include "integration/record_mapper.h"
#include "datagen/source_accessor.h"
#include "datagen/source_set.h"
#include "integration/stratification.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "stats/aggregate.h"
#include "stats/aggregate_query.h"
#include "integration/grouped_query.h"
#include "query/mediated_query.h"
#include "sampling/query_processor.h"
#include "sampling/adaptive.h"
#include "sampling/exhaustive.h"
#include "sampling/parallel.h"
#include "sampling/unis.h"
#include "sampling/weighted.h"
#include "serving/caches.h"
#include "serving/fingerprint.h"
#include "serving/scheduler.h"
#include "serving/server.h"
#include "stats/bootstrap.h"
#include "stats/confidence.h"
#include "stats/descriptive.h"
#include "stats/direct_inference.h"
#include "stats/jackknife.h"
#include "stats/ks_test.h"
#include "transport/async_transport.h"
#include "transport/clock_map.h"
#include "transport/endpoint.h"
#include "util/csv.h"
#include "util/fft.h"
#include "util/json_reader.h"
#include "util/json_writer.h"
#include "util/math.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

#endif  // VASTATS_VASTATS_H_
