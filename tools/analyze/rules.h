// The analyzer's rule set.
//
// R1-R7 are token-stream ports of the retired Python linter
// (tools/lint_invariants.py) and preserve its messages, line attribution,
// per-line single-finding behaviour, and suppression semantics exactly, so
// the migration could be cross-checked byte-for-byte.
//
// A1-A7 are new structural rules the line-regex linter could not express:
//
//   A1  layering: the quoted-include graph over src/ must follow the layer
//       DAG (util -> obs -> {stats, density, sampling, datagen} ->
//       integration -> {core, fusion} -> query) and be acyclic.
//   A2  determinism: iterating an unordered container where the body feeds
//       an accumulator, appends to output, or consumes RNG is flagged
//       unless the appended output is sorted right after the loop.
//   A3  Status flow: `(void)` / `static_cast<void>` casts and bare
//       expression statements that discard a Status/Result-returning call.
//   A4  exhaustive switches: a switch over a repo enum must name every
//       enumerator and must not carry a `default`.
//   A5  mutable global state: non-const static-storage declarations
//       outside the sanctioned facades (util/thread_pool.cc,
//       obs/metrics.cc, obs/flight_recorder.cc).
//   A6  telemetry naming: one metric/span string literal must map to one
//       instrument kind (counter, gauge, histogram, span) across src/ —
//       reuse across kinds makes the exporters emit colliding series.
//   A7  keyed streams: outside src/util/random.*, no `Rng(...)` argument
//       and no `.seed =` value may be built by `^` or `+` on a seed (an
//       identifier naming a seed); streams derive from StreamKey(seed,
//       tag, index) so every draw is keyed by (seed, phase, index).
//
// Every rule honours `// lint-invariants: allow(<rule>)` on the reported
// line except R4/R5, which (as in the Python linter) have no suppression.

#ifndef VASTATS_TOOLS_ANALYZE_RULES_H_
#define VASTATS_TOOLS_ANALYZE_RULES_H_

#include <string>
#include <vector>

#include "repo_index.h"
#include "source.h"

namespace vastats {
namespace analyze {

struct Finding {
  std::string rule;
  std::string path;
  int line = 0;  // 1-based; 0 for file-level findings
  std::string message;
};

// "path:line: [rule] message" (no ":line" when line is 0) — identical to
// the Python linter's Finding.render().
std::string Render(const Finding& finding);

// Canonical include guard for a header path: src/util/status.h ->
// VASTATS_UTIL_STATUS_H_.
std::string ExpectedGuard(const std::string& rel_header);

// --- Python-compatible rules (per file) ------------------------------------
void CheckR1NoExceptions(const SourceFile& f, std::vector<Finding>* out);
void CheckR2SeededRng(const SourceFile& f, std::vector<Finding>* out);
void CheckR3IoDiscipline(const SourceFile& f, std::vector<Finding>* out);
void CheckR7VirtualTime(const SourceFile& f, std::vector<Finding>* out);
void CheckR6TelemetryNames(const SourceFile& f, std::vector<Finding>* out);
void CheckR4HeaderGuard(const SourceFile& f, std::vector<Finding>* out);
void CheckR4CcPairing(const SourceFile& f, const RepoIndex& index,
                      std::vector<Finding>* out);
// R5 inspects src/util/status.h through the index (file-level findings).
void CheckR5Nodiscard(const RepoIndex& index, std::vector<Finding>* out);

// --- Structural rules ------------------------------------------------------
void CheckA2UnorderedIteration(const SourceFile& f, const RepoIndex& index,
                               std::vector<Finding>* out);
void CheckA3DiscardedStatus(const SourceFile& f, const RepoIndex& index,
                            std::vector<Finding>* out);
void CheckA4ExhaustiveSwitch(const SourceFile& f, const RepoIndex& index,
                             std::vector<Finding>* out);
void CheckA5MutableGlobals(const SourceFile& f, std::vector<Finding>* out);
void CheckA7KeyedSeeds(const SourceFile& f, std::vector<Finding>* out);
// A1 runs over the whole include graph (back-edges and cycles).
void CheckA1Layering(const RepoIndex& index, std::vector<Finding>* out);
// A6 cross-checks literal telemetry registrations across every src/ file.
void CheckA6TelemetryNames(const RepoIndex& index, std::vector<Finding>* out);

}  // namespace analyze
}  // namespace vastats

#endif  // VASTATS_TOOLS_ANALYZE_RULES_H_
