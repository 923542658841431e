// Analysis driver: enumerates the repo's source tree, runs the parallel
// front end (load + lex + facts) and the parallel per-file rule phase on a
// vastats ThreadPool, then the serial whole-repo rules (A1 layering, R5).
//
// Findings are deterministic by construction at any pool width: both
// parallel phases write into per-file slots and the merge walks files in
// enumeration order, so the report is bit-identical for 1, 4, or 16
// threads.

#ifndef VASTATS_TOOLS_ANALYZE_ENGINE_H_
#define VASTATS_TOOLS_ANALYZE_ENGINE_H_

#include <string>
#include <vector>

#include "rules.h"
#include "util/status.h"

namespace vastats {
namespace analyze {

struct AnalyzeOptions {
  std::string root = ".";
  // 0 uses the process-wide DefaultThreadPool(); otherwise a dedicated
  // pool of exactly `threads` workers (the determinism tests sweep this).
  int threads = 0;
  // Run the structural rules (A1-A7). The R-rules always run; compat
  // output filters to them regardless.
  bool structural_rules = true;
};

struct AnalysisReport {
  // Ordered: per src/ file in walk order (R-rules in the Python linter's
  // emission order, then A2-A5 and A7), then tests/ and bench/ files (R2, R7,
  // R6), then A1 (layering), then A6 (telemetry naming), then R5 — so
  // filtering to R-rules reproduces the Python linter's output order
  // exactly.
  std::vector<Finding> findings;
  int files_analyzed = 0;
};

// Analyzes the repo rooted at `options.root`. Fails when the root (or a
// file raced away mid-run) cannot be read.
Result<AnalysisReport> AnalyzeRepo(const AnalyzeOptions& options);

// Walk order used by AnalyzeRepo for one subtree: the Python linter's
// os.walk with sorted dirnames/filenames (current directory's files
// sorted, then each subdirectory recursively, sorted). Paths come back
// repo-relative with forward slashes. Missing subdir yields no paths.
std::vector<std::string> EnumerateSources(const std::string& root,
                                          const std::string& subdir);

}  // namespace analyze
}  // namespace vastats

#endif  // VASTATS_TOOLS_ANALYZE_ENGINE_H_
