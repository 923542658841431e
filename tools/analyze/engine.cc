#include "engine.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "util/thread_pool.h"

namespace vastats {
namespace analyze {
namespace {

namespace fs = std::filesystem;

bool HasSourceExtension(const std::string& name) {
  for (const char* ext : {".cc", ".h", ".hpp", ".cpp"}) {
    const std::string e(ext);
    if (name.size() >= e.size() &&
        name.compare(name.size() - e.size(), e.size(), e) == 0) {
      return true;
    }
  }
  return false;
}

void WalkDir(const fs::path& dir, const fs::path& root,
             std::vector<std::string>* out) {
  std::vector<std::string> file_names;
  std::vector<fs::path> subdirs;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_directory()) {
      subdirs.push_back(entry.path());
    } else if (HasSourceExtension(entry.path().filename().string())) {
      file_names.push_back(entry.path().filename().string());
    }
  }
  std::sort(file_names.begin(), file_names.end());
  std::sort(subdirs.begin(), subdirs.end());
  for (const std::string& name : file_names) {
    out->push_back(
        fs::relative(dir / name, root, ec).generic_string());
  }
  for (const fs::path& sub : subdirs) WalkDir(sub, root, out);
}

// Per-file rule dispatch in the Python linter's order. `kind` selects the
// src/ rule set or the tests/bench subset.
enum class FileKind { kSrc, kTestsBench };

bool IsFacadeFile(const std::string& path, const char* stem) {
  return path == std::string("src/util/") + stem + ".h" ||
         path == std::string("src/util/") + stem + ".cc";
}

void CheckFile(const SourceFile& f, FileKind kind, const RepoIndex& index,
               bool structural, std::vector<Finding>* out) {
  if (kind == FileKind::kTestsBench) {
    CheckR2SeededRng(f, out);
    CheckR7VirtualTime(f, out);
    CheckR6TelemetryNames(f, out);
    return;
  }
  const std::string& p = f.rel_path;
  const bool in_util = p.compare(0, 9, "src/util/") == 0;
  const bool in_obs = p.compare(0, 8, "src/obs/") == 0;
  CheckR1NoExceptions(f, out);
  if (!IsFacadeFile(p, "random")) CheckR2SeededRng(f, out);
  // transport/clock_map.cc is the transport's sanctioned wall-clock read:
  // hedging and wall-mapped deadline budgets need a real monotonic epoch,
  // and confining the reads to one file keeps R7 enforceable everywhere
  // else (including the rest of src/transport).
  if (!IsFacadeFile(p, "stopwatch") && p != "src/transport/clock_map.cc") {
    CheckR7VirtualTime(f, out);
  }
  if (!in_util && p != "src/obs/export.cc") CheckR3IoDiscipline(f, out);
  if (!in_obs) CheckR6TelemetryNames(f, out);
  if (f.IsHeader()) {
    CheckR4HeaderGuard(f, out);
  } else if (p.size() >= 3 && p.compare(p.size() - 3, 3, ".cc") == 0) {
    CheckR4CcPairing(f, index, out);
  }
  if (structural) {
    CheckA2UnorderedIteration(f, index, out);
    CheckA3DiscardedStatus(f, index, out);
    CheckA4ExhaustiveSwitch(f, index, out);
    CheckA5MutableGlobals(f, out);
    CheckA7KeyedSeeds(f, out);
  }
}

}  // namespace

std::vector<std::string> EnumerateSources(const std::string& root,
                                          const std::string& subdir) {
  std::vector<std::string> paths;
  const fs::path base = fs::path(root) / subdir;
  std::error_code ec;
  if (!fs::is_directory(base, ec)) return paths;
  WalkDir(base, fs::path(root), &paths);
  return paths;
}

Result<AnalysisReport> AnalyzeRepo(const AnalyzeOptions& options) {
  std::vector<std::string> src_paths = EnumerateSources(options.root, "src");
  const size_t num_src = src_paths.size();
  for (const char* subdir : {"tests", "bench"}) {
    for (std::string& p : EnumerateSources(options.root, subdir)) {
      src_paths.push_back(std::move(p));
    }
  }
  if (src_paths.empty()) {
    return Status::NotFound("no sources under " + options.root +
                            " (expected a src/ tree)");
  }

  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = DefaultThreadPool();
  if (options.threads > 0) {
    ThreadPoolOptions pool_options;
    pool_options.num_threads = options.threads;
    own_pool = std::make_unique<ThreadPool>(pool_options);
    pool = own_pool.get();
  }

  // Phase 1 (parallel): load + lex + per-file facts into slots.
  std::vector<SourceFile> files(src_paths.size());
  VASTATS_RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(src_paths.size()), [&](int i) -> Status {
        const std::string& rel = src_paths[static_cast<size_t>(i)];
        if (!LoadSourceFile(options.root, rel,
                            &files[static_cast<size_t>(i)])) {
          return Status::NotFound("cannot read " + rel);
        }
        return Status::Ok();
      }));

  // Phase 2 (serial): merge facts, resolve the include graph.
  const RepoIndex index = BuildRepoIndex(std::move(files));

  // Phase 3 (parallel): per-file rules into per-file slots.
  std::vector<std::vector<Finding>> slots(index.files.size());
  VASTATS_RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(index.files.size()), [&](int i) -> Status {
        const FileKind kind = static_cast<size_t>(i) < num_src
                                  ? FileKind::kSrc
                                  : FileKind::kTestsBench;
        CheckFile(index.files[static_cast<size_t>(i)], kind, index,
                  options.structural_rules, &slots[static_cast<size_t>(i)]);
        return Status::Ok();
      }));

  // Phase 4 (serial): merge in walk order, then the whole-repo rules.
  AnalysisReport report;
  report.files_analyzed = static_cast<int>(index.files.size());
  for (std::vector<Finding>& slot : slots) {
    for (Finding& finding : slot) {
      report.findings.push_back(std::move(finding));
    }
  }
  if (options.structural_rules) {
    CheckA1Layering(index, &report.findings);
    CheckA6TelemetryNames(index, &report.findings);
  }
  CheckR5Nodiscard(index, &report.findings);
  return report;
}

}  // namespace analyze
}  // namespace vastats
