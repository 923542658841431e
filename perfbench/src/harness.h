// Measurement plumbing shared by the perfbench workloads: command-line
// arguments, clocks, order statistics, the in-memory span log, answer
// digests, and the result/report printers.
//
// Nothing here reaches into the library: spans come from the benchmark's
// own code around public calls, or are imported from a vastats::Trace the
// benchmark attached through a public option.

#ifndef VASTATS_PERFBENCH_HARNESS_H_
#define VASTATS_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "vastats/vastats.h"

namespace perfbench {

// Seed used when --seed is omitted (recorded in perfbench/README.md).
inline constexpr uint64_t kDefaultSeed = 20150323;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  // Attribution self-test: in a traced run, every other op spins this
  // fraction of the calibrated bagged-KDE time inside EstimateBaggedKde
  // (see TracedRun::plan_hook).
  double plant_density_delay = 0.0;
  // Where the traced run writes its span log ("" = do not write).
  std::string spans_out;
};

// Parses the command line; returns false (after printing usage) on error.
bool ParseArgs(int argc, char** argv, Args* args);

// --- Clocks ------------------------------------------------------------------

int64_t NowNs();                 // steady clock
double ProcessCpuMs();           // CLOCK_PROCESS_CPUTIME_ID
double ThreadCpuMs();            // CLOCK_THREAD_CPUTIME_ID
double PeakRssMb();              // peak resident set of this process
// Busy-waits for `ms` wall milliseconds (planted delays must not yield the
// core, or they would read as idle time instead of work).
void SpinMs(double ms);

inline double MsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-6;
}

// --- Statistics ----------------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]); NaN on empty input.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Derives the i-th independent 64-bit stream value from `seed`.
uint64_t MixSeed(uint64_t seed, uint64_t index);

// --- Spans ---------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same lane, -1 = root
  int64_t op = 0;
};

// One thread's span log. Spans are kept in memory and written out when the
// run ends; a lane is only ever touched by its owning thread.
class SpanLane {
 public:
  int Open(const char* name, int64_t op);
  // Closes span `index` and returns its duration in ms.
  double Close(int index);
  // Appends every span of a finished vastats::Trace (constructed at
  // `epoch_ns` on the NowNs() clock), its roots under span `parent`.
  void Import(const vastats::Trace& trace, int64_t epoch_ns, int parent,
              int64_t op);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

// RAII span; a null lane records nothing but still times the scope.
class Span {
 public:
  Span(SpanLane* lane, const char* name, int64_t op);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  double CloseMs();
  // The span's index in its lane; -1 without a lane.
  int index() const { return index_; }

 private:
  SpanLane* lane_;
  int index_ = -1;
  int64_t start_ns_;
  bool closed_ = false;
  double ms_ = 0.0;
};

// Writes every lane's spans as one JSON document; returns false on I/O error.
bool WriteSpans(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<const SpanLane*>& lanes);

// --- Answers -------------------------------------------------------------------

// FNV-1a over every field of the answer that the determinism contracts
// cover (samples, point estimates + CIs, density grid, CIO intervals,
// stability, answer weight, degradation counts). Timings are excluded.
uint64_t AnswerDigest(const vastats::AnswerStatistics& answer);

// Σ coverage of kept draws ÷ draws requested; 1 on the fault-free path.
double AnswerCoverage(const vastats::AnswerStatistics& answer);

// Trapezoid integral of the estimated density over its grid.
double DensityMass(const vastats::GridDensity& density);

// Closed-form uniS expectation of a SUM or AVG query: every component is
// supplied by a uniformly random one of its covering sources, so the
// expected answer is Σ over components of the mean of the covering values
// (divided by |C| for AVG).
vastats::Result<double> UniSExpectedAnswer(const vastats::SourceSet& sources,
                                           const vastats::AggregateQuery& query);

// Tracks the outcome of every op's correctness checks. Thread-safe.
class CheckLog {
 public:
  // Records a failed check for op `op`; the first few are printed.
  void Fail(int64_t op, const std::string& what);
  int64_t failures() const;
  // Number of distinct ops with at least one failed check.
  int64_t failed_ops() const;
  bool Failed(int64_t op) const;

 private:
  mutable std::mutex mutex_;
  std::vector<int64_t> failed_ops_;
  int64_t failures_ = 0;
};

// The pass/fail checks every extracted answer must meet, all on the
// program's own answer: the density integrates to 1 within 1e-6; the CIO
// intervals are disjoint, ascending and inside the density's range, each
// interval's coverage is the density's mass over it, and the total coverage
// is their sum and at most 1; and (when `expected` is finite) the bagged mean
// lies within 6 standard errors of the closed-form uniS mean.
//
// Whether the intervals reach theta is returned (true = below theta) for the
// caller to report, not gated: the default greedy CIO is the paper's
// Algorithm 2, whose last step grows one interval by (theta - C) / t and so
// stops short of theta on multimodal densities (core/cio.h calls it an
// approximation; EXPERIMENTS.md, Table 4 notes).
bool CheckAnswer(const vastats::AnswerStatistics& answer,
                 const vastats::CioOptions& cio, double expected, int64_t op,
                 CheckLog& log);

// --- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The run's last stdout line: {"correct","attempted","failed","metrics"}.
void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics);

// Minimal JSON object writer for the report line printed before the result.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

// Host block: nproc, compiler, build type.
JsonObject HostBlock();

std::string FormatDouble(double value);

}  // namespace perfbench

#endif  // VASTATS_PERFBENCH_HARNESS_H_
