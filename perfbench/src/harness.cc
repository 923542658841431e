#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

namespace perfbench {

using vastats::AggregateKind;
using vastats::AnswerStatistics;
using vastats::Result;
using vastats::Status;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--plant-density-delay F] [--spans-out PATH]\n");
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      Usage();
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace takes 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--plant-density-delay") {
      args->plant_density_delay = std::strtod(value.c_str(), &end);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      Usage();
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      Usage();
      return false;
    }
  }
  if (args->workload.empty() || !(args->seconds > 0.0) ||
      args->plant_density_delay < 0.0) {
    Usage();
    return false;
  }
  return true;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double PeakRssMb() {
  // VmHWM is the peak of this process image only; getrusage's ru_maxrss
  // also carries the peak of the image that exec'ed it (the launcher).
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SpinMs(double ms) {
  const int64_t until = NowNs() + static_cast<int64_t>(ms * 1e6);
  while (NowNs() < until) {
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t MixSeed(uint64_t seed, uint64_t index) {
  // splitmix64 finalizer over (seed, index).
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int SpanLane::Open(const char* name, int64_t op) {
  SpanRecord record;
  record.name = name;
  record.start_ns = NowNs();
  record.parent = open_.empty() ? -1 : open_.back();
  record.op = op;
  spans_.push_back(record);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

double SpanLane::Close(int index) {
  SpanRecord& record = spans_[static_cast<size_t>(index)];
  record.end_ns = NowNs();
  // Spans close in LIFO order (RAII scopes).
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  return MsBetween(record.start_ns, record.end_ns);
}

void SpanLane::Import(const vastats::Trace& trace, int64_t epoch_ns,
                      int parent, int64_t op) {
  const int base = static_cast<int>(spans_.size());
  for (const vastats::SpanRecord& span : trace.spans()) {
    SpanRecord record;
    record.name = span.name;
    record.start_ns = epoch_ns + static_cast<int64_t>(span.start_seconds * 1e9);
    record.end_ns =
        record.start_ns + static_cast<int64_t>(span.elapsed_seconds * 1e9);
    record.parent = span.parent < 0 ? parent : base + span.parent;
    record.op = op;
    spans_.push_back(std::move(record));
  }
}

Span::Span(SpanLane* lane, const char* name, int64_t op) : lane_(lane) {
  if (lane_ != nullptr) {
    index_ = lane_->Open(name, op);
    start_ns_ = lane_->spans()[static_cast<size_t>(index_)].start_ns;
  } else {
    start_ns_ = NowNs();
  }
}

Span::~Span() { CloseMs(); }

double Span::CloseMs() {
  if (closed_) return ms_;
  closed_ = true;
  ms_ = lane_ != nullptr ? lane_->Close(index_) : MsBetween(start_ns_, NowNs());
  return ms_;
}

bool WriteSpans(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<const SpanLane*>& lanes) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":[\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  bool first = true;
  for (size_t lane = 0; lane < lanes.size(); ++lane) {
    for (const SpanRecord& span : lanes[lane]->spans()) {
      std::fprintf(file,
                   "%s{\"lane\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"op\":%lld}",
                   first ? "" : ",\n", lane, span.name.c_str(),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), span.parent,
                   static_cast<long long>(span.op));
      first = false;
    }
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

namespace {

class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Double(double value) { Bytes(&value, sizeof(value)); }
  void Int(int64_t value) { Bytes(&value, sizeof(value)); }
  void Point(const vastats::PointEstimate& point) {
    Double(point.value);
    Double(point.ci.lo);
    Double(point.ci.hi);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

uint64_t AnswerDigest(const AnswerStatistics& answer) {
  Fnv fnv;
  fnv.Int(static_cast<int64_t>(answer.samples.size()));
  fnv.Bytes(answer.samples.data(), answer.samples.size() * sizeof(double));
  fnv.Point(answer.mean);
  fnv.Point(answer.variance);
  fnv.Point(answer.std_dev);
  fnv.Point(answer.skewness);
  fnv.Double(answer.density.x_min());
  fnv.Double(answer.density.x_max());
  const std::span<const double> grid = answer.density.values();
  fnv.Bytes(grid.data(), grid.size() * sizeof(double));
  for (const vastats::CoverageInterval& interval : answer.coverage.intervals) {
    fnv.Double(interval.lo);
    fnv.Double(interval.hi);
    fnv.Double(interval.coverage);
  }
  fnv.Double(answer.coverage.total_coverage);
  fnv.Double(answer.coverage.total_length_fraction);
  fnv.Double(answer.stability.stab_l2);
  fnv.Double(answer.stability.stab_bh);
  fnv.Double(answer.stability.psi);
  fnv.Double(answer.stability.bandwidth);
  fnv.Double(answer.answer_weight_y);
  const vastats::DegradationReport& degradation = answer.degradation;
  fnv.Int(degradation.draws_requested);
  fnv.Int(degradation.draws_kept);
  fnv.Int(degradation.draws_dropped);
  fnv.Double(degradation.mean_coverage);
  fnv.Int(static_cast<int64_t>(degradation.access.visits));
  fnv.Int(static_cast<int64_t>(degradation.access.retries));
  fnv.Int(static_cast<int64_t>(degradation.access.failed_visits));
  fnv.Int(static_cast<int64_t>(degradation.access.breaker_open_skips));
  fnv.Double(degradation.access.virtual_ms);
  return fnv.value();
}

double AnswerCoverage(const AnswerStatistics& answer) {
  const vastats::DegradationReport& report = answer.degradation;
  if (report.draws_requested <= 0) return 1.0;
  return report.mean_coverage * static_cast<double>(report.draws_kept) /
         static_cast<double>(report.draws_requested);
}

double DensityMass(const vastats::GridDensity& density) {
  const std::span<const double> values = density.values();
  double mass = 0.0;
  for (size_t i = 1; i < values.size(); ++i) {
    mass += 0.5 * (values[i - 1] + values[i]) * density.step();
  }
  return mass;
}

Result<double> UniSExpectedAnswer(const vastats::SourceSet& sources,
                                  const vastats::AggregateQuery& query) {
  if (query.kind != AggregateKind::kSum &&
      query.kind != AggregateKind::kAverage) {
    return Status::InvalidArgument("closed form only for SUM and AVG");
  }
  double total = 0.0;
  for (const vastats::ComponentId component : query.components) {
    const std::vector<int> covering = sources.Covering(component);
    if (covering.empty()) {
      return Status::FailedPrecondition("component without a covering source");
    }
    double sum = 0.0;
    for (const int s : covering) {
      VASTATS_ASSIGN_OR_RETURN(const double value,
                               sources.source(s).Value(component));
      sum += value;
    }
    total += sum / static_cast<double>(covering.size());
  }
  if (query.kind == AggregateKind::kAverage) {
    total /= static_cast<double>(query.components.size());
  }
  return total;
}

void CheckLog::Fail(int64_t op, const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failures_ < 8) {
    std::fprintf(stderr, "CHECK FAILED (op %lld): %s\n",
                 static_cast<long long>(op), what.c_str());
  }
  ++failures_;
  if (std::find(failed_ops_.begin(), failed_ops_.end(), op) ==
      failed_ops_.end()) {
    failed_ops_.push_back(op);
  }
}

int64_t CheckLog::failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failures_;
}

bool CheckLog::Failed(int64_t op) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::find(failed_ops_.begin(), failed_ops_.end(), op) !=
         failed_ops_.end();
}

int64_t CheckLog::failed_ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(failed_ops_.size());
}

bool CheckAnswer(const AnswerStatistics& answer, const vastats::CioOptions& cio,
                 double expected, int64_t op, CheckLog& log) {
  const vastats::GridDensity& density = answer.density;
  const double mass = DensityMass(density);
  if (!(std::fabs(mass - 1.0) <= 1e-6)) {
    log.Fail(op, "density integrates to " + FormatDouble(mass));
  }
  const vastats::CoverageResult& coverage = answer.coverage;
  double covered = 0.0;
  double previous_hi = density.x_min();
  for (const vastats::CoverageInterval& interval : coverage.intervals) {
    if (!(interval.lo >= previous_hi && interval.hi >= interval.lo &&
          interval.hi <= density.x_max())) {
      log.Fail(op, "CIO intervals overlap, are out of order or leave the "
                   "density's range");
    }
    const double interval_mass = density.IntegrateRange(interval.lo, interval.hi);
    if (!(std::fabs(interval.coverage - interval_mass) <= 1e-9)) {
      log.Fail(op, "CIO interval coverage " + FormatDouble(interval.coverage) +
                       " is not the density's mass over it, " +
                       FormatDouble(interval_mass));
    }
    covered += interval.coverage;
    previous_hi = interval.hi;
  }
  if (coverage.intervals.empty() ||
      !(std::fabs(coverage.total_coverage - covered) <= 1e-9) ||
      !(coverage.total_coverage <= 1.0 + 1e-6)) {
    log.Fail(op, "CIO total coverage " + FormatDouble(coverage.total_coverage) +
                     " is not the sum of its intervals' coverage, " +
                     FormatDouble(covered) + ", or exceeds 1");
  }
  if (std::isfinite(expected)) {
    const std::vector<double>& samples = answer.samples;
    const double n = static_cast<double>(samples.size());
    const double mean = Mean(samples);
    double ss = 0.0;
    for (const double v : samples) ss += (v - mean) * (v - mean);
    const double se = std::sqrt(ss / (n - 1.0) / n);
    // A degenerate (zero-spread) sample must hit the closed form exactly up
    // to rounding; the floor keeps that case from dividing by zero.
    const double tolerance =
        std::max(6.0 * se, 1e-9 * std::max(1.0, std::fabs(expected)));
    if (!(std::fabs(answer.mean.value - expected) <= tolerance)) {
      log.Fail(op, "bagged mean " + FormatDouble(answer.mean.value) +
                       " is more than 6 SE (" + FormatDouble(se) +
                       ") from the closed-form uniS mean " +
                       FormatDouble(expected));
    }
  }
  return coverage.total_coverage < cio.theta;
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatDouble(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  members_.emplace_back(key, FormatDouble(value));
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  members_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  members_.emplace_back(key, "\"" + value + "\"");
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  members_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  members_.emplace_back(key, value.ToString());
  return *this;
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < members_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + members_[i].first + "\": " + members_[i].second;
  }
  return out + "}";
}

JsonObject HostBlock() {
  JsonObject host;
  host.Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  host.Str("compiler", PERFBENCH_COMPILER);
  host.Str("build_type", PERFBENCH_BUILD_TYPE);
  return host;
}

}  // namespace perfbench
