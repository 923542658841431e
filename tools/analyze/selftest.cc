#include "selftest.h"

#include <functional>

#include "baseline.h"
#include "repo_index.h"
#include "rules.h"
#include "source.h"

namespace vastats {
namespace analyze {
namespace {

class Harness {
 public:
  std::vector<std::string> failures;

  // Expects `got` to contain (or, with empty `want_rule`, not contain any)
  // finding of the wanted rule.
  void Expect(const std::string& name, const std::vector<Finding>& got,
              const std::string& want_rule) {
    if (want_rule.empty()) {
      if (!got.empty()) {
        failures.push_back(name + ": expected clean, got " + Render(got[0]));
      }
      return;
    }
    for (const Finding& finding : got) {
      if (finding.rule == want_rule) return;
    }
    failures.push_back(name + ": expected a " + want_rule + " finding, got " +
                       (got.empty() ? "nothing" : Render(got[0])));
  }

  void Check(const std::string& name, bool ok, const std::string& detail) {
    if (!ok) failures.push_back(name + ": " + detail);
  }
};

using FileChecker = std::function<void(const SourceFile&,
                                       std::vector<Finding>*)>;

std::vector<Finding> RunOn(const FileChecker& checker,
                           const std::string& snippet) {
  const SourceFile f = MakeSourceFile("src/core/fake.cc", snippet);
  std::vector<Finding> out;
  checker(f, &out);
  return out;
}

// Builds an index over in-memory files and runs an index-aware checker on
// the first file.
std::vector<Finding> RunIndexed(
    const std::function<void(const SourceFile&, const RepoIndex&,
                             std::vector<Finding>*)>& checker,
    std::vector<std::pair<std::string, std::string>> files) {
  std::vector<SourceFile> sources;
  for (auto& [path, text] : files) {
    sources.push_back(MakeSourceFile(path, std::move(text)));
  }
  const std::string first = sources[0].rel_path;
  const RepoIndex index = BuildRepoIndex(std::move(sources));
  std::vector<Finding> out;
  checker(index.files[static_cast<size_t>(index.by_path.at(first))], index,
          &out);
  return out;
}

std::vector<Finding> RunA1(
    std::vector<std::pair<std::string, std::string>> files) {
  std::vector<SourceFile> sources;
  for (auto& [path, text] : files) {
    sources.push_back(MakeSourceFile(path, std::move(text)));
  }
  const RepoIndex index = BuildRepoIndex(std::move(sources));
  std::vector<Finding> out;
  CheckA1Layering(index, &out);
  return out;
}

void TestPythonCorpus(Harness* h) {
  // R1 fires on throw/try/catch, ignores comments, strings, allowances.
  h->Expect("R1 throw", RunOn(CheckR1NoExceptions, "void F() { throw 1; }"),
            "R1");
  h->Expect("R1 try",
            RunOn(CheckR1NoExceptions,
                  "void F() { try { G(); } catch (...) {} }"),
            "R1");
  h->Expect("R1 comment",
            RunOn(CheckR1NoExceptions, "// never throw here\nvoid F();"), "");
  h->Expect("R1 string",
            RunOn(CheckR1NoExceptions, "const char* k = \"do not throw\";"),
            "");
  h->Expect("R1 identifier",
            RunOn(CheckR1NoExceptions, "int retry_count = 0;"), "");
  h->Expect("R1 allow",
            RunOn(CheckR1NoExceptions,
                  "throw 1; // lint-invariants: allow(R1)"),
            "");

  // R2 fires on every ad-hoc RNG spelling, not on the facade's own names.
  h->Expect("R2 mt19937", RunOn(CheckR2SeededRng, "std::mt19937 gen(42);"),
            "R2");
  h->Expect("R2 mt19937_64",
            RunOn(CheckR2SeededRng, "std::mt19937_64 gen(42);"), "R2");
  h->Expect("R2 rand", RunOn(CheckR2SeededRng, "int x = rand();"), "R2");
  h->Expect("R2 std::rand", RunOn(CheckR2SeededRng, "int x = std::rand();"),
            "R2");
  h->Expect("R2 rand at line start", RunOn(CheckR2SeededRng, "rand();"),
            "R2");
  h->Expect("R2 random_device",
            RunOn(CheckR2SeededRng, "std::random_device rd;"), "R2");
  h->Expect("R2 srand", RunOn(CheckR2SeededRng, "srand(7);"), "R2");
  h->Expect("R2 clean rng", RunOn(CheckR2SeededRng, "Rng rng(seed);"), "");
  h->Expect("R2 operand", RunOn(CheckR2SeededRng, "x = operand(1);"), "");

  // R3 fires on console IO, allows snprintf formatting.
  h->Expect("R3 cout", RunOn(CheckR3IoDiscipline, "std::cout << x;"), "R3");
  h->Expect("R3 cerr", RunOn(CheckR3IoDiscipline, "std::cerr << x;"), "R3");
  h->Expect("R3 printf", RunOn(CheckR3IoDiscipline, "printf(\"%d\", x);"),
            "R3");
  h->Expect("R3 fprintf",
            RunOn(CheckR3IoDiscipline, "fprintf(stderr, \"%d\", x);"), "R3");
  h->Expect("R3 std::fprintf",
            RunOn(CheckR3IoDiscipline, "std::fprintf(stderr, \"%d\", x);"),
            "R3");
  h->Expect("R3 snprintf",
            RunOn(CheckR3IoDiscipline, "std::snprintf(buf, sizeof buf, f);"),
            "");
  h->Expect("R3 std::snprintf in expr",
            RunOn(CheckR3IoDiscipline, "n = std::snprintf(b, s, f);"), "");

  // R7 fires on every wall-clock spelling, not on VirtualClock reads.
  h->Expect("R7 chrono steady",
            RunOn(CheckR7VirtualTime,
                  "auto t = std::chrono::steady_clock::now();"),
            "R7");
  h->Expect("R7 chrono system",
            RunOn(CheckR7VirtualTime,
                  "auto t = std::chrono::system_clock::now();"),
            "R7");
  h->Expect("R7 chrono hires",
            RunOn(CheckR7VirtualTime,
                  "auto t = std::chrono::high_resolution_clock::now();"),
            "R7");
  h->Expect("R7 using-decl clock",
            RunOn(CheckR7VirtualTime, "auto t = steady_clock::now();"),
            "R7");
  h->Expect("R7 virtual clock",
            RunOn(CheckR7VirtualTime, "const double t = clock_.NowMs();"),
            "");
  h->Expect("R7 comment",
            RunOn(CheckR7VirtualTime,
                  "// never call steady_clock::now() here\nint x;"),
            "");
  h->Expect("R7 allow",
            RunOn(CheckR7VirtualTime,
                  "auto t = std::chrono::steady_clock::now();"
                  "  // lint-invariants: allow(R7)"),
            "");

  // R6 fires on bad or non-literal telemetry names.
  h->Expect("R6 good counter",
            RunOn(CheckR6TelemetryNames,
                  "obs.GetCounter(\"unis_draws_total\").Increment();"),
            "");
  h->Expect("R6 good wrapped call",
            RunOn(CheckR6TelemetryNames,
                  "obs.GetHistogram(\n    \"drift_ratio\", kB).Observe(x);"),
            "");
  h->Expect("R6 good span",
            RunOn(CheckR6TelemetryNames,
                  "ScopedSpan span(obs.trace, \"cio_greedy\");"),
            "");
  h->Expect("R6 camel name",
            RunOn(CheckR6TelemetryNames,
                  "obs.GetCounter(\"DrawsTotal\").Increment();"),
            "R6");
  h->Expect("R6 kebab span",
            RunOn(CheckR6TelemetryNames,
                  "ScopedSpan span(obs.trace, \"cio-greedy\");"),
            "R6");
  h->Expect("R6 non-literal",
            RunOn(CheckR6TelemetryNames, "obs.GetGauge(name).Set(1.0);"),
            "R6");
  h->Expect("R6 bad begin_span",
            RunOn(CheckR6TelemetryNames, "trace.BeginSpan(\"Bad Name\");"),
            "R6");
  h->Expect("R6 comment",
            RunOn(CheckR6TelemetryNames,
                  "// call obs.GetCounter(\"NotChecked\") here\nint x;"),
            "");
  h->Expect("R6 allow",
            RunOn(CheckR6TelemetryNames,
                  "trace.BeginSpan(\"BadName\");"
                  "  // lint-invariants: allow(R6)"),
            "");

  // R4 guard style.
  auto guard_findings = [](const std::string& path, const std::string& text) {
    const SourceFile f = MakeSourceFile(path, text);
    std::vector<Finding> out;
    CheckR4HeaderGuard(f, &out);
    return out;
  };
  h->Expect("R4 good guard",
            guard_findings("src/core/fake.h",
                           "#ifndef VASTATS_CORE_FAKE_H_\n"
                           "#define VASTATS_CORE_FAKE_H_\n#endif\n"),
            "");
  h->Expect("R4 bad guard",
            guard_findings("src/core/fake.h",
                           "#ifndef FAKE_H\n#define FAKE_H\n#endif\n"),
            "R4");
  h->Expect("R4 no guard", guard_findings("src/core/fake.h", "int x;\n"),
            "R4");
  h->Check("R4 expected_guard mapping",
           ExpectedGuard("src/util/status.h") == "VASTATS_UTIL_STATUS_H_",
           "src/util/status.h mapped to " + ExpectedGuard("src/util/status.h"));

  // The lexer must keep line numbers and not leak comment/raw-string text.
  const LexedSource stripped = Lex("a\n/* b\nc */ d\n");
  h->Check("lexer line count",
           !stripped.tokens.empty() && stripped.tokens.back().line == 3,
           "token lines shifted across a block comment");
  bool saw_c = false;
  for (const Token& t : stripped.tokens) {
    if (t.kind == TokenKind::kIdentifier && t.text == "c") saw_c = true;
  }
  h->Check("lexer block comment", !saw_c, "comment text leaked into tokens");
  const LexedSource raw = Lex("auto s = R\"x(throw)x\"; int y;");
  bool raw_ok = true;
  for (const Token& t : raw.tokens) {
    if (t.kind == TokenKind::kIdentifier && t.text == "throw") raw_ok = false;
  }
  h->Check("lexer raw string", raw_ok, "raw-string contents leaked");
}

void TestStructuralRules(Harness* h) {
  // A1: a util header including obs is a back-edge; mutual includes cycle.
  h->Expect("A1 back-edge",
            RunA1({{"src/util/a.h",
                    "#ifndef A_H\n#define A_H\n#include \"obs/b.h\"\n"
                    "#endif\n"},
                   {"src/obs/b.h", "#ifndef B_H\n#define B_H\n#endif\n"}}),
            "A1");
  h->Expect("A1 clean downward",
            RunA1({{"src/obs/b.h",
                    "#ifndef B_H\n#define B_H\n#include \"util/a.h\"\n"
                    "#endif\n"},
                   {"src/util/a.h", "#ifndef A_H\n#define A_H\n#endif\n"}}),
            "");
  h->Expect("A1 cycle",
            RunA1({{"src/stats/a.h", "#include \"stats/b.h\"\n"},
                   {"src/stats/b.h", "#include \"stats/a.h\"\n"}}),
            "A1");
  // transport sits beside integration (rank 3): sampling must not reach up
  // into it, while core may reach down.
  h->Expect("A1 sampling into transport is a back-edge",
            RunA1({{"src/sampling/a.h",
                    "#ifndef A_H\n#define A_H\n"
                    "#include \"transport/b.h\"\n#endif\n"},
                   {"src/transport/b.h", "#ifndef B_H\n#define B_H\n#endif\n"}}),
            "A1");
  h->Expect("A1 core over transport is clean",
            RunA1({{"src/core/c.h",
                    "#ifndef C_H\n#define C_H\n"
                    "#include \"transport/b.h\"\n#endif\n"},
                   {"src/transport/b.h", "#ifndef B_H\n#define B_H\n#endif\n"}}),
            "");

  // A2: unordered iteration feeding an accumulator / RNG / unsorted output.
  h->Expect("A2 accumulate",
            RunIndexed(CheckA2UnorderedIteration,
                       {{"src/core/fake.cc",
                         "void F(const std::unordered_map<int, double>& m) {\n"
                         "  double sum = 0.0;\n"
                         "  for (const auto& [k, v] : m) sum += v;\n"
                         "}\n"}}),
            "A2");
  h->Expect("A2 member through header",
            RunIndexed(CheckA2UnorderedIteration,
                       {{"src/core/fake.cc",
                         "#include \"core/fake.h\"\n"
                         "void C::F() {\n"
                         "  for (const auto& [k, v] : bindings_) "
                         "out_.push_back(v);\n"
                         "}\n"},
                        {"src/core/fake.h",
                         "class C {\n  std::unordered_map<int, double> "
                         "bindings_;\n};\n"}}),
            "A2");
  h->Expect("A2 sorted snapshot",
            RunIndexed(CheckA2UnorderedIteration,
                       {{"src/core/fake.cc",
                         "std::vector<int> F(const std::unordered_set<int>& "
                         "s) {\n"
                         "  std::vector<int> keys;\n"
                         "  for (const int k : s) keys.push_back(k);\n"
                         "  std::sort(keys.begin(), keys.end());\n"
                         "  return keys;\n"
                         "}\n"}}),
            "");
  h->Expect("A2 rng in body",
            RunIndexed(CheckA2UnorderedIteration,
                       {{"src/core/fake.cc",
                         "void F(const std::unordered_set<int>& s, Rng& rng) "
                         "{\n"
                         "  for (const int k : s) Use(k, rng.Uniform());\n"
                         "}\n"}}),
            "A2");
  h->Expect("A2 allow",
            RunIndexed(CheckA2UnorderedIteration,
                       {{"src/core/fake.cc",
                         "void F(const std::unordered_map<int, double>& m) {\n"
                         "  double s = 0.0;\n"
                         "  // lint-invariants: allow(A2)\n"
                         "  for (const auto& [k, v] : m) s += v;  "
                         "// lint-invariants: allow(A2)\n"
                         "}\n"}}),
            "");
  h->Expect("A2 lookup only",
            RunIndexed(CheckA2UnorderedIteration,
                       {{"src/core/fake.cc",
                         "double F(const std::unordered_map<int, double>& m) "
                         "{\n"
                         "  const auto it = m.find(3);\n"
                         "  return it == m.end() ? 0.0 : it->second;\n"
                         "}\n"}}),
            "");

  // A3: discarded Status / Result.
  const std::string status_decls =
      "Status Commit();\nResult<double> Measure();\n";
  h->Expect("A3 void cast",
            RunIndexed(CheckA3DiscardedStatus,
                       {{"src/core/fake.cc",
                         status_decls + "void F() { (void)Commit(); }\n"}}),
            "A3");
  h->Expect("A3 static_cast void",
            RunIndexed(CheckA3DiscardedStatus,
                       {{"src/core/fake.cc",
                         status_decls +
                             "void F() { static_cast<void>(Measure()); }\n"}}),
            "A3");
  h->Expect("A3 bare call",
            RunIndexed(CheckA3DiscardedStatus,
                       {{"src/core/fake.cc",
                         status_decls + "void F() { Commit(); }\n"}}),
            "A3");
  h->Expect("A3 handled",
            RunIndexed(CheckA3DiscardedStatus,
                       {{"src/core/fake.cc",
                         status_decls +
                             "Status F() { return Commit(); }\n"}}),
            "");
  h->Expect("A3 void overload ambiguity",
            RunIndexed(CheckA3DiscardedStatus,
                       {{"src/core/fake.cc",
                         "Status Rebuild(int n);\n"
                         "void F() { Rebuild(3); }\n"},
                        {"src/core/other.h",
                         "class C {\n  void Rebuild();\n};\n"}}),
            "");
  h->Expect("A3 allow",
            RunIndexed(CheckA3DiscardedStatus,
                       {{"src/core/fake.cc",
                         status_decls +
                             "void F() { (void)Commit(); "
                             "// lint-invariants: allow(A3)\n}\n"}}),
            "");

  // A4: switches over repo enums.
  const std::string enum_decl =
      "enum class Mode { kFast, kSafe, kDry };\n";
  h->Expect("A4 default",
            RunIndexed(CheckA4ExhaustiveSwitch,
                       {{"src/core/fake.cc",
                         enum_decl +
                             "int F(Mode m) {\n  switch (m) {\n"
                             "    case Mode::kFast: return 1;\n"
                             "    default: return 0;\n  }\n}\n"}}),
            "A4");
  h->Expect("A4 missing enumerator",
            RunIndexed(CheckA4ExhaustiveSwitch,
                       {{"src/core/fake.cc",
                         enum_decl +
                             "int F(Mode m) {\n  switch (m) {\n"
                             "    case Mode::kFast: return 1;\n"
                             "    case Mode::kSafe: return 2;\n  }\n"
                             "  return 0;\n}\n"}}),
            "A4");
  h->Expect("A4 exhaustive",
            RunIndexed(CheckA4ExhaustiveSwitch,
                       {{"src/core/fake.cc",
                         enum_decl +
                             "int F(Mode m) {\n  switch (m) {\n"
                             "    case Mode::kFast: return 1;\n"
                             "    case Mode::kSafe: return 2;\n"
                             "    case Mode::kDry: return 3;\n  }\n"
                             "  return 0;\n}\n"}}),
            "");
  h->Expect("A4 non-enum switch",
            RunIndexed(CheckA4ExhaustiveSwitch,
                       {{"src/core/fake.cc",
                         "int F(int x) {\n  switch (x) {\n"
                         "    case 1: return 1;\n    default: return 0;\n"
                         "  }\n}\n"}}),
            "");

  // A5: mutable static-storage state.
  auto run_a5 = [](const std::string& path, const std::string& text) {
    const SourceFile f = MakeSourceFile(path, text);
    std::vector<Finding> out;
    CheckA5MutableGlobals(f, &out);
    return out;
  };
  h->Expect("A5 namespace global",
            run_a5("src/core/fake.cc",
                   "namespace vastats {\nint g_calls = 0;\n}\n"),
            "A5");
  h->Expect("A5 function static",
            run_a5("src/core/fake.cc",
                   "void F() { static int warm_calls = 0; Use(&warm_calls); "
                   "}\n"),
            "A5");
  h->Expect("A5 static member",
            run_a5("src/core/fake.h",
                   "class C {\n  static int live_count_;\n};\n"),
            "A5");
  h->Expect("A5 const table",
            run_a5("src/core/fake.cc",
                   "namespace {\nconst double kTable[] = {1.0, 2.0};\n"
                   "constexpr int kN = 2;\n}\n"),
            "");
  h->Expect("A5 local variable",
            run_a5("src/core/fake.cc",
                   "void F() { int local = 0; Use(&local); }\n"),
            "");
  h->Expect("A5 pointer const binding",
            run_a5("src/core/fake.cc",
                   "namespace {\nstatic Pool* const g_pool = new Pool();\n"
                   "}\n"),
            "A5");
  h->Expect("A5 sanctioned facade",
            run_a5("src/util/thread_pool.cc",
                   "namespace {\nint g_started = 0;\n}\n"),
            "");
  h->Expect("A5 allow",
            run_a5("src/core/fake.cc",
                   "void F() {\n  thread_local Plan plan;  "
                   "// lint-invariants: allow(A5)\n  Use(&plan);\n}\n"),
            "");
  h->Expect("A5 function decl not flagged",
            run_a5("src/core/fake.h",
                   "namespace vastats {\nStatus Connect(int retries);\n}\n"),
            "");
  h->Expect("A5 serving cache facade sanctioned",
            run_a5("src/serving/caches.cc",
                   "namespace {\nthread_local std::vector<TlsPlanEntry> "
                   "g_tls_plans;\nstd::atomic<uint64_t> g_next_uid{1};\n}\n"),
            "");
  h->Expect("A5 unsanctioned serving static still flagged",
            run_a5("src/serving/rogue_cache.cc",
                   "namespace {\nstatic AnswerCache* g_answers = "
                   "new AnswerCache();\n}\n"),
            "A5");

  // A6: one telemetry name, one instrument kind, repo-wide.
  auto run_a6 = [](std::vector<std::pair<std::string, std::string>> files) {
    std::vector<SourceFile> sources;
    for (auto& [path, text] : files) {
      sources.push_back(MakeSourceFile(path, std::move(text)));
    }
    const RepoIndex index = BuildRepoIndex(std::move(sources));
    std::vector<Finding> out;
    CheckA6TelemetryNames(index, &out);
    return out;
  };
  h->Expect("A6 counter vs gauge across files",
            run_a6({{"src/stats/a.cc",
                     "void F(MetricsRegistry* m) {\n"
                     "  m->GetCounter(\"draws_total\").Increment();\n}\n"},
                    {"src/core/b.cc",
                     "void G(MetricsRegistry* m) {\n"
                     "  m->GetGauge(\"draws_total\").Set(1.0);\n}\n"}}),
            "A6");
  h->Expect("A6 histogram vs span",
            run_a6({{"src/core/a.cc",
                     "void F(const ObsOptions& obs) {\n"
                     "  ScopedSpan span(obs, \"kde_fit\");\n"
                     "  obs.metrics->GetHistogram(\"kde_fit\").Observe(1.0);\n"
                     "}\n"}}),
            "A6");
  h->Expect("A6 same kind twice is fine",
            run_a6({{"src/stats/a.cc",
                     "void F(MetricsRegistry* m) {\n"
                     "  m->GetCounter(\"draws_total\").Increment();\n}\n"},
                    {"src/core/b.cc",
                     "void G(MetricsRegistry* m) {\n"
                     "  m->GetCounter(\"draws_total\").Increment(2);\n}\n"}}),
            "");
  h->Expect("A6 distinct names are fine",
            run_a6({{"src/core/a.cc",
                     "void F(MetricsRegistry* m) {\n"
                     "  m->GetCounter(\"unis_draws_total\").Increment();\n"
                     "  m->GetGauge(\"queue_depth\").Set(2.0);\n"
                     "  m->GetHistogram(\"task_latency_seconds\");\n}\n"}}),
            "");
  h->Expect("A6 variable name invisible",
            run_a6({{"src/core/a.cc",
                     "void F(MetricsRegistry* m, const std::string& n) {\n"
                     "  m->GetCounter(n).Increment();\n"
                     "  m->GetGauge(n).Set(1.0);\n}\n"}}),
            "");
  h->Expect("A6 tests exempt",
            run_a6({{"src/core/a.cc",
                     "void F(MetricsRegistry* m) {\n"
                     "  m->GetCounter(\"draws_total\").Increment();\n}\n"},
                    {"tests/a_test.cc",
                     "void G(MetricsRegistry* m) {\n"
                     "  m->GetGauge(\"draws_total\").Set(1.0);\n}\n"}}),
            "");
  h->Expect("A6 allow",
            run_a6({{"src/core/a.cc",
                     "void F(MetricsRegistry* m) {\n"
                     "  m->GetCounter(\"draws_total\").Increment();\n"
                     "  m->GetGauge(\"draws_total\")"
                     ".Set(1.0);  // lint-invariants: allow(A6)\n}\n"}}),
            "");
  h->Expect("A6 journal event steals a counter name",
            run_a6({{"src/core/a.cc",
                     "void F(MetricsRegistry* m, FlightRecorder* r) {\n"
                     "  m->GetCounter(\"draws_total\").Increment();\n"
                     "  r->InternName(\"draws_total\");\n}\n"}}),
            "A6");
  h->Expect("A6 journal mirror allowlist",
            run_a6({{"src/serving/a.cc",
                     "void F(MetricsRegistry* m, FlightRecorder* r) {\n"
                     "  m->GetGauge(\"serving_in_flight\").Set(1.0);\n"
                     "  r->InternName(\"serving_in_flight\");\n}\n"}}),
            "");
  h->Expect("A6 transport in-flight mirror allowlisted",
            run_a6({{"src/transport/a.cc",
                     "void F(MetricsRegistry* m, FlightRecorder* r) {\n"
                     "  m->GetGauge(\"transport_in_flight\").Set(1.0);\n"
                     "  r->InternName(\"transport_in_flight\");\n}\n"}}),
            "");
  h->Expect("A6 allowlist does not cover metric pairs",
            run_a6({{"src/serving/a.cc",
                     "void F(MetricsRegistry* m) {\n"
                     "  m->GetGauge(\"serving_in_flight\").Set(1.0);\n"
                     "  m->GetCounter(\"serving_in_flight\").Increment();\n"
                     "}\n"}}),
            "A6");
}

void TestKeyedSeeds(Harness* h) {
  // A7: no Rng argument or .seed value built by seed arithmetic.
  auto run_a7 = [](const std::string& path, const std::string& text) {
    const SourceFile f = MakeSourceFile(path, text);
    std::vector<Finding> out;
    CheckA7KeyedSeeds(f, &out);
    return out;
  };
  h->Expect("A7 xor into a seed",
            run_a7("src/core/fake.cc",
                   "void F() { Rng rng(options.seed ^ 0x9e3779b9ULL); }\n"),
            "A7");
  h->Expect("A7 chunk stride",
            run_a7("src/sampling/fake.cc",
                   "void F(int c) {\n  Rng rng(options.seed +\n"
                   "          kStride * (c + 1));\n}\n"),
            "A7");
  h->Expect("A7 temporary with a seed on the right",
            run_a7("src/core/fake.cc",
                   "double F(uint64_t id) { return Rng(id ^ straggler_seed)"
                   ".Uniform01(); }\n"),
            "A7");
  h->Expect("A7 derived seed",
            run_a7("src/core/fake.cc",
                   "void F(int g) { options.seed = options_.seed + g; }\n"),
            "A7");
  h->Expect("A7 designated seed",
            run_a7("src/core/fake.cc",
                   "Opts F() { return Opts{.seed = base->seed ^ fp, .n = 2}; "
                   "}\n"),
            "A7");
  h->Expect("A7 compound assignment",
            run_a7("src/core/fake.cc", "void F() { options.seed ^= 7; }\n"),
            "A7");
  h->Expect("A7 keyed stream",
            run_a7("src/core/fake.cc",
                   "void F(int i) {\n"
                   "  Rng rng(StreamKey(seed, StreamTag::kUniSDraw, i + 1));\n"
                   "  options.seed = StreamKey(base.seed, StreamTag::kGroup, "
                   "g);\n}\n"),
            "");
  h->Expect("A7 plain seed",
            run_a7("src/core/fake.cc",
                   "void F() { Rng rng(options.seed); options.seed = seed; }\n"),
            "");
  h->Expect("A7 arithmetic on other values",
            run_a7("src/core/fake.cc",
                   "void F() { Rng rng(base + 1); total = a + b; }\n"),
            "");
  h->Expect("A7 random facade sanctioned",
            run_a7("src/util/random.cc",
                   "uint64_t K(uint64_t seed) { return Rng(seed ^ 1)(); }\n"),
            "");
  h->Expect("A7 allow",
            run_a7("src/core/fake.cc",
                   "void F() {\n  Rng rng(seed + 1);  "
                   "// lint-invariants: allow(A7)\n}\n"),
            "");
}

void TestBaseline(Harness* h) {
  const Finding finding{"A5", "src/core/fake.cc", 3, "mutable state"};
  const Baseline baseline = ParseBaseline(
      "# comment\n\n" + Render(finding) + "\n");
  const BaselineSplit split = ApplyBaseline({finding, finding}, baseline);
  h->Check("baseline absorbs once",
           split.baselined.size() == 1 && split.fresh.size() == 1,
           "multiset semantics broken");
  const BaselineSplit none = ApplyBaseline({finding}, Baseline());
  h->Check("empty baseline", none.fresh.size() == 1, "finding vanished");
}

}  // namespace

std::vector<std::string> RunSelfTest() {
  Harness harness;
  TestPythonCorpus(&harness);
  TestStructuralRules(&harness);
  TestKeyedSeeds(&harness);
  TestBaseline(&harness);
  return harness.failures;
}

}  // namespace analyze
}  // namespace vastats
