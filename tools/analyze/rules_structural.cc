// A1-A5: structural rules over the token stream and include graph. These
// walk the `structural` token view (preprocessor directives excluded) so
// macro bodies cannot desynchronize brace/statement tracking.

#include "rules.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>
#include <unordered_set>

namespace vastats {
namespace analyze {
namespace {

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

// Structural-view accessor: index into `structural`, returning tokens.
class View {
 public:
  explicit View(const SourceFile& f)
      : tokens_(f.lex.tokens), view_(f.lex.structural) {}

  size_t size() const { return view_.size(); }
  const Token& operator[](size_t i) const {
    static const Token kEnd;
    return i < view_.size() ? tokens_[static_cast<size_t>(view_[i])] : kEnd;
  }

  // Index just past the closer matching the opener at `open` (`(`/`{`/`[`).
  size_t SkipBalanced(size_t open, const char* opener,
                      const char* closer) const {
    int depth = 0;
    for (size_t i = open; i < view_.size(); ++i) {
      if (IsPunct((*this)[i], opener)) ++depth;
      if (IsPunct((*this)[i], closer)) {
        if (--depth == 0) return i + 1;
      }
    }
    return view_.size();
  }

 private:
  const std::vector<Token>& tokens_;
  const std::vector<int>& view_;
};

void Emit(const SourceFile& f, const std::string& rule, int line,
          std::string message, std::vector<Finding>* out) {
  if (f.Allowed(rule, line)) return;
  out->push_back(Finding{rule, f.rel_path, line, std::move(message)});
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& n : names) {
    if (!joined.empty()) joined += ", ";
    joined += n;
  }
  return joined;
}

constexpr const char* kLayerDag =
    "util -> obs -> {stats, density, sampling, datagen} -> "
    "{integration, transport} -> {core, fusion} -> query -> serving";

}  // namespace

// --- A1: layering ----------------------------------------------------------

void CheckA1Layering(const RepoIndex& index, std::vector<Finding>* out) {
  // Back-edges against the layer DAG.
  for (size_t i = 0; i < index.files.size(); ++i) {
    const SourceFile& f = index.files[i];
    const int from_rank = LayerRank(f.layer_dir);
    if (from_rank < 0) continue;
    for (const IncludeEdge& edge : index.includes[i]) {
      const SourceFile& to = index.files[static_cast<size_t>(edge.to)];
      const int to_rank = LayerRank(to.layer_dir);
      if (to_rank < 0 || to_rank <= from_rank) continue;
      std::vector<std::string> chain =
          index.IncludeChain(static_cast<int>(i));
      chain.push_back(to.rel_path);
      std::string chain_text;
      for (const std::string& link : chain) {
        if (!chain_text.empty()) chain_text += " -> ";
        chain_text += link;
      }
      Emit(f, "A1", edge.line,
           "layering back-edge: `" + f.rel_path + "` (" + f.layer_dir +
               ", layer " + std::to_string(from_rank) +
               ") must not include `" + to.rel_path + "` (" + to.layer_dir +
               ", layer " + std::to_string(to_rank) +
               "); the dependency DAG is " + kLayerDag +
               "; include chain: " + chain_text,
           out);
    }
  }

  // Cycles: Kahn's algorithm; whatever cannot be topologically ordered sits
  // on at least one cycle. Walk first-edges among the leftovers to print a
  // concrete loop, deterministically.
  std::vector<int> out_degree(index.files.size(), 0);
  std::vector<std::vector<int>> included_by(index.files.size());
  for (size_t i = 0; i < index.includes.size(); ++i) {
    out_degree[i] = static_cast<int>(index.includes[i].size());
    for (const IncludeEdge& e : index.includes[i]) {
      included_by[static_cast<size_t>(e.to)].push_back(static_cast<int>(i));
    }
  }
  std::vector<int> ready;
  for (size_t i = 0; i < index.files.size(); ++i) {
    if (out_degree[i] == 0) ready.push_back(static_cast<int>(i));
  }
  size_t head = 0;
  while (head < ready.size()) {
    const int node = ready[head++];
    for (const int prev : included_by[static_cast<size_t>(node)]) {
      if (--out_degree[static_cast<size_t>(prev)] == 0) {
        ready.push_back(prev);
      }
    }
  }
  std::set<int> leftover;
  for (size_t i = 0; i < index.files.size(); ++i) {
    if (out_degree[i] > 0) leftover.insert(static_cast<int>(i));
  }
  while (!leftover.empty()) {
    const int start = *leftover.begin();
    std::vector<int> path{start};
    std::unordered_set<int> on_path{start};
    int cycle_from = -1;
    int current = start;
    while (cycle_from < 0) {
      int next = -1;
      for (const IncludeEdge& e : index.includes[static_cast<size_t>(
               current)]) {
        if (leftover.count(e.to) != 0) {
          next = e.to;
          break;
        }
      }
      if (next < 0) break;  // defensive; leftover nodes keep cyclic edges
      if (on_path.count(next) != 0) {
        cycle_from = next;
        break;
      }
      path.push_back(next);
      on_path.insert(next);
      current = next;
    }
    for (const int node : path) leftover.erase(node);
    if (cycle_from < 0) continue;
    // Trim the lead-in, rotate so the smallest index heads the cycle.
    std::vector<int> cycle(
        std::find(path.begin(), path.end(), cycle_from), path.end());
    std::rotate(cycle.begin(),
                std::min_element(cycle.begin(), cycle.end()), cycle.end());
    const SourceFile& anchor = index.files[static_cast<size_t>(cycle[0])];
    int line = 0;
    for (const IncludeEdge& e :
         index.includes[static_cast<size_t>(cycle[0])]) {
      if (e.to == (cycle.size() > 1 ? cycle[1] : cycle[0])) {
        line = e.line;
        break;
      }
    }
    std::string loop_text;
    for (const int node : cycle) {
      loop_text += index.files[static_cast<size_t>(node)].rel_path + " -> ";
    }
    loop_text += anchor.rel_path;
    Emit(anchor, "A1", line,
         "include cycle: " + loop_text +
             "; break the cycle (forward-declare, or split the header)",
         out);
  }
}

// --- A2: unordered iteration feeding order-sensitive sinks -----------------

namespace {

// Union of unordered variable/member names visible to `file_index` through
// its transitive includes (members are declared in headers; hazards live
// in the .cc files that include them).
std::unordered_set<std::string> UnorderedVarClosure(const RepoIndex& index,
                                                    int file_index) {
  std::unordered_set<std::string> names;
  std::vector<int> stack{file_index};
  std::unordered_set<int> seen{file_index};
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    const SourceFile& f = index.files[static_cast<size_t>(node)];
    names.insert(f.unordered_vars.begin(), f.unordered_vars.end());
    for (const IncludeEdge& e : index.includes[static_cast<size_t>(node)]) {
      if (seen.insert(e.to).second) stack.push_back(e.to);
    }
  }
  return names;
}

}  // namespace

void CheckA2UnorderedIteration(const SourceFile& f, const RepoIndex& index,
                               std::vector<Finding>* out) {
  const View V(f);
  const auto it = index.by_path.find(f.rel_path);
  if (it == index.by_path.end()) return;
  const std::unordered_set<std::string> unordered_vars =
      UnorderedVarClosure(index, it->second);

  for (size_t i = 0; i < V.size(); ++i) {
    if (!IsIdent(V[i], "for") || !IsPunct(V[i + 1], "(")) continue;
    const size_t close = V.SkipBalanced(i + 1, "(", ")") - 1;

    // Locate the iterated container: the expression after `:` in a
    // range-for, or the receiver of `.begin()` in an iterator loop.
    std::string container;
    size_t colon = 0;
    int depth = 0;
    for (size_t j = i + 1; j < close; ++j) {
      if (IsPunct(V[j], "(")) ++depth;
      if (IsPunct(V[j], ")")) --depth;
      if (depth == 1 && IsPunct(V[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon != 0) {
      for (size_t j = colon + 1; j < close; ++j) {
        const Token& t = V[j];
        if (t.kind != TokenKind::kIdentifier) continue;
        if (unordered_vars.count(t.text) != 0 ||
            (index.unordered_methods.count(t.text) != 0 &&
             IsPunct(V[j + 1], "(")) ||
            t.text.compare(0, 10, "unordered_") == 0) {
          container = t.text;
          break;
        }
      }
    } else {
      for (size_t j = i + 2; j < close; ++j) {
        if (!IsIdent(V[j], "begin") && !IsIdent(V[j], "cbegin")) continue;
        if (!IsPunct(V[j - 1], ".") && !IsPunct(V[j - 1], "->")) continue;
        const Token& recv = V[j - 2];
        if (recv.kind == TokenKind::kIdentifier &&
            unordered_vars.count(recv.text) != 0) {
          container = recv.text;
          break;
        }
        // x.accessor().begin(): the call before the `.` exposes unordered.
        if (IsPunct(recv, ")") && j >= 4 &&
            V[j - 4].kind == TokenKind::kIdentifier &&
            IsPunct(V[j - 3], "(") &&
            index.unordered_methods.count(V[j - 4].text) != 0) {
          container = V[j - 4].text;
          break;
        }
      }
    }
    if (container.empty()) continue;

    // Body extent.
    size_t body_begin = close + 1;
    size_t body_end;
    if (IsPunct(V[body_begin], "{")) {
      body_end = V.SkipBalanced(body_begin, "{", "}");
      ++body_begin;
    } else {
      body_end = body_begin;
      while (body_end < V.size() && !IsPunct(V[body_end], ";")) ++body_end;
    }

    // Hazards inside the body.
    std::string accum_detail;
    bool consumes_rng = false;
    std::vector<std::string> append_receivers;
    for (size_t j = body_begin; j < body_end; ++j) {
      const Token& t = V[j];
      if (t.kind == TokenKind::kPunct &&
          (t.text == "+=" || t.text == "-=" || t.text == "*=" ||
           t.text == "/=")) {
        if (accum_detail.empty()) accum_detail = "`" + t.text + "`";
      }
      if (t.kind != TokenKind::kIdentifier) continue;
      const bool member_call = j >= 1 && (IsPunct(V[j - 1], ".") ||
                                          IsPunct(V[j - 1], "->")) &&
                               IsPunct(V[j + 1], "(");
      if (member_call &&
          (t.text == "Add" || t.text == "Observe" || t.text == "Increment")) {
        if (accum_detail.empty()) accum_detail = "`." + t.text + "(...)`";
      }
      if (t.text == "rng" || t.text == "rng_" || t.text == "Rng") {
        consumes_rng = true;
      }
      if (member_call && (t.text == "push_back" ||
                          t.text == "emplace_back" || t.text == "append")) {
        const Token& recv = V[j - 2];
        append_receivers.push_back(
            recv.kind == TokenKind::kIdentifier ? recv.text : "");
      }
    }
    if (accum_detail.empty() && !consumes_rng && append_receivers.empty()) {
      continue;
    }

    // Sorted-snapshot discipline: appends are fine when every appended
    // container is sorted right after the loop.
    if (accum_detail.empty() && !consumes_rng) {
      bool all_sorted = !append_receivers.empty();
      for (const std::string& recv : append_receivers) {
        bool sorted = false;
        const size_t horizon = std::min(V.size(), body_end + 400);
        for (size_t j = body_end; j < horizon && !sorted; ++j) {
          if (!IsIdent(V[j], "sort") && !IsIdent(V[j], "stable_sort")) {
            continue;
          }
          if (!IsPunct(V[j + 1], "(")) continue;
          const size_t call_end = V.SkipBalanced(j + 1, "(", ")");
          for (size_t k = j + 2; k < call_end; ++k) {
            if (IsIdent(V[k], recv.c_str())) {
              sorted = true;
              break;
            }
          }
        }
        all_sorted = all_sorted && sorted;
      }
      if (all_sorted) continue;
    }

    std::string consequence;
    if (!accum_detail.empty()) {
      consequence = "feeds an accumulator (" + accum_detail + ")";
    } else if (consumes_rng) {
      consequence = "consumes the RNG stream";
    } else {
      consequence = "appends to output without a post-loop sort";
    }
    Emit(f, "A2", V[i].line,
         "iteration over unordered container `" + container + "` " +
             consequence +
             "; hash order is implementation-defined — iterate a sorted "
             "snapshot (e.g. DataSource::SortedBindings) or annotate "
             "`// lint-invariants: allow(A2)`",
         out);
  }
}

// --- A3: discarded Status / Result -----------------------------------------

namespace {

// Parses an id (:: id | . id | -> id)* chain starting at `j`; returns the
// index just past the chain and the last identifier (empty when `j` does
// not start a chain).
size_t ParseCallChain(const View& V, size_t j, std::string* last) {
  last->clear();
  while (V[j].kind == TokenKind::kIdentifier) {
    *last = V[j].text;
    const Token& sep = V[j + 1];
    if (IsPunct(sep, "::") || IsPunct(sep, ".") || IsPunct(sep, "->")) {
      j += 2;
    } else {
      return j + 1;
    }
  }
  return j;
}

}  // namespace

void CheckA3DiscardedStatus(const SourceFile& f, const RepoIndex& index,
                            std::vector<Finding>* out) {
  const View V(f);
  auto flag = [&](int line, const std::string& name, bool cast) {
    Emit(f, "A3", line,
         std::string(cast ? "`(void)`-cast discards the Status/Result of `"
                          : "call to `") +
             name +
             (cast ? "`" : "` discards its Status/Result") +
             "; handle or propagate the error, or annotate "
             "`// lint-invariants: allow(A3)` with a reason",
         out);
  };

  for (size_t i = 0; i < V.size(); ++i) {
    // (void)chain(...)  /  static_cast<void>(chain(...))
    std::string name;
    if (IsPunct(V[i], "(") && IsIdent(V[i + 1], "void") &&
        IsPunct(V[i + 2], ")")) {
      const size_t after = ParseCallChain(V, i + 3, &name);
      if (!name.empty() && IsPunct(V[after], "(") &&
          index.status_functions.count(name) != 0) {
        flag(V[i].line, name, true);
      }
      continue;
    }
    if (IsIdent(V[i], "static_cast") && IsPunct(V[i + 1], "<") &&
        IsIdent(V[i + 2], "void") && IsPunct(V[i + 3], ">") &&
        IsPunct(V[i + 4], "(")) {
      const size_t after = ParseCallChain(V, i + 5, &name);
      if (!name.empty() && IsPunct(V[after], "(") &&
          index.status_functions.count(name) != 0) {
        flag(V[i].line, name, true);
      }
      continue;
    }
    // Bare expression statement `chain(...);` right after a statement
    // boundary.
    const bool boundary = IsPunct(V[i], ";") || IsPunct(V[i], "{") ||
                          IsPunct(V[i], "}");
    if (!boundary) continue;
    const size_t start = i + 1;
    const size_t after = ParseCallChain(V, start, &name);
    if (name.empty() || after == start || !IsPunct(V[after], "(")) continue;
    const size_t call_end = V.SkipBalanced(after, "(", ")");
    if (call_end >= V.size() || !IsPunct(V[call_end], ";")) continue;
    if (index.status_functions.count(name) == 0) continue;
    flag(V[start].line, name, false);
  }
}

// --- A4: exhaustive switches over repo enums -------------------------------

void CheckA4ExhaustiveSwitch(const SourceFile& f, const RepoIndex& index,
                             std::vector<Finding>* out) {
  const View V(f);
  for (size_t i = 0; i < V.size(); ++i) {
    if (!IsIdent(V[i], "switch") || !IsPunct(V[i + 1], "(")) continue;
    const size_t cond_end = V.SkipBalanced(i + 1, "(", ")");
    if (!IsPunct(V[cond_end], "{")) continue;
    const size_t body_end = V.SkipBalanced(cond_end, "{", "}");

    std::string enum_name;
    std::set<std::string> named;
    bool has_default = false;
    int depth = 0;
    for (size_t j = cond_end; j < body_end; ++j) {
      if (IsPunct(V[j], "{")) ++depth;
      if (IsPunct(V[j], "}")) --depth;
      if (depth != 1 || V[j].kind != TokenKind::kIdentifier) continue;
      if (V[j].text == "default" && IsPunct(V[j + 1], ":")) {
        has_default = true;
        continue;
      }
      if (V[j].text != "case") continue;
      // Label tokens run to the single `:` (the lexer fuses `::`).
      std::vector<std::string> label_idents;
      size_t k = j + 1;
      for (; k < body_end && !IsPunct(V[k], ":"); ++k) {
        if (V[k].kind == TokenKind::kIdentifier) {
          label_idents.push_back(V[k].text);
        }
      }
      j = k;
      if (label_idents.empty()) continue;
      for (const std::string& ident : label_idents) {
        if (index.enums_by_name.count(ident) != 0) {
          enum_name = ident;
          break;
        }
      }
      if (enum_name.empty() && label_idents.size() == 1) {
        const auto owner = index.enum_of_enumerator.find(label_idents[0]);
        if (owner != index.enum_of_enumerator.end() &&
            !owner->second.empty()) {
          enum_name = owner->second;
        }
      }
      named.insert(label_idents.back());
    }
    if (enum_name.empty()) continue;
    const EnumDef* def = index.enums_by_name.at(enum_name);
    std::vector<std::string> missing;
    for (const std::string& enumerator : def->enumerators) {
      if (named.count(enumerator) == 0) missing.push_back(enumerator);
    }
    if (has_default) {
      std::string message =
          "switch over enum `" + enum_name +
          "` hides enumerators behind `default`; name every enumerator so "
          "new ones break the build (-Wswitch)";
      if (!missing.empty()) {
        message += " (unhandled: " + JoinNames(missing) + ")";
      }
      Emit(f, "A4", V[i].line, message, out);
    } else if (!missing.empty()) {
      Emit(f, "A4", V[i].line,
           "switch over enum `" + enum_name +
               "` does not handle enumerator(s) " + JoinNames(missing) +
               "; name every enumerator so new ones break the build "
               "(-Wswitch)",
           out);
    }
  }
}

// --- A5: mutable static-storage state --------------------------------------

namespace {

enum class Scope { kNamespace, kClass, kEnum, kFunction };

bool IsStorageKeyword(const Token& t) {
  return IsIdent(t, "static") || IsIdent(t, "thread_local");
}

// First statement token that is not a storage/linkage qualifier.
size_t FirstMeaningful(const View& V, const std::vector<size_t>& stmt) {
  for (size_t idx = 0; idx < stmt.size(); ++idx) {
    const Token& t = V[stmt[idx]];
    if (IsStorageKeyword(t) || IsIdent(t, "inline") ||
        IsIdent(t, "constinit")) {
      continue;
    }
    return idx;
  }
  return stmt.size();
}

bool IsDeclSkipKeyword(const std::string& text) {
  static const std::unordered_set<std::string> kSkip = {
      "namespace", "using",    "typedef",  "template", "friend",
      "static_assert", "class", "struct",  "union",    "enum",
      "extern",    "return",   "if",       "for",      "while",
      "do",        "switch",   "case",     "break",    "continue",
      "goto",      "public",   "private",  "protected", "asm",
      "new",       "delete",   "operator", "else",      "try",
      "catch",     "throw"};
  return kSkip.count(text) != 0;
}

void AnalyzeDeclStatement(const SourceFile& f, const View& V,
                          const std::vector<size_t>& stmt, Scope scope,
                          std::vector<Finding>* out) {
  if (stmt.empty()) return;
  bool has_static = false;
  for (const size_t idx : stmt) {
    if (IsStorageKeyword(V[idx])) has_static = true;
    if (IsIdent(V[idx], "operator") || IsIdent(V[idx], "extern")) return;
  }
  // Plain (non-static) declarations are only state at namespace scope;
  // everywhere else only static/thread_local has static storage duration.
  if (scope != Scope::kNamespace && !has_static) return;
  if (scope == Scope::kEnum) return;

  const size_t first = FirstMeaningful(V, stmt);
  if (first >= stmt.size()) return;
  const Token& head = V[stmt[first]];
  if (head.kind != TokenKind::kIdentifier || IsDeclSkipKeyword(head.text)) {
    return;
  }

  // Locate the first top-level `=` and `(`.
  size_t eq = stmt.size();
  size_t paren = stmt.size();
  int depth = 0;
  for (size_t idx = first; idx < stmt.size(); ++idx) {
    const Token& t = V[stmt[idx]];
    if (IsPunct(t, "(") || IsPunct(t, "[")) {
      if (depth == 0 && paren == stmt.size() && IsPunct(t, "(")) paren = idx;
      ++depth;
    }
    if (IsPunct(t, ")") || IsPunct(t, "]")) --depth;
    if (depth == 0 && eq == stmt.size() && IsPunct(t, "=")) eq = idx;
  }
  if (paren < eq) {
    // `T name(...)` — at namespace/class scope this is a function
    // declaration (the most-vexing-parse reading), not a variable.
    const Token& before = paren > 0 ? V[stmt[paren - 1]] : Token();
    if (before.kind == TokenKind::kIdentifier) return;
  }

  // Const detection: only a cv qualifier *before* the first top-level `*`
  // counts. `static ThreadPool* const pool` stays flagged — the binding is
  // immutable but it designates shared mutable state — while plain
  // `static const T kTable[]` passes. Qualifiers inside template argument
  // lists (`unique_ptr<const vector<double>>`) are ignored.
  bool is_const = false;
  int angle = 0;
  const size_t limit = std::min(eq, stmt.size());
  for (size_t idx = first; idx < limit; ++idx) {
    const Token& t = V[stmt[idx]];
    if (IsPunct(t, "<")) ++angle;
    if (IsPunct(t, ">")) --angle;
    if (IsPunct(t, ">>")) angle -= 2;
    if (angle > 0) continue;
    if (IsPunct(t, "*")) break;
    if (IsIdent(t, "const") || IsIdent(t, "constexpr") ||
        IsIdent(t, "constinit")) {
      is_const = true;
      break;
    }
  }
  if (is_const) return;

  // Declared name: identifier just before `=`, or before a trailing
  // `[...]`, or the statement's last identifier.
  std::string name;
  size_t name_limit = eq;
  while (name_limit > first) {
    const Token& t = V[stmt[name_limit - 1]];
    if (IsPunct(t, "]")) {
      while (name_limit > first && !IsPunct(V[stmt[name_limit - 1]], "[")) {
        --name_limit;
      }
      if (name_limit > first) --name_limit;  // step past the `[`
      continue;
    }
    if (t.kind == TokenKind::kIdentifier) {
      name = t.text;
      break;
    }
    --name_limit;
  }
  if (name.empty() || name == head.text) {
    // A single bare identifier is an expression statement, not a
    // declaration — unless a storage keyword says otherwise.
    if (!has_static || name.empty()) return;
  }

  Emit(f, "A5", V[stmt[0]].line,
       "`" + name +
           "` is mutable static-storage state; hidden cross-call coupling "
           "breaks replay determinism — make it const/constexpr, pass it "
           "explicitly, or keep such state behind the sanctioned facades "
           "(util/thread_pool.cc, obs/metrics.cc, obs/flight_recorder.cc, "
           "serving/caches.cc)",
       out);
}

}  // namespace

void CheckA5MutableGlobals(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel_path == "src/util/thread_pool.cc" ||
      f.rel_path == "src/obs/metrics.cc" ||
      f.rel_path == "src/obs/flight_recorder.cc" ||
      f.rel_path == "src/serving/caches.cc") {
    return;  // the sanctioned facades for process-wide state
  }
  const View V(f);
  std::vector<Scope> scopes{Scope::kNamespace};
  std::vector<size_t> stmt;

  for (size_t i = 0; i < V.size(); ++i) {
    const Token& t = V[i];
    if (IsPunct(t, "{")) {
      const size_t first = FirstMeaningful(V, stmt);
      const Token& head = first < stmt.size() ? V[stmt[first]] : Token();
      const Token& last = stmt.empty() ? Token() : V[stmt.back()];
      bool has_eq = false;
      int depth = 0;
      for (const size_t idx : stmt) {
        if (IsPunct(V[idx], "(")) ++depth;
        if (IsPunct(V[idx], ")")) --depth;
        if (depth == 0 && IsPunct(V[idx], "=")) has_eq = true;
      }
      if (IsIdent(head, "namespace") || IsIdent(head, "extern")) {
        scopes.push_back(Scope::kNamespace);
        stmt.clear();
      } else if (IsIdent(head, "class") || IsIdent(head, "struct") ||
                 IsIdent(head, "union")) {
        scopes.push_back(Scope::kClass);
        stmt.clear();
      } else if (IsIdent(head, "enum")) {
        scopes.push_back(Scope::kEnum);
        stmt.clear();
      } else if (IsIdent(head, "if") || IsIdent(head, "else") ||
                 IsIdent(head, "for") || IsIdent(head, "while") ||
                 IsIdent(head, "do") || IsIdent(head, "switch") ||
                 IsIdent(head, "try")) {
        scopes.push_back(Scope::kFunction);
        stmt.clear();
      } else if (has_eq || last.kind == TokenKind::kIdentifier ||
                 IsPunct(last, "]") || IsPunct(last, ">")) {
        // Initializer (`= {...}`, `x{...}`, lambda body inside an
        // initializer): skip it, the declaration continues to `;`.
        i = V.SkipBalanced(i, "{", "}") - 1;
      } else {
        scopes.push_back(Scope::kFunction);
        stmt.clear();
      }
      continue;
    }
    if (IsPunct(t, "}")) {
      if (scopes.size() > 1) scopes.pop_back();
      stmt.clear();
      continue;
    }
    if (IsPunct(t, ";")) {
      AnalyzeDeclStatement(f, V, stmt, scopes.back(), out);
      stmt.clear();
      continue;
    }
    stmt.push_back(i);
  }
}

// --- A6: one telemetry name, one instrument --------------------------------

void CheckA6TelemetryNames(const RepoIndex& index, std::vector<Finding>* out) {
  // First literal use of each name in walk order anchors the expected
  // instrument; later uses with a different instrument are the findings
  // (the exporters would emit colliding series, and a span stealing a
  // metric name corrupts both timelines).
  struct FirstUse {
    const SourceFile* file = nullptr;
    const TelemetryUse* use = nullptr;
  };
  std::map<std::string, FirstUse> first_by_name;
  // Names deliberately shared between a flight-recorder journal event and
  // exactly one metric instrument, so ExportChromeTrace can mirror the
  // journal onto the metric's counter track. Everything else keeps the
  // one-name-one-instrument rule.
  static const std::set<std::string> kJournalMirrorAllowlist = {
      "thread_pool_worker_utilization",  // pool gauge + worker journal events
      "serving_in_flight",               // admission gauge + scheduler events
      "transport_in_flight",             // depth gauge + prefetch journal
  };
  const auto mirror_allowed = [](const std::string& name,
                                 const std::string& a, const std::string& b) {
    return kJournalMirrorAllowlist.count(name) > 0 &&
           (a == "journal_event" || b == "journal_event");
  };
  for (const SourceFile& f : index.files) {
    if (f.rel_path.compare(0, 4, "src/") != 0) continue;
    for (const TelemetryUse& use : f.telemetry_uses) {
      const auto [it, inserted] =
          first_by_name.emplace(use.name, FirstUse{&f, &use});
      if (inserted || it->second.use->instrument == use.instrument) continue;
      if (mirror_allowed(use.name, use.instrument,
                         it->second.use->instrument)) {
        continue;
      }
      Emit(f, "A6", use.line,
           "telemetry name `" + use.name + "` is registered as a " +
               use.instrument + " here but as a " +
               it->second.use->instrument + " at " +
               it->second.file->rel_path + ":" +
               std::to_string(it->second.use->line) +
               "; one name must map to one instrument (colliding exporter "
               "series, corrupted trace tracks) — rename one of them",
           out);
    }
  }
}

// --- A7: keyed streams, no seed arithmetic ---------------------------------

namespace {

// An identifier naming a seed: `seed`, `straggler_seed`, `kWarmupSeed`, ...
bool IsSeedName(const Token& t) {
  if (t.kind != TokenKind::kIdentifier) return false;
  std::string lower;
  for (const char c : t.text) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lower.find("seed") != std::string::npos;
}

// True when a `^` or `+` in view positions [begin, end) has a seed as a
// direct operand: the token before it is a seed name, or the member chain
// after it (`a.b->seed`) names one.
bool HasSeedArithmetic(const View& V, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (!IsPunct(V[i], "^") && !IsPunct(V[i], "+")) continue;
    if (i > begin && IsSeedName(V[i - 1])) return true;
    for (size_t j = i + 1; j < end; j += 2) {
      if (IsSeedName(V[j])) return true;
      if (V[j].kind != TokenKind::kIdentifier) break;
      if (!IsPunct(V[j + 1], ".") && !IsPunct(V[j + 1], "->") &&
          !IsPunct(V[j + 1], "::")) {
        break;
      }
    }
  }
  return false;
}

// End (exclusive) of the expression starting at `begin`: the first `;`, or
// `,`/`)`/`}` at depth 0.
size_t ExpressionEnd(const View& V, size_t begin) {
  int depth = 0;
  for (size_t i = begin; i < V.size(); ++i) {
    const Token& t = V[i];
    if (IsPunct(t, "(") || IsPunct(t, "{") || IsPunct(t, "[")) ++depth;
    if (IsPunct(t, ")") || IsPunct(t, "}") || IsPunct(t, "]")) {
      if (depth-- == 0) return i;
    }
    if (IsPunct(t, ";") || (depth == 0 && IsPunct(t, ","))) return i;
  }
  return V.size();
}

}  // namespace

void CheckA7KeyedSeeds(const SourceFile& f, std::vector<Finding>* out) {
  if (f.rel_path == "src/util/random.h" || f.rel_path == "src/util/random.cc") {
    return;  // the one key derivation
  }
  const View V(f);
  int reported_line = 0;
  const auto report = [&](const Token& at, const char* what) {
    if (at.line == reported_line) return;
    reported_line = at.line;
    Emit(f, "A7", at.line,
         std::string(what) +
             " is built by seed arithmetic (`^`/`+` on a seed); derive it "
             "with StreamKey(seed, tag, index) (src/util/random.h) so the "
             "stream is keyed by (seed, phase, index)",
         out);
  };
  for (size_t i = 0; i < V.size(); ++i) {
    // `Rng(...)`, `Rng{...}`, `Rng name(...)`, `Rng name{...}`.
    if (IsIdent(V[i], "Rng") && !(i > 0 && IsPunct(V[i - 1], "::"))) {
      size_t open = i + 1;
      if (V[open].kind == TokenKind::kIdentifier) ++open;
      const bool paren = IsPunct(V[open], "(");
      if (!paren && !IsPunct(V[open], "{")) continue;
      const size_t close = V.SkipBalanced(open, paren ? "(" : "{",
                                          paren ? ")" : "}");
      if (HasSeedArithmetic(V, open + 1, close)) report(V[i], "an `Rng` seed");
      continue;
    }
    // `x.seed = ...`, `x->seed = ...`, and compound `seed += / ^=`.
    if (!IsSeedName(V[i]) || i == 0) continue;
    if (!IsPunct(V[i - 1], ".") && !IsPunct(V[i - 1], "->")) continue;
    const Token& op = V[i + 1];
    if (IsPunct(op, "+=") || IsPunct(op, "^=")) {
      report(V[i], "a `.seed` value");
    } else if (IsPunct(op, "=") &&
               HasSeedArithmetic(V, i + 2, ExpressionEnd(V, i + 2))) {
      report(V[i], "a `.seed` value");
    }
  }
}

}  // namespace analyze
}  // namespace vastats
