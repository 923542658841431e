// Bound checks shared by the bench binaries that ctest runs as checks: the
// speed ratios under the `timing` label (serving, transport,
// micro_pipeline --check) and the seeded, deterministic reproduction
// criteria of DESIGN.md §4 (fig3_worked_example, table3_bootstrap_improvement
// and table4_cio_approximation with --check). Each binary measures its
// values, prints them as a plain text table with their bounds, and exits
// nonzero when any bound fails. A value that is not finite (a zero or
// missing timing) fails too.

#ifndef VASTATS_BENCH_CHECKS_H_
#define VASTATS_BENCH_CHECKS_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace vastats::bench {

enum class Bound { kAtLeast, kAbove, kBelow, kAtMost, kEqual };

struct BoundCheck {
  std::string name;
  double value;
  Bound bound;
  double limit;
};

inline bool Holds(const BoundCheck& check) {
  if (!std::isfinite(check.value)) return false;
  switch (check.bound) {
    case Bound::kAtLeast:
      return check.value >= check.limit;
    case Bound::kAbove:
      return check.value > check.limit;
    case Bound::kBelow:
      return check.value < check.limit;
    case Bound::kAtMost:
      return check.value <= check.limit;
    case Bound::kEqual:
      return check.value == check.limit;
  }
  return false;
}

// Prints one row per check and returns the process exit code: 0 when every
// bound holds, 1 otherwise.
inline int ReportChecks(const std::vector<BoundCheck>& checks) {
  int failed = 0;
  std::printf("%-34s %12s  %s\n", "check", "measured", "bound");
  for (const BoundCheck& check : checks) {
    const char* op = check.bound == Bound::kAtLeast  ? ">="
                     : check.bound == Bound::kAbove  ? ">"
                     : check.bound == Bound::kBelow  ? "<"
                     : check.bound == Bound::kAtMost ? "<="
                                                     : "==";
    const bool ok = Holds(check);
    failed += ok ? 0 : 1;
    std::printf("%-34s %12.4g  %s %g  %s\n", check.name.c_str(), check.value, op,
                check.limit, ok ? "ok" : "FAIL");
  }
  std::printf("%s: %d of %zu bounds failed\n", failed ? "FAIL" : "ok", failed,
              checks.size());
  return failed ? 1 : 0;
}

}  // namespace vastats::bench

#endif  // VASTATS_BENCH_CHECKS_H_
