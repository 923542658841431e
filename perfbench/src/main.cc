// perfbench: the end-to-end benchmark of vastats. See perfbench/README.md.
//
//   perfbench --workload extract_d2|extract_wide|serve_zipf|chaos_transport
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--plant-density-delay F] [--spans-out PATH]
//
// Prints a report line and, last, one JSON result line; exits nonzero when
// any op fails or any correctness check fails.

#include <cstdio>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return 2;
  if (args.workload == "extract_d2") return perfbench::RunExtractD2(args);
  if (args.workload == "extract_wide") return perfbench::RunExtractWide(args);
  if (args.workload == "serve_zipf") return perfbench::RunServeZipf(args);
  if (args.workload == "chaos_transport") {
    return perfbench::RunChaosTransport(args);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
