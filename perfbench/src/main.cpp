// perfbench — the repository benchmark: three workloads, end-to-end metrics
// from untraced runs, per-layer metrics from a traced run. See README.md.
//
//   perfbench --workload tree_step|let_step|serve_mixed --seed N
//             --seconds S --trace 0|1 [--serve-rate R]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload tree_step|let_step|serve_mixed --seed N "
               "--seconds S --trace 0|1 [--serve-rate R]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--serve-rate") a.serve_rate = std::strtod(v, nullptr);
    else return usage();
  }
  if (argc % 2 == 0 || !(a.seconds > 0) || !(a.serve_rate > 0)) return usage();

  // Pool lanes per workload, fixed so every run of a workload measures the
  // same configuration; set before anything creates the global pool.
  const char* lanes = a.workload == "tree_step"     ? "4"
                      : a.workload == "let_step"    ? "1"
                      : a.workload == "serve_mixed" ? "2"
                                                    : nullptr;
  if (lanes == nullptr) return usage();
  setenv("HOTLIB_THREADS", lanes, 1);

  if (a.workload == "tree_step") return perfbench::run_tree_step(a);
  if (a.workload == "let_step") return perfbench::run_let_step(a);
  return perfbench::run_serve_mixed(a);
}
