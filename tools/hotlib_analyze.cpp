// hotlib-analyze — perf-analysis CLI over hotlib run reports.
//
//   hotlib-analyze report FILE...            paper-style tables for each report
//   hotlib-analyze diff A B                  compare two reports
//   hotlib-analyze check REPORT BASELINE     gate a report against a baseline
//   hotlib-analyze run EXE NAME              run a bench harness at tiny sizes;
//                                            it must exit 0 and write
//                                            BENCH_NAME.json into the working
//                                            directory (a stale one is removed
//                                            first), for check to read
//   hotlib-analyze stamp FILE KEY=VALUE      add a provenance stamp
//
// Every verb that reads a report rejects one that breaks the run-report
// schema (load_report); check also applies the baseline policy
// (check_report). Its only flag, optional and repeatable:
//   --tol=KEY=REL        per-key relative tolerance override, e.g.
//                        --tol=counters.bytes_sent=0.5 ; REL>0 on an exact
//                        key loosens it to a band, on a banded key it
//                        replaces the default relative band
//
// Exit status: 0 clean, 1 check violations or broken input, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analyze.hpp"

using namespace hotlib::tools;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: hotlib-analyze report FILE...\n"
               "       hotlib-analyze diff A B\n"
               "       hotlib-analyze check REPORT BASELINE [--tol=KEY=REL ...]\n"
               "       hotlib-analyze run EXE NAME\n"
               "       hotlib-analyze stamp FILE KEY=VALUE\n");
  return 2;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

// Consumes --tol=KEY=REL arguments into `policy`; leaves positionals in `pos`.
bool parse_args(int argc, char** argv, CheckPolicy& policy, std::vector<std::string>& pos) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) {
      pos.push_back(arg);
      continue;
    }
    if (!arg.starts_with("--tol=")) {
      std::fprintf(stderr, "hotlib-analyze: unknown flag %s\n", arg.c_str());
      return false;
    }
    const std::string val = arg.substr(6);
    const auto eq = val.find('=');
    double rel = 0.0;
    if (eq == std::string::npos || !parse_double(val.c_str() + eq + 1, rel)) {
      std::fprintf(stderr, "hotlib-analyze: --tol wants KEY=REL, got %s\n", val.c_str());
      return false;
    }
    policy.overrides[val.substr(0, eq)] = rel;
  }
  return true;
}

int run_check(const std::string& report_path, const std::string& baseline_path,
              const CheckPolicy& policy) {
  Report report, baseline;
  std::string err;
  if (!load_report(report_path, report, err) || !load_report(baseline_path, baseline, err)) {
    std::fprintf(stderr, "hotlib-analyze: %s\n", err.c_str());
    return 1;
  }
  const CheckResult res = check_report(report, baseline, policy);
  if (res.ok()) {
    std::printf("hotlib-analyze: %s vs %s: %d checks OK\n", report_path.c_str(),
                baseline_path.c_str(), res.checked);
    return 0;
  }
  std::fprintf(stderr, "hotlib-analyze: %s vs %s: %zu of %d checks FAILED\n",
               report_path.c_str(), baseline_path.c_str(), res.violations.size(),
               res.checked);
  for (const std::string& v : res.violations)
    std::fprintf(stderr, "  %s\n", v.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  CheckPolicy policy;
  std::vector<std::string> pos;
  if (!parse_args(argc - 2, argv + 2, policy, pos)) return 2;

  if (mode == "report") {
    if (pos.empty()) return usage();
    int rc = 0;
    for (const std::string& path : pos) {
      Report r;
      std::string err;
      if (!load_report(path, r, err)) {
        std::fprintf(stderr, "hotlib-analyze: %s\n", err.c_str());
        rc = 1;
        continue;
      }
      std::fputs(render_report(r).c_str(), stdout);
    }
    return rc;
  }

  if (mode == "diff") {
    if (pos.size() != 2) return usage();
    Report a, b;
    std::string err;
    if (!load_report(pos[0], a, err) || !load_report(pos[1], b, err)) {
      std::fprintf(stderr, "hotlib-analyze: %s\n", err.c_str());
      return 1;
    }
    std::fputs(render_diff(a, b).c_str(), stdout);
    return 0;
  }

  if (mode == "check") {
    if (pos.size() != 2) return usage();
    return run_check(pos[0], pos[1], policy);
  }

  if (mode == "stamp") {
    if (pos.size() != 2) return usage();
    const auto eq = pos[1].find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "hotlib-analyze: stamp wants KEY=VALUE, got %s\n",
                   pos[1].c_str());
      return 2;
    }
    std::string err;
    if (!stamp_report(pos[0], pos[1].substr(0, eq), pos[1].substr(eq + 1), err)) {
      std::fprintf(stderr, "hotlib-analyze: %s\n", err.c_str());
      return 1;
    }
    return 0;
  }

  if (mode == "run") {
    if (pos.size() != 2) return usage();
    const std::string& exe = pos[0];
    const std::string report = "BENCH_" + pos[1] + ".json";
    setenv("HOTLIB_BENCH_TINY", "1", 1);
    setenv("HOTLIB_REPORT_DIR", ".", 1);
    std::remove(report.c_str());
    const int rc = std::system((exe + " > /dev/null").c_str());
    if (rc != 0) {
      std::fprintf(stderr, "hotlib-analyze: %s exited with status %d\n", exe.c_str(), rc);
      return 1;
    }
    if (std::FILE* f = std::fopen(report.c_str(), "rb")) {
      std::fclose(f);
      return 0;
    }
    std::fprintf(stderr, "hotlib-analyze: %s wrote no %s\n", exe.c_str(), report.c_str());
    return 1;
  }

  return usage();
}
