// hotlib-analyze — perf-analysis CLI over hotlib run reports.
//
//   hotlib-analyze report FILE...            paper-style tables for each report
//   hotlib-analyze diff A B                  compare two reports
//   hotlib-analyze check REPORT BASELINE     gate a report against a baseline
//   hotlib-analyze gate EXE NAME BASELINE    run a bench harness (tiny sizes,
//                                            reports into --report-dir), then
//                                            check it against BASELINE
//
// check/gate flags (both optional):
//   --tol=KEY=REL        per-key relative tolerance override, e.g.
//                        --tol=counters.bytes_sent=0.5 ; REL>0 on an exact
//                        key loosens it to a band, on a banded key it
//                        replaces the default relative band
//   --report-dir=DIR     (gate) where the harness writes reports
//
// Exit status: 0 clean, 1 check violations or broken input, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
               "       hotlib-analyze gate EXE NAME BASELINE [--report-dir=DIR ...]\n"
               "       hotlib-analyze stamp FILE KEY=VALUE\n");
  return 2;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

// Consumes --flag=value arguments into `policy`; leaves positionals in `pos`.
bool parse_args(int argc, char** argv, CheckPolicy& policy, std::string& report_dir,
                std::vector<std::string>& pos) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.starts_with("--")) {
      pos.push_back(arg);
      continue;
    }
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "hotlib-analyze: %s needs =value\n", arg.c_str());
      return false;
    }
    const std::string flag = arg.substr(0, eq);
    const std::string val = arg.substr(eq + 1);
    if (flag == "--tol") {
      const auto eq2 = val.find('=');
      double rel = 0.0;
      if (eq2 == std::string::npos || !parse_double(val.c_str() + eq2 + 1, rel)) {
        std::fprintf(stderr, "hotlib-analyze: --tol wants KEY=REL, got %s\n", val.c_str());
        return false;
      }
      policy.overrides[val.substr(0, eq2)] = rel;
      continue;
    }
    if (flag == "--report-dir") {
      report_dir = val;
      continue;
    }
    std::fprintf(stderr, "hotlib-analyze: unknown flag %s\n", flag.c_str());
    return false;
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
  std::string report_dir = ".";
  std::vector<std::string> pos;
  if (!parse_args(argc - 2, argv + 2, policy, report_dir, pos)) return 2;

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

  if (mode == "gate") {
    if (pos.size() != 3) return usage();
    const std::string& exe = pos[0];
    const std::string& name = pos[1];
    const std::string& baseline = pos[2];
    // Tiny sizes into a private report dir, so a parallel bench-smoke run of
    // the same harness never races the gate on BENCH_<name>.json.
    setenv("HOTLIB_BENCH_TINY", "1", 1);
    setenv("HOTLIB_REPORT_DIR", report_dir.c_str(), 1);
    const std::string report = report_dir + "/BENCH_" + name + ".json";
    std::remove(report.c_str());
    const int rc = std::system((exe + " > /dev/null").c_str());
    if (rc != 0) {
      std::fprintf(stderr, "hotlib-analyze: %s exited with status %d\n", exe.c_str(), rc);
      return 1;
    }
    return run_check(report, baseline, policy);
  }

  return usage();
}
