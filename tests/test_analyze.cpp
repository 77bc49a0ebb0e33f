// Tests for tools/analyze: report loading against the strict parser, the
// percentile helper, and — most importantly — the perf-gate tolerance
// policy: exact counters fail on any drift, traffic counters get a band,
// host-timed quantities only need to be finite, and --tol overrides
// rescale individual keys.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "analyze.hpp"

namespace hotlib::tools {
namespace {

Report make_report() {
  Report r;
  r.name = "unit";
  r.nranks = 4;
  r.wall_seconds = 0.1;
  r.modelled_seconds = 10.0;
  r.interactions = 1000;
  r.flops = 38000;
  Report::Phase p;
  p.name = "traverse";
  p.calls = 2;
  p.wall_seconds = 0.05;
  p.virt_seconds = 4.0;
  p.max_rank_wall = 0.02;
  p.mean_rank_wall = 0.0125;
  r.phases.push_back(p);
  r.counters = {{"body_body", 900.0}, {"messages_sent", 200.0}};
  r.metrics = {{"quality", 1.0}, {"morton_keys_per_s", 1e6}};
  Report::Series s;
  s.rank = 0;
  s.stride_ticks = 16;
  s.tick = {16, 32};
  s.wall_s = {0.01, 0.02};
  s.virt_s = {0.5, 1.0};
  s.gauges["tree_cells"] = {10, 20};
  r.timeseries.push_back(s);
  return r;
}

TEST(Analyze, SelfCheckIsClean) {
  const Report r = make_report();
  const CheckResult res = check_report(r, r, CheckPolicy{});
  EXPECT_TRUE(res.ok()) << (res.violations.empty() ? "" : res.violations[0]);
  EXPECT_GT(res.checked, 5);
}

TEST(Analyze, ExactCounterDriftIsViolation) {
  const Report base = make_report();
  Report r = base;
  r.counters["body_body"] += 1;  // deterministic counter: any drift fails
  const CheckResult res = check_report(r, base, CheckPolicy{});
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_NE(res.violations[0].find("body_body"), std::string::npos);
}

TEST(Analyze, TrafficCounterHasBandButNotUnlimited) {
  const Report base = make_report();
  Report r = base;
  r.counters["messages_sent"] = 260;  // +30% of 200, inside the 35% band
  EXPECT_TRUE(check_report(r, base, CheckPolicy{}).ok());
  r.counters["messages_sent"] = 400;  // +100%: out
  EXPECT_FALSE(check_report(r, base, CheckPolicy{}).ok());
}

TEST(Analyze, HostTimedQuantitiesOnlyNeedToBeFinite) {
  // Wall times and host-timed metrics are not determined by the run, so no
  // host speed moves them out of the gate; modelled metrics keep a band.
  Report base = make_report();
  base.metrics["tenant1_p99_query_latency_us"] = 100.0;
  base.metrics["disabled_span_ns"] = 0.6;
  base.metrics["gflops_model_red"] = 635.12;
  for (const double f : {1000.0, 0.001}) {
    Report r = base;
    r.wall_seconds *= f;
    r.phases[0].wall_seconds *= f;
    r.phases[0].max_rank_wall *= f;
    r.phases[0].mean_rank_wall *= f;
    for (const char* key :
         {"morton_keys_per_s", "tenant1_p99_query_latency_us", "disabled_span_ns"})
      r.metrics[key] *= f;
    const CheckResult res = check_report(r, base, CheckPolicy{});
    EXPECT_TRUE(res.ok()) << "x" << f << ": " << (res.ok() ? "" : res.violations[0]);
  }
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Report r = base;
    r.metrics["morton_keys_per_s"] = bad;
    const CheckResult res = check_report(r, base, CheckPolicy{});
    ASSERT_EQ(res.violations.size(), 1u);
    EXPECT_NE(res.violations[0].find("morton_keys_per_s"), std::string::npos);
  }
  Report r = base;
  r.metrics["gflops_model_red"] = 1270.24;  // 2x: outside the 50% band
  const CheckResult res = check_report(r, base, CheckPolicy{});
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_NE(res.violations[0].find("gflops_model_red"), std::string::npos);
}

TEST(Analyze, NonFinitePercentileIsViolation) {
  Report base = make_report();
  base.metrics["serve_p99_wait_us"] = 100.0;
  Report r = base;
  r.metrics["serve_p99_wait_us"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(check_report(r, base, CheckPolicy{}).ok());
  r.metrics["serve_p99_wait_us"] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(check_report(r, base, CheckPolicy{}).ok());
}

TEST(Analyze, MissingAndNewKeysAreViolations) {
  const Report base = make_report();
  Report r = base;
  r.counters.erase("body_body");
  r.metrics["brand_new"] = 1.0;
  const CheckResult res = check_report(r, base, CheckPolicy{});
  EXPECT_EQ(res.violations.size(), 2u);
}

TEST(Analyze, PhaseStructureMustMatch) {
  const Report base = make_report();
  Report r = base;
  r.phases[0].calls = 3;  // phase ran a different number of times
  EXPECT_FALSE(check_report(r, base, CheckPolicy{}).ok());
  r = base;
  r.phases.clear();
  EXPECT_FALSE(check_report(r, base, CheckPolicy{}).ok());
}

TEST(Analyze, TolOverrideLoosensExactAndTightensBanded) {
  Report base = make_report();
  base.counters["messages_sent"] = 2000;
  Report r = base;
  r.counters["body_body"] = 910;  // +1.1%
  CheckPolicy loose;
  loose.overrides["counters.body_body"] = 0.05;
  EXPECT_TRUE(check_report(r, base, loose).ok());
  r = base;
  r.counters["messages_sent"] = 2300;  // +15%, inside the default 35% band
  EXPECT_TRUE(check_report(r, base, CheckPolicy{}).ok());
  CheckPolicy tight;
  tight.overrides["counters.messages_sent"] = 0.10;  // slack 200 < 300
  EXPECT_FALSE(check_report(r, base, tight).ok());
}

TEST(Analyze, Percentile) {
  const std::vector<double> v{4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.95), 7.0);
}

TEST(Analyze, RenderersMentionTheImportantNumbers) {
  const Report r = make_report();
  const std::string report = render_report(r);
  EXPECT_NE(report.find("traverse"), std::string::npos);
  EXPECT_NE(report.find("body_body"), std::string::npos);
  EXPECT_NE(report.find("tree_cells"), std::string::npos);
  Report b = r;
  b.counters["body_body"] = 1000;
  const std::string diff = render_diff(r, b);
  EXPECT_NE(diff.find("body_body"), std::string::npos);
  EXPECT_NE(diff.find("+11.1%"), std::string::npos);
}

TEST(Analyze, LoadReportRejectsJunkAndWrongSchema) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hotlib_analyze_test";
  fs::create_directories(dir);
  Report out;
  std::string err;
  EXPECT_FALSE(load_report((dir / "missing.json").string(), out, err));
  EXPECT_FALSE(err.empty());
  std::ofstream(dir / "junk.json") << "{\"a\":";
  EXPECT_FALSE(load_report((dir / "junk.json").string(), out, err));
  std::ofstream(dir / "other.json") << "{\"schema\":\"something-else\"}";
  EXPECT_FALSE(load_report((dir / "other.json").string(), out, err));
  EXPECT_NE(err.find("hotlib-run-report-v1"), std::string::npos);
  std::ofstream(dir / "ok.json")
      << "{\"schema\":\"hotlib-run-report-v1\",\"name\":\"t\",\"nranks\":2,"
         "\"wall_seconds\":0.5,\"counters\":{\"body_body\":3},"
         "\"metrics\":{},\"phases\":[],\"timeseries\":[]}";
  EXPECT_TRUE(load_report((dir / "ok.json").string(), out, err)) << err;
  EXPECT_EQ(out.name, "t");
  EXPECT_EQ(out.nranks, 2);
  EXPECT_DOUBLE_EQ(out.counter("body_body"), 3.0);
  fs::remove_all(dir);
}

TEST(Analyze, StampInsertsReplacesAndValidates) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hotlib_stamp_test";
  fs::create_directories(dir);
  const std::string path = (dir / "r.json").string();
  std::ofstream(path)
      << "{\"schema\":\"hotlib-run-report-v1\",\"name\":\"t\",\"nranks\":1,"
         "\"counters\":{\"body_body\":3},\"metrics\":{},\"phases\":[],"
         "\"timeseries\":[]}";
  Report out;
  std::string err;

  // Insert: document stays loadable, stamp is ignored by the loader.
  ASSERT_TRUE(stamp_report(path, "kernel_path", "avx2", err)) << err;
  ASSERT_TRUE(load_report(path, out, err)) << err;
  EXPECT_EQ(out.name, "t");
  EXPECT_DOUBLE_EQ(out.counter("body_body"), 3.0);
  {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"kernel_path\": \"avx2\""), std::string::npos);
  }

  // Re-stamp replaces instead of duplicating (the strict parser would
  // reject a duplicate key).
  ASSERT_TRUE(stamp_report(path, "kernel_path", "scalar", err)) << err;
  ASSERT_TRUE(load_report(path, out, err)) << err;
  {
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("\"kernel_path\": \"scalar\""), std::string::npos);
    EXPECT_EQ(text.find("avx2"), std::string::npos);
  }

  // A second, different stamp coexists with the first.
  ASSERT_TRUE(stamp_report(path, "toolchain", "gcc", err)) << err;
  ASSERT_TRUE(load_report(path, out, err)) << err;

  // Stamping a key the document already owns elsewhere fails validation
  // (duplicate key) and leaves the file untouched.
  EXPECT_FALSE(stamp_report(path, "name", "x", err));
  EXPECT_NE(err.find("invalid"), std::string::npos);
  ASSERT_TRUE(load_report(path, out, err)) << err;
  EXPECT_EQ(out.name, "t");

  // Quotes/backslashes and junk files are rejected.
  EXPECT_FALSE(stamp_report(path, "bad\"key", "v", err));
  EXPECT_FALSE(stamp_report(path, "k", "bad\\value", err));
  std::ofstream(dir / "junk.json") << "no object here";
  EXPECT_FALSE(stamp_report((dir / "junk.json").string(), "k", "v", err));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hotlib::tools
