// Tests for tools/analyze: report loading against the strict parser and
// the run-report schema, the percentile helper, and — most importantly —
// the perf-gate tolerance policy: exact counters fail on any drift, traffic
// counters get a band, host-timed quantities only need to be finite,
// registered counters and gauges must all be reported, and --tol overrides
// rescale individual keys.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "analyze.hpp"
#include "telemetry/report.hpp"

namespace hotlib::tools {
namespace {

namespace fs = std::filesystem;

// The smallest document load_report accepts: every top-level total, no
// phase, and one rank series of one sample with no gauge track.
constexpr const char* kMinimalDocument =
    "{\"schema\":\"hotlib-run-report-v1\",\"name\":\"t\",\"nranks\":2,"
    "\"wall_seconds\":0.5,\"modelled_seconds\":0,\"interactions\":3,"
    "\"flops\":114,\"gflops_wall\":0,\"counters\":{\"body_body\":3},"
    "\"metrics\":{},\"phases\":[],\"timeseries\":[{\"rank\":0,"
    "\"stride_ticks\":1,\"tick\":[0],\"wall_s\":[0],\"virt_s\":[0],"
    "\"gauges\":{}}]}";

// A report with every registered counter and gauge, as the exporter writes.
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
  for (int i = 0; i < telemetry::kCounterCount; ++i)
    r.counters[telemetry::counter_name(static_cast<telemetry::Counter>(i))] = 0.0;
  r.counters["body_body"] = 900.0;
  r.counters["messages_sent"] = 200.0;
  r.metrics = {{"quality", 1.0}, {"morton_keys_per_s", 1e6}};
  Report::Series s;
  s.rank = 0;
  s.stride_ticks = 16;
  s.tick = {16, 32};
  s.wall_s = {0.01, 0.02};
  s.virt_s = {0.5, 1.0};
  for (int i = 0; i < telemetry::kGaugeCount; ++i)
    s.gauges[telemetry::gauge_name(static_cast<telemetry::Gauge>(i))] = {0, 0};
  s.gauges["tree_cells"] = {10, 20};
  r.timeseries.push_back(s);
  return r;
}

// A complete document from the run-report exporter: one phase (imbalance
// 1.5, 3 calls), one rank series of two samples and one metric.
std::string exported_document() {
  telemetry::RunReport r;
  r.name = "unit";
  r.nranks = 2;
  r.wall_seconds = 0.5;
  r.phases.push_back({.name = "traverse", .wall_seconds = 0.625, .virt_seconds = 2.0,
                      .max_rank_wall = 0.375, .mean_rank_wall = 0.25, .calls = 3});
  r.timeseries.push_back({.rank = 0, .stride_ticks = 16, .samples = {{}, {.tick = 16}}});
  r.counters[telemetry::Counter::kBodyBody] = 3;
  r.metrics["quality"] = 1.0;
  return telemetry::run_report_json(r);
}

// `doc` with its first `from` replaced by `to`.
std::string replaced(std::string doc, const std::string& from, const std::string& to) {
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) doc.replace(at, from.size(), to);
  return doc;
}

// load_report on `doc`, written to a temporary file.
bool load_document(const std::string& doc, Report& out, std::string& err) {
  const fs::path dir = fs::temp_directory_path() / "hotlib_analyze_schema_test";
  fs::create_directories(dir);
  const fs::path file = dir / "r.json";
  std::ofstream(file) << doc;
  const bool ok = load_report(file.string(), out, err);
  fs::remove_all(dir);
  return ok;
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
  std::ofstream(dir / "ok.json") << kMinimalDocument;
  EXPECT_TRUE(load_report((dir / "ok.json").string(), out, err)) << err;
  EXPECT_EQ(out.name, "t");
  EXPECT_EQ(out.nranks, 2);
  EXPECT_DOUBLE_EQ(out.counter("body_body"), 3.0);
  fs::remove_all(dir);
}

TEST(Analyze, LoadReportEnforcesTheSchema) {
  const std::string doc = exported_document();
  Report out;
  std::string err;
  ASSERT_TRUE(load_document(doc, out, err)) << err;
  EXPECT_DOUBLE_EQ(out.phases.at(0).imbalance, 1.5);
  EXPECT_EQ(out.timeseries.at(0).gauges.size(),
            static_cast<std::size_t>(telemetry::kGaugeCount));

  // Each broken document names its first fault.
  const std::pair<std::string, std::string> broken[] = {
      {replaced(doc, "\"wall_seconds\":0.5,", ""), "wall_seconds"},
      {replaced(doc, "\"nranks\":2", "\"nranks\":0"), "nranks"},
      {replaced(doc, "\"imbalance\":1.5", "\"imbalance\":0.5"), "phases[0].imbalance"},
      {replaced(doc, "\"calls\":3", "\"calls\":0"), "phases[0].calls"},
      {replaced(doc, "\"metrics\":{\"quality\":1}", "\"metrics\":[1]"), "metrics"},
      {replaced(doc, "\"body_body\":3", "\"body_body\":\"3\""), "counters.body_body"},
      {replaced(doc, "\"tree_cells\":[0,0]", "\"tree_cells\":[0]"),
       "timeseries[0].gauges.tree_cells"},
      {replaced(doc, "\"wall_s\":[", "\"wall_s\":[0,"), "timeseries[0].wall_s"},
      {replaced(doc, "\"stride_ticks\":16", "\"stride_ticks\":0"),
       "timeseries[0].stride_ticks"},
  };
  for (const auto& [text, fault] : broken) {
    EXPECT_FALSE(load_document(text, out, err)) << fault;
    EXPECT_NE(err.find(fault), std::string::npos) << err;
  }

  telemetry::RunReport empty;
  empty.name = "unit";
  empty.nranks = 1;
  EXPECT_FALSE(load_document(telemetry::run_report_json(empty), out, err));
  EXPECT_NE(err.find("timeseries"), std::string::npos) << err;
}

TEST(Analyze, RegisteredCountersAndGaugesMustBeReported) {
  // A baseline may predate the newest gauge, but the report under test
  // must carry every registered counter and gauge track, even where its
  // baseline lacks one too.
  Report old = make_report();
  old.timeseries[0].gauges.erase("pool_lent_seconds");
  EXPECT_TRUE(check_report(make_report(), old, CheckPolicy{}).ok());

  old.counters.erase("let_bodies_imported");
  CheckResult res = check_report(old, old, CheckPolicy{});
  ASSERT_EQ(res.violations.size(), 2u);
  EXPECT_NE(res.violations[0].find("let_bodies_imported"), std::string::npos);
  EXPECT_NE(res.violations[1].find("pool_lent_seconds"), std::string::npos);

  Report r = make_report();
  r.timeseries.push_back(r.timeseries[0]);
  r.timeseries[1].rank = 1;
  r.timeseries[1].gauges.erase("tree_cells");
  res = check_report(r, make_report(), CheckPolicy{});
  ASSERT_EQ(res.violations.size(), 1u);
  EXPECT_NE(res.violations[0].find("rank 1"), std::string::npos);
}

TEST(Analyze, StampInsertsReplacesAndValidates) {
  const fs::path dir = fs::temp_directory_path() / "hotlib_stamp_test";
  fs::create_directories(dir);
  const std::string path = (dir / "r.json").string();
  std::ofstream(path) << kMinimalDocument;
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
