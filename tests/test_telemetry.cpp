// Tests for src/telemetry: ring-buffer wrap-around, span nesting and
// phase attribution, the disabled path, exact counter/tally agreement,
// concurrent per-rank recording under the parc runtime (the faults label
// puts this file in the TSan slice), the strict JSON parser, and the
// run-report/Chrome-trace exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "gravity/evaluator.hpp"
#include "gravity/models.hpp"
#include "gravity/parallel.hpp"
#include "hot/tree.hpp"
#include "parc/parc.hpp"
#include "telemetry/telemetry.hpp"

namespace hotlib::telemetry {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    Registry::instance().reset();
  }
  void TearDown() override {
    detach_rank();
    set_enabled(false);
    Registry::instance().reset();
    Registry::instance().set_capacity(1 << 14);
    Registry::instance().set_sample_capacity(256);
  }

  // Spin until at least `seconds` of registry wall time has passed.
  static void busy(double seconds) {
    const double until = Registry::instance().now() + seconds;
    while (Registry::instance().now() < until) {
    }
  }
};

// ---- ring buffer -----------------------------------------------------------

TEST_F(TelemetryTest, RingKeepsEventsInOrderBeforeWrap) {
  Registry::instance().set_capacity(16);
  RankChannel* ch = attach_rank(0);
  ASSERT_NE(ch, nullptr);
  for (std::uint64_t i = 0; i < 5; ++i) instant("tick", Phase::kOther, i);
  EXPECT_EQ(ch->size(), 5u);
  EXPECT_EQ(ch->dropped(), 0u);
  const auto events = ch->events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].arg, i);
}

TEST_F(TelemetryTest, RingWrapAroundKeepsNewestAndCountsDropped) {
  Registry::instance().set_capacity(8);
  RankChannel* ch = attach_rank(0);
  ASSERT_NE(ch, nullptr);
  for (std::uint64_t i = 0; i < 20; ++i) instant("tick", Phase::kOther, i);
  EXPECT_EQ(ch->size(), 8u);
  EXPECT_EQ(ch->capacity(), 8u);
  EXPECT_EQ(ch->dropped(), 12u);
  const auto events = ch->events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-to-newest: the 12 oldest were overwritten, 12..19 remain.
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(events[i].arg, 12 + i);
}

// ---- spans -----------------------------------------------------------------

TEST_F(TelemetryTest, SpanNestingRecordsDepths) {
  RankChannel* ch = attach_rank(0);
  ASSERT_NE(ch, nullptr);
  {
    Span outer("outer", Phase::kTreeBuild);
    {
      Span mid("mid", Phase::kTreeBuild);
      Span inner("inner", Phase::kComm);
    }
  }
  // Destruction order: inner, mid, outer.
  const auto events = ch->events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_EQ(ch->depth(), 0);
}

TEST_F(TelemetryTest, OnlyTopLevelSpansAccumulatePhaseTotals) {
  RankChannel* ch = attach_rank(0);
  ASSERT_NE(ch, nullptr);
  {
    Span outer("outer", Phase::kTreeBuild);
    // Nested spans — same phase and a different one — must not double-count:
    // their time already lives inside the outer span's total.
    Span same("nested_same", Phase::kTreeBuild);
    Span comm("nested_comm", Phase::kComm);
    busy(1e-4);
  }
  EXPECT_EQ(ch->phase_total(Phase::kTreeBuild).calls, 1u);
  EXPECT_GT(ch->phase_total(Phase::kTreeBuild).wall_seconds, 0.0);
  EXPECT_EQ(ch->phase_total(Phase::kComm).calls, 0u);
  // kOther spans are traced but never enter the phase rollup.
  { Span other("misc", Phase::kOther); }
  EXPECT_EQ(ch->phase_total(Phase::kOther).calls, 0u);
}

TEST_F(TelemetryTest, DisabledPathRecordsNothing) {
  set_enabled(false);
  EXPECT_EQ(attach_rank(0), nullptr);
  EXPECT_EQ(channel(), nullptr);
  {
    Span span("ghost", Phase::kForceEval, 7);
    instant("ghost_marker", Phase::kComm);
    count(Counter::kBodyBody, 99);
  }
  EXPECT_TRUE(Registry::instance().channels().empty());
  EXPECT_EQ(global_counters()[Counter::kBodyBody], 0u);
}

// ---- counters --------------------------------------------------------------

TEST_F(TelemetryTest, CounterBlockArithmetic) {
  CounterBlock a, b;
  a[Counter::kBodyBody] = 100;
  a[Counter::kBodyCell] = 20;
  b[Counter::kBodyBody] = 60;
  const CounterBlock sum = a + b;
  EXPECT_EQ(sum[Counter::kBodyBody], 160u);
  const CounterBlock diff = sum - b;
  EXPECT_EQ(diff[Counter::kBodyBody], 100u);
  EXPECT_EQ(sum.interactions(), 180u);
  EXPECT_DOUBLE_EQ(sum.flops(), 180.0 * kFlopsPerGravityInteraction);
}

TEST_F(TelemetryTest, RegistryFlopsMatchReturnedTallyExactly) {
  attach_rank(0);
  auto b = gravity::plummer_sphere(500, 42);
  const auto domain = gravity::fit_domain(b);
  hot::Tree tree;
  tree.build(b.pos, b.mass, domain, {.bucket_size = 16});
  const gravity::TreeForceConfig cfg{.mac = hot::Mac{.theta = 0.5},
                                     .softening = 0.02};
  const InteractionTally tally =
      gravity::tree_forces(tree, b.pos, b.mass, cfg, b.acc, b.pot);
  // The paper's acceptance bar: registry totals equal the tally bit-for-bit,
  // because hot loops flush their local tally through count_tally() once.
  const CounterBlock c = global_counters();
  EXPECT_EQ(c[Counter::kBodyBody], tally.body_body);
  EXPECT_EQ(c[Counter::kBodyCell], tally.body_cell);
  EXPECT_EQ(c[Counter::kCellsOpened], tally.cells_opened);
  EXPECT_EQ(c[Counter::kMacTests], tally.mac_tests);
  EXPECT_EQ(c.interactions(), tally.interactions());
  EXPECT_DOUBLE_EQ(c.flops(), tally.flops());
  EXPECT_GT(c.interactions(), 0u);
}

// ---- concurrent rank recording (runs under TSan via the faults label) ------

TEST_F(TelemetryTest, ConcurrentRankWritesStayPerChannel) {
  constexpr int kRanks = 8;
  constexpr std::uint64_t kIters = 2000;
  parc::Runtime::run(kRanks, [&](parc::Rank&) {
    for (std::uint64_t i = 0; i < kIters; ++i) {
      Span span("work", Phase::kForceEval, i);
      count(Counter::kBodyBody);
      if ((i & 255) == 0) instant("marker", Phase::kComm, i);
    }
  });
  const auto channels = Registry::instance().channels();
  ASSERT_EQ(channels.size(), static_cast<std::size_t>(kRanks));
  std::uint64_t total = 0;
  for (const RankChannel* ch : channels) {
    EXPECT_GT(ch->size(), 0u);
    EXPECT_EQ(ch->phase_total(Phase::kForceEval).calls, kIters);
    total += ch->counters()[Counter::kBodyBody];
  }
  EXPECT_EQ(total, kRanks * kIters);
  EXPECT_EQ(global_counters()[Counter::kBodyBody], kRanks * kIters);
}

// ---- health sampler --------------------------------------------------------

TEST_F(TelemetryTest, GaugesAreSetAddAndSnapshotted) {
  RankChannel* ch = attach_rank(0);
  ASSERT_NE(ch, nullptr);
  gauge_set(Gauge::kTreeCells, 100.0);
  gauge_add(Gauge::kTreeCells, 32.0);
  gauge_set(Gauge::kHashMeanProbe, 1.25);
  EXPECT_DOUBLE_EQ(ch->gauge(Gauge::kTreeCells), 132.0);
  EXPECT_DOUBLE_EQ(ch->gauge(Gauge::kHashMeanProbe), 1.25);
  EXPECT_TRUE(ch->samples().empty());
  sample_now();
  ASSERT_EQ(ch->samples().size(), 1u);
  const HealthSample& s = ch->samples().back();
  EXPECT_DOUBLE_EQ(s.gauges[static_cast<std::size_t>(Gauge::kTreeCells)], 132.0);
  EXPECT_DOUBLE_EQ(s.gauges[static_cast<std::size_t>(Gauge::kHashMeanProbe)], 1.25);
  EXPECT_GE(s.wall, 0.0);
}

TEST_F(TelemetryTest, TreeGaugesDescribeTheLocalTreeAfterALetStep) {
  // apply_let_import builds a scratch tree over the imported bodies; after
  // the step the rank's tree gauges still describe the local tree it holds.
  const hot::Bodies all = gravity::plummer_sphere(2000, 5);
  const auto domain = gravity::fit_domain(all);
  parc::Runtime::run(2, [&](parc::Rank& r) {
    hot::Bodies local;
    for (std::size_t i = static_cast<std::size_t>(r.rank()); i < all.size(); i += 2)
      local.append_from(all, i);
    hot::Tree tree;
    const auto res =
        gravity::parallel_tree_forces(r, local, domain, gravity::TreeForceConfig{}, &tree);
    ASSERT_GT(res.let_bodies, 0u);
    const RankChannel* ch = channel();
    ASSERT_NE(ch, nullptr);
    EXPECT_DOUBLE_EQ(ch->gauge(Gauge::kTreeCells), static_cast<double>(tree.cells().size()));
    EXPECT_DOUBLE_EQ(ch->gauge(Gauge::kTreeBodies), static_cast<double>(tree.body_count()));
  });
}

TEST_F(TelemetryTest, SampleTickFiresOncePerStride) {
  RankChannel* ch = attach_rank(0);
  ASSERT_NE(ch, nullptr);
  const std::uint64_t stride = ch->sample_stride();
  ASSERT_GT(stride, 1u);
  int fired = 0;
  for (std::uint64_t i = 0; i < 3 * stride; ++i)
    if (sample_tick()) {
      ++fired;
      sample_now();
    }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(ch->samples().size(), 3u);
}

TEST_F(TelemetryTest, SampleRingDecimatesInsteadOfDropping) {
  Registry::instance().set_sample_capacity(8);
  RankChannel* ch = attach_rank(0);
  ASSERT_NE(ch, nullptr);
  const std::uint64_t stride0 = ch->sample_stride();
  for (int i = 0; i < 100; ++i) {
    gauge_set(Gauge::kTreeCells, static_cast<double>(i));
    sample_now();
  }
  // Bounded memory: the ring halves itself (keeping every other sample) and
  // doubles the stride rather than discarding the newest or oldest samples.
  EXPECT_LE(ch->samples().size(), 8u);
  EXPECT_GT(ch->sample_stride(), stride0);
  // Coverage spans the whole run: first-ish and the latest sample survive.
  EXPECT_DOUBLE_EQ(ch->samples().back().gauges[static_cast<std::size_t>(Gauge::kTreeCells)],
                   99.0);
  EXPECT_LT(ch->samples().front().gauges[static_cast<std::size_t>(Gauge::kTreeCells)],
            50.0);
}

TEST_F(TelemetryTest, SamplerDisabledPathIsInert) {
  set_enabled(false);
  gauge_set(Gauge::kTreeCells, 5.0);
  gauge_add(Gauge::kTreeBodies, 5.0);
  EXPECT_FALSE(sample_tick());
  sample_now();
  EXPECT_TRUE(Registry::instance().channels().empty());
}

TEST_F(TelemetryTest, MemoryGaugeTracksLiveAndPeakBytes) {
  mem_gauge_reset();
  const double live0 = mem_live_bytes();
  {
    std::vector<char> block(1 << 20);
    EXPECT_GE(mem_live_bytes(), live0 + (1 << 20));
    EXPECT_GE(mem_peak_bytes(), mem_live_bytes());
  }
  EXPECT_LT(mem_live_bytes(), live0 + (1 << 20));
  EXPECT_GE(mem_peak_bytes(), live0 + (1 << 20));  // peak survives the free
}

TEST_F(TelemetryTest, RunReportJsonCarriesTimeseries) {
  attach_rank(2);
  gauge_set(Gauge::kTreeCells, 7.0);
  sample_now();
  sample_now();
  const auto r = json_parse(run_report_json(build_run_report("ts", 0.1)));
  ASSERT_TRUE(r.ok) << r.error;
  const JsonValue* ts = r.value.find("timeseries");
  ASSERT_NE(ts, nullptr);
  ASSERT_TRUE(ts->is_array());
  ASSERT_EQ(ts->as_array().size(), 1u);
  const JsonValue& s = ts->as_array()[0];
  EXPECT_DOUBLE_EQ(s.find("rank")->as_number(), 2.0);
  EXPECT_GE(s.find("stride_ticks")->as_number(), 1.0);
  ASSERT_TRUE(s.find("tick")->is_array());
  const std::size_t n = s.find("tick")->as_array().size();
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(s.find("wall_s")->as_array().size(), n);
  EXPECT_EQ(s.find("virt_s")->as_array().size(), n);
  const JsonValue* gauges = s.find("gauges");
  ASSERT_NE(gauges, nullptr);
  // Every registered gauge has a track of the same length.
  for (int g = 0; g < kGaugeCount; ++g) {
    const JsonValue* track = gauges->find(gauge_name(static_cast<Gauge>(g)));
    ASSERT_NE(track, nullptr) << gauge_name(static_cast<Gauge>(g));
    EXPECT_EQ(track->as_array().size(), n);
  }
  EXPECT_DOUBLE_EQ(gauges->find("tree_cells")->as_array()[0].as_number(), 7.0);
}

TEST_F(TelemetryTest, ChromeTraceCarriesHealthCounterEvents) {
  attach_rank(1);
  gauge_set(Gauge::kHashEntries, 64.0);
  sample_now();
  const auto r = json_parse(chrome_trace_json());
  ASSERT_TRUE(r.ok) << r.error;
  bool saw_counter = false;
  for (const auto& e : r.value.find("traceEvents")->as_array()) {
    if (e.find("ph")->as_string() != "C") continue;
    saw_counter = true;
    EXPECT_EQ(e.find("name")->as_string(), "health");
    EXPECT_DOUBLE_EQ(e.find("tid")->as_number(), 1.0);
    EXPECT_DOUBLE_EQ(e.find("args")->find("hash_entries")->as_number(), 64.0);
  }
  EXPECT_TRUE(saw_counter);
}

TEST_F(TelemetryTest, ParcPollProducesHealthSamples) {
  // End-to-end: ABM traffic through am_poll must tick the sampler and leave
  // queue-depth snapshots on the rank channels.
  parc::Runtime::run(4, [&](parc::Rank& r) {
    std::vector<std::uint64_t> got;
    const int h = r.am_register(
        [&got](parc::Rank&, int, std::span<const std::uint8_t> p) {
          got.push_back(p.size());
        });
    const std::uint8_t payload[16] = {};
    for (int round = 0; round < 64; ++round) {
      r.am_post((r.rank() + 1) % r.size(), h, payload);
      r.am_flush();
      r.am_poll();
    }
    r.am_quiesce();
    r.barrier();
  });
  std::size_t total_samples = 0;
  for (const RankChannel* ch : Registry::instance().channels())
    total_samples += ch->samples().size();
  EXPECT_GT(total_samples, 0u);
}

// ---- latency histogram -----------------------------------------------------

// The serving layer's one latency histogram: on a fixed seeded sample that
// spans four decades plus a tail, p50, p99 and p99.9 are never below the
// exact nearest-rank value and at most one bucket above it; max is exact.
TEST(LatencyHistogram, PercentilesWithinOneBucketOfExactNearestRank) {
  std::mt19937_64 rng(20240611);
  std::vector<double> v;
  LatencyHistogram h;
  for (int i = 0; i < 20000; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    const double x = i % 500 == 0 ? 2.0e4 + 1.0e3 * u : 5.0 * std::exp(9.0 * u);
    v.push_back(x);
    h.record(x);
  }
  std::sort(v.begin(), v.end());
  EXPECT_EQ(h.count(), v.size());
  EXPECT_DOUBLE_EQ(h.max(), v.back());
  for (const double p : {50.0, 99.0, 99.9}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
    const double exact = v[rank - 1];
    const double got = h.percentile(p);
    EXPECT_GE(got, exact) << "p" << p;
    EXPECT_LE(LatencyHistogram::bucket_of(got) - LatencyHistogram::bucket_of(exact), 1)
        << "p" << p << " got " << got << " exact " << exact;
  }
  EXPECT_DOUBLE_EQ(h.percentile(100.0), v.back());
  EXPECT_DOUBLE_EQ(LatencyHistogram{}.percentile(50.0), 0.0);
  // Bucket edges: every bucket is at most 1/kSubBuckets of its values wide.
  for (int b = 1; b < LatencyHistogram::kBuckets; ++b) {
    const double lo = LatencyHistogram::bucket_upper(b - 1), hi = LatencyHistogram::bucket_upper(b);
    ASSERT_EQ(LatencyHistogram::bucket_of(lo), b);
    ASSERT_LE((hi - lo) / lo, 1.0 / LatencyHistogram::kSubBuckets);
  }
}

// ---- strict JSON parser ----------------------------------------------------

TEST(TelemetryJson, AcceptsValidDocuments) {
  for (const char* doc : {
           "{}",
           "[]",
           "null",
           "true",
           "-0.5e3",
           "\"a\\n\\\"b\\\\c\\u0041\"",
           "{\"a\":[1,2,{\"b\":null}],\"c\":false}",
           "  [ 1 , 2 ]  ",
       }) {
    EXPECT_TRUE(json_parse(doc).ok) << doc;
  }
}

TEST(TelemetryJson, RejectsMalformedDocuments) {
  for (const char* doc : {
           "",
           "[1,2,]",          // trailing comma
           "{\"a\":1,}",      // trailing comma in object
           "01",              // leading zero
           "+1",              // leading plus
           "1.",              // bare decimal point
           ".5",              // missing integer part
           "nan",
           "Infinity",
           "'a'",             // single quotes
           "\"a\nb\"",        // raw control character in string
           "\"\\x41\"",       // invalid escape
           "{}{}",            // trailing garbage
           "{\"a\" 1}",       // missing colon
           "{1:2}",           // non-string key
           "[1 2]",           // missing comma
           "{\"a\":}",        // missing value
           "[",               // unterminated
           "\"abc",           // unterminated string
       }) {
    const auto r = json_parse(doc);
    EXPECT_FALSE(r.ok) << "accepted: " << doc;
    EXPECT_FALSE(r.error.empty()) << doc;
  }
}

TEST(TelemetryJson, WriterRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.value("tree \"build\"\n");
  w.key("pi");
  w.value(3.25);
  w.key("big");
  w.value(std::uint64_t{1} << 53);
  w.key("list");
  w.begin_array();
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  const auto r = json_parse(w.str());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.value.is_object());
  EXPECT_EQ(r.value.find("name")->as_string(), "tree \"build\"\n");
  EXPECT_DOUBLE_EQ(r.value.find("pi")->as_number(), 3.25);
  EXPECT_DOUBLE_EQ(r.value.find("big")->as_number(), 9007199254740992.0);
  ASSERT_TRUE(r.value.find("list")->is_array());
  EXPECT_TRUE(r.value.find("list")->as_array()[0].as_bool());
  EXPECT_TRUE(r.value.find("list")->as_array()[1].is_null());
}

TEST(TelemetryJson, NumbersNeverEmitNanOrInf) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
}

TEST(TelemetryJson, RejectsNanAndInfinityLiterals) {
  for (const char* doc : {
           "NaN", "nan", "-NaN",
           "Infinity", "-Infinity", "inf", "-inf", "1e",
           "{\"wall_seconds\": NaN}",
           "[1, Infinity]",
       }) {
    const auto r = json_parse(doc);
    EXPECT_FALSE(r.ok) << "accepted: " << doc;
  }
}

TEST(TelemetryJson, RejectsDuplicateObjectKeys) {
  // A duplicate key in a run report means the writer is broken; silently
  // keeping either value would corrupt a baseline comparison.
  const auto r = json_parse("{\"a\":1,\"a\":2}");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("duplicate"), std::string::npos) << r.error;
  EXPECT_TRUE(json_parse("{\"a\":{\"b\":1},\"c\":{\"b\":1}}").ok)
      << "same key in different objects is fine";
}

TEST(TelemetryJson, DeepNestingIsRejectedNotStackOverflowed) {
  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += '[';
  for (int i = 0; i < 10000; ++i) deep += ']';
  const auto r = json_parse(deep);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("nesting"), std::string::npos) << r.error;
  // A document at modest depth still parses.
  std::string ok;
  for (int i = 0; i < 64; ++i) ok += '[';
  for (int i = 0; i < 64; ++i) ok += ']';
  EXPECT_TRUE(json_parse(ok).ok);
}

TEST(TelemetryJson, FuzzStyleMalformedReportsNeverParse) {
  // Corpus of corrupted run reports: truncations, swapped delimiters,
  // duplicate sections — the shapes a crashed harness or a bad merge
  // actually produces. The strict parser must reject every one with a
  // non-empty error and without crashing.
  const std::string good =
      "{\"schema\":\"hotlib-run-report-v1\",\"name\":\"x\",\"nranks\":1,"
      "\"counters\":{\"body_body\":12},\"metrics\":{\"m\":0.5}}";
  ASSERT_TRUE(json_parse(good).ok);
  std::vector<std::string> corpus;
  // Every proper prefix of a valid report is invalid.
  for (std::size_t cut = 0; cut < good.size(); cut += 7)
    corpus.push_back(good.substr(0, cut));
  // Single-byte mutations swapping structural characters.
  for (const auto& [from, to] : std::vector<std::pair<char, char>>{
           {'{', '['}, {'}', ']'}, {':', ','}, {',', ':'}, {'"', '\''}}) {
    std::string mutated = good;
    mutated[mutated.find(from)] = to;
    corpus.push_back(mutated);
  }
  corpus.push_back(good + good);                      // two documents
  corpus.push_back(good + "x");                       // trailing garbage
  corpus.push_back("\xEF\xBB\xBF" + good);            // UTF-8 BOM
  corpus.push_back(std::string(1, '\0') + good);      // NUL prefix
  std::string dup = good;
  dup.insert(1, "\"name\":\"y\",");                    // duplicate "name"
  corpus.push_back(dup);
  for (const std::string& doc : corpus) {
    const auto r = json_parse(doc);
    EXPECT_FALSE(r.ok) << "accepted: " << doc;
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(TelemetryJson, NumbersUseShortestRoundTrip) {
  // Byte-stable reports: the fewest digits that re-parse to the identical
  // double, so rewriting an unchanged baseline is a no-op diff.
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(1e300), "1e+300");
  EXPECT_EQ(json_number(-2.5e-7), "-2.5e-07");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(1.0 / 3.0), "0.3333333333333333");
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300, 0.30000000000000004,
                         123456789.123456789, 2.2250738585072014e-308}) {
    const std::string s = json_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    const auto parsed = json_parse(s);
    ASSERT_TRUE(parsed.ok) << s;
    EXPECT_EQ(parsed.value.as_number(), v) << s;
  }
}

// ---- exporters -------------------------------------------------------------

TEST_F(TelemetryTest, PhaseWallTimesSumToCoveredWall) {
  attach_rank(0);
  const double wall0 = Registry::instance().now();
  { Span d("decompose", Phase::kDecompose); busy(2e-3); }
  { Span t("tree_build", Phase::kTreeBuild); busy(2e-3); }
  { Span f("tree_forces", Phase::kForceEval); busy(2e-3); }
  const double covered = Registry::instance().now() - wall0;
  const RunReport r = build_run_report("phase_sum", covered);
  double phase_sum = 0;
  for (const auto& p : r.phases) phase_sum += p.wall_seconds;
  // Acceptance bar from the issue: per-phase times sum to the covered wall
  // time within 5% (the gap is span setup + the gaps between scopes).
  EXPECT_NEAR(phase_sum, covered, 0.05 * covered);
  EXPECT_EQ(r.nranks, 1);
}

TEST_F(TelemetryTest, RunReportJsonIsStrictValid) {
  attach_rank(0);
  { Span t("tree_build", Phase::kTreeBuild, 123); busy(1e-4); }
  count(Counter::kBodyBody, 41);
  RunReport report = build_run_report("unit", 0.25);
  report.metrics["custom_metric"] = 1.5;
  const auto r = json_parse(run_report_json(report));
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.value.is_object());
  EXPECT_EQ(r.value.find("schema")->as_string(), "hotlib-run-report-v1");
  EXPECT_EQ(r.value.find("name")->as_string(), "unit");
  EXPECT_DOUBLE_EQ(r.value.find("wall_seconds")->as_number(), 0.25);
  EXPECT_DOUBLE_EQ(
      r.value.find("counters")->find(counter_name(Counter::kBodyBody))->as_number(),
      41.0);
  EXPECT_DOUBLE_EQ(r.value.find("metrics")->find("custom_metric")->as_number(), 1.5);
  ASSERT_TRUE(r.value.find("phases")->is_array());
  const auto& phase0 = r.value.find("phases")->as_array().at(0);
  EXPECT_EQ(phase0.find("name")->as_string(), "tree_build");
  EXPECT_DOUBLE_EQ(phase0.find("calls")->as_number(), 1.0);
}

TEST_F(TelemetryTest, ChromeTraceJsonIsStrictValidWithSpansAndInstants) {
  attach_rank(3);
  { Span t("tree_build", Phase::kTreeBuild); busy(1e-4); }
  instant("fault_drop", Phase::kComm, 9);
  const auto r = json_parse(chrome_trace_json());
  ASSERT_TRUE(r.ok) << r.error;
  // trace_event "JSON Object Format": {"traceEvents": [...]}.
  ASSERT_TRUE(r.value.is_object());
  ASSERT_NE(r.value.find("traceEvents"), nullptr);
  ASSERT_TRUE(r.value.find("traceEvents")->is_array());
  const JsonArray& events = r.value.find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 2u);
  bool saw_complete = false, saw_instant = false;
  for (const auto& e : events) {
    ASSERT_TRUE(e.is_object());
    EXPECT_DOUBLE_EQ(e.find("tid")->as_number(), 3.0);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "X") {
      saw_complete = true;
      EXPECT_EQ(e.find("name")->as_string(), "tree_build");
      EXPECT_GT(e.find("dur")->as_number(), 0.0);
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(e.find("name")->as_string(), "fault_drop");
      EXPECT_DOUBLE_EQ(e.find("args")->find("arg")->as_number(), 9.0);
    }
  }
  EXPECT_TRUE(saw_complete);
  EXPECT_TRUE(saw_instant);
}

TEST_F(TelemetryTest, SessionWritesSchemaValidReportFile) {
  const auto dir = std::filesystem::temp_directory_path() / "hotlib_tel_test";
  std::filesystem::create_directories(dir);
  setenv("HOTLIB_REPORT_DIR", dir.c_str(), 1);
  {
    Session session("unittest");
    { Span t("tree_build", Phase::kTreeBuild); busy(1e-4); }
    session.metric("answer", 42.0);
    session.set_modelled_seconds(1.5);
  }
  unsetenv("HOTLIB_REPORT_DIR");
  std::ifstream in(dir / "BENCH_unittest.json");
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto r = json_parse(buf.str());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.find("schema")->as_string(), "hotlib-run-report-v1");
  EXPECT_EQ(r.value.find("name")->as_string(), "unittest");
  EXPECT_DOUBLE_EQ(r.value.find("modelled_seconds")->as_number(), 1.5);
  EXPECT_DOUBLE_EQ(r.value.find("metrics")->find("answer")->as_number(), 42.0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace hotlib::telemetry
