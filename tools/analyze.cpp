#include "analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "telemetry/counters.hpp"
#include "telemetry/json.hpp"
#include "util/table.hpp"

namespace hotlib::tools {

namespace telemetry = hotlib::telemetry;

namespace {

// Counters whose values are fully determined by the problem instance: the
// interaction tallies, record totals and hash statistics came out identical
// across repeated runs of every harness, so the gate holds them to exact
// equality — any drift is a real behaviour change.
const std::set<std::string>& exact_counters() {
  static const std::set<std::string> k = {
      "body_body",      "body_cell",         "cells_opened",
      "mac_tests",      "hash_hits",         "hash_misses",
      "dtree_replies_served", "let_cells_imported", "let_bodies_imported",
      "abm_records_posted",   "abm_records_dispatched",
      "abm_abandoned_records", "abm_corrupt_batches",
  };
  return k;
}

// Host-timed metrics: rates and latencies read off the host's clock,
// including every latency percentile (tenant1_p99_query_latency_us). A run
// does not determine them, so the gate only requires them present and finite.
bool is_host_timed_metric(const std::string& key) {
  return key.ends_with("_per_s") || key.ends_with("_ns") || key.ends_with("_us") ||
         key.ends_with("_per_sec");
}

// Bands for the quantities a run determines only up to thread scheduling:
// |got - baseline| <= max(rel * baseline, abs).
constexpr double kTrafficRel = 0.35, kTrafficAbs = 64.0;  // message/byte/ack totals
constexpr double kVirtRel = 0.35, kVirtAbs = 1e-6;        // modelled (LogP) seconds
constexpr double kMetricRel = 0.5, kMetricAbs = 0.25;     // other harness metrics

std::string fmt(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string fmt_pct(double frac) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", frac * 100.0);
  return buf;
}

// Reads a run-report document field by field and keeps the first place
// where it breaks the schema. After a fault, reads return placeholders, so
// load_report checks `error` once at the end.
class SchemaReader {
 public:
  // A number, at least `min`.
  double number(const telemetry::JsonValue* v, const std::string& what,
                double min = -HUGE_VAL) {
    if (v == nullptr || !v->is_number())
      fail(what + ": missing or not a number");
    else if (v->as_number() < min)
      fail(what + ": " + fmt(v->as_number()) + " is below " + fmt(min));
    else
      return v->as_number();
    return 0.0;
  }

  std::string name(const telemetry::JsonValue* v, const std::string& what) {
    if (v != nullptr && v->is_string() && !v->as_string().empty()) return v->as_string();
    fail(what + ": missing, empty or not a string");
    return {};
  }

  const telemetry::JsonArray& array(const telemetry::JsonValue* v, const std::string& what) {
    static const telemetry::JsonArray kEmpty;
    if (v != nullptr && v->is_array()) return v->as_array();
    fail(what + ": missing or not an array");
    return kEmpty;
  }

  const telemetry::JsonObject& object(const telemetry::JsonValue* v, const std::string& what) {
    static const telemetry::JsonObject kEmpty;
    if (v != nullptr && v->is_object()) return v->as_object();
    fail(what + ": missing or not an object");
    return kEmpty;
  }

  // An array of n numbers: one column of a timeseries.
  std::vector<double> column(const telemetry::JsonValue* v, const std::string& what,
                             std::size_t n) {
    std::vector<double> col;
    for (const telemetry::JsonValue& e : array(v, what)) col.push_back(number(&e, what));
    if (col.size() != n)
      fail(what + ": " + std::to_string(col.size()) + " samples, tick has " +
           std::to_string(n));
    return col;
  }

  void fail(const std::string& what) {
    if (error.empty()) error = what;
  }

  std::string error;
};

}  // namespace

const Report::Phase* Report::phase(const std::string& n) const {
  for (const Phase& p : phases)
    if (p.name == n) return &p;
  return nullptr;
}

double Report::counter(const std::string& n) const {
  auto it = counters.find(n);
  return it != counters.end() ? it->second : 0.0;
}

bool load_report(const std::string& path, Report& out, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = path + ": cannot open";
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const telemetry::JsonParseResult parsed = telemetry::json_parse(buf.str());
  if (!parsed.ok) {
    err = path + ": " + parsed.error;
    return false;
  }
  const telemetry::JsonValue& root = parsed.value;
  if (!root.is_object()) {
    err = path + ": top level is not an object";
    return false;
  }
  const telemetry::JsonValue* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "hotlib-run-report-v1") {
    err = path + ": not a hotlib-run-report-v1 document";
    return false;
  }

  // The schema: every field read below is present and in range, and each
  // rank series' columns have one length.
  SchemaReader doc;
  out = Report{};
  out.path = path;
  out.name = doc.name(root.find("name"), "name");
  out.nranks = static_cast<int>(doc.number(root.find("nranks"), "nranks", 1));
  out.wall_seconds = doc.number(root.find("wall_seconds"), "wall_seconds", 0);
  out.modelled_seconds = doc.number(root.find("modelled_seconds"), "modelled_seconds", 0);
  out.interactions = doc.number(root.find("interactions"), "interactions", 0);
  out.flops = doc.number(root.find("flops"), "flops", 0);
  out.gflops_wall = doc.number(root.find("gflops_wall"), "gflops_wall", 0);

  for (const telemetry::JsonValue& p : doc.array(root.find("phases"), "phases")) {
    const std::string at = "phases[" + std::to_string(out.phases.size()) + "]";
    Report::Phase ph;
    ph.name = doc.name(p.find("name"), at + ".name");
    ph.wall_seconds = doc.number(p.find("wall_seconds"), at + ".wall_seconds", 0);
    ph.virt_seconds = doc.number(p.find("virt_seconds"), at + ".virt_seconds", 0);
    ph.max_rank_wall = doc.number(p.find("max_rank_wall"), at + ".max_rank_wall", 0);
    ph.mean_rank_wall = doc.number(p.find("mean_rank_wall"), at + ".mean_rank_wall", 0);
    // max/mean over ranks; 1e-9 absorbs rounding when every rank is equal.
    ph.imbalance = doc.number(p.find("imbalance"), at + ".imbalance", 1.0 - 1e-9);
    ph.calls = doc.number(p.find("calls"), at + ".calls", 1);
    out.phases.push_back(std::move(ph));
  }

  for (const telemetry::JsonValue& s : doc.array(root.find("timeseries"), "timeseries")) {
    const std::string at = "timeseries[" + std::to_string(out.timeseries.size()) + "]";
    Report::Series series;
    series.rank = static_cast<int>(doc.number(s.find("rank"), at + ".rank", 0));
    series.stride_ticks = doc.number(s.find("stride_ticks"), at + ".stride_ticks", 1);
    const telemetry::JsonValue* tick = s.find("tick");
    const std::size_t n = tick != nullptr && tick->is_array() ? tick->as_array().size() : 0;
    if (n == 0) doc.fail(at + ".tick: missing or empty");
    series.tick = doc.column(tick, at + ".tick", n);
    series.wall_s = doc.column(s.find("wall_s"), at + ".wall_s", n);
    series.virt_s = doc.column(s.find("virt_s"), at + ".virt_s", n);
    for (const auto& [key, track] : doc.object(s.find("gauges"), at + ".gauges"))
      series.gauges.emplace(key, doc.column(&track, at + ".gauges." + key, n));
    out.timeseries.push_back(std::move(series));
  }
  if (out.timeseries.empty()) doc.fail("timeseries: no rank series");

  for (const auto& [key, v] : doc.object(root.find("counters"), "counters"))
    out.counters[key] = doc.number(&v, "counters." + key, 0);
  for (const auto& [key, v] : doc.object(root.find("metrics"), "metrics"))
    out.metrics[key] = doc.number(&v, "metrics." + key);

  if (!doc.error.empty()) {
    err = path + ": " + doc.error;
    return false;
  }
  return true;
}

bool stamp_report(const std::string& path, const std::string& key,
                  const std::string& value, std::string& err) {
  if (key.empty() || key.find_first_of("\"\\") != std::string::npos ||
      value.find_first_of("\"\\") != std::string::npos) {
    err = "stamp: key and value must be non-empty and free of quotes/backslashes";
    return false;
  }
  std::ifstream in(path);
  if (!in) {
    err = path + ": cannot open";
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t brace = text.find('{');
  if (brace == std::string::npos) {
    err = path + ": no JSON object";
    return false;
  }
  // A previous stamp of the same key sits immediately after the opening
  // brace; drop it (through its trailing comma) before re-inserting.
  const std::string quoted = "\"" + key + "\"";
  const std::size_t p = text.find_first_not_of(" \t\r\n", brace + 1);
  if (p != std::string::npos && text.compare(p, quoted.size(), quoted) == 0) {
    const std::size_t comma = text.find(',', p);
    if (comma == std::string::npos) {
      err = path + ": malformed existing stamp for " + key;
      return false;
    }
    text.erase(brace + 1, comma - brace);
  }
  text.insert(brace + 1, "\"" + key + "\": \"" + value + "\", ");
  // Strict-validate before touching the file; the parser also rejects
  // duplicate keys, so stamping a key the document already owns elsewhere
  // fails here instead of corrupting the report.
  const telemetry::JsonParseResult parsed = telemetry::json_parse(text);
  if (!parsed.ok) {
    err = path + ": stamped document invalid: " + parsed.error;
    return false;
  }
  std::ofstream outf(path, std::ios::trunc);
  if (!outf) {
    err = path + ": cannot write";
    return false;
  }
  outf << text;
  return true;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

std::string render_report(const Report& r) {
  std::string out;
  out += "=== " + r.name + " (" + r.path + ") ===\n";
  char line[256];
  std::snprintf(line, sizeof line,
                "ranks %d   wall %.4g s   modelled %.4g s   interactions %s   "
                "flops %s   Mflop/s(wall) %.4g\n\n",
                r.nranks, r.wall_seconds, r.modelled_seconds,
                fmt(r.interactions).c_str(), fmt(r.flops).c_str(),
                r.wall_seconds > 0 ? r.flops / r.wall_seconds / 1e6 : 0.0);
  out += line;

  if (!r.phases.empty()) {
    TextTable t({"phase", "calls", "wall s", "virt s", "max rank s", "mean rank s",
                 "imbalance"});
    for (const Report::Phase& p : r.phases)
      t.add_row({p.name, fmt(p.calls), TextTable::num(p.wall_seconds, 4),
                 TextTable::num(p.virt_seconds, 4), TextTable::num(p.max_rank_wall, 4),
                 TextTable::num(p.mean_rank_wall, 4), TextTable::num(p.imbalance, 2)});
    out += "Phases (totals across ranks; imbalance = max/mean rank wall):\n";
    out += t.to_string() + "\n";
  }

  {
    TextTable t({"counter", "value"});
    for (const auto& [key, v] : r.counters)
      if (v != 0.0) t.add_row({key, fmt(v)});
    if (t.rows() > 0) {
      out += "Counters (non-zero):\n" + t.to_string() + "\n";
    }
  }

  if (!r.metrics.empty()) {
    TextTable t({"metric", "value"});
    for (const auto& [key, v] : r.metrics) t.add_row({key, fmt(v)});
    out += "Metrics:\n" + t.to_string() + "\n";
  }

  if (!r.timeseries.empty()) {
    std::size_t nsamples = 0;
    std::map<std::string, std::vector<double>> merged;
    for (const Report::Series& s : r.timeseries) {
      nsamples += s.tick.size();
      for (const auto& [key, col] : s.gauges) {
        auto& dst = merged[key];
        dst.insert(dst.end(), col.begin(), col.end());
      }
    }
    std::snprintf(line, sizeof line, "Health timeseries: %zu series, %zu samples\n",
                  r.timeseries.size(), nsamples);
    out += line;
    TextTable t({"gauge", "p50", "p95", "max"});
    for (const auto& [key, col] : merged) {
      if (std::all_of(col.begin(), col.end(), [](double v) { return v == 0.0; }))
        continue;
      t.add_row({key, fmt(percentile(col, 0.5)), fmt(percentile(col, 0.95)),
                 fmt(*std::max_element(col.begin(), col.end()))});
    }
    if (t.rows() > 0) out += t.to_string() + "\n";
  }
  return out;
}

namespace {

void diff_row(TextTable& t, const std::string& key, double a, double b) {
  const double delta = b - a;
  if (a == 0.0 && b == 0.0) return;
  const std::string rel = a != 0.0 ? fmt_pct(delta / std::fabs(a)) : "n/a";
  t.add_row({key, fmt(a), fmt(b), fmt(delta), rel});
}

}  // namespace

std::string render_diff(const Report& a, const Report& b) {
  std::string out;
  out += "=== diff: " + a.path + "  ->  " + b.path + " ===\n";
  if (a.name != b.name)
    out += "WARNING: comparing different harnesses (" + a.name + " vs " + b.name + ")\n";
  out += "\n";

  TextTable top({"quantity", a.name + " (A)", b.name + " (B)", "delta", "rel"});
  diff_row(top, "nranks", a.nranks, b.nranks);
  diff_row(top, "wall_seconds", a.wall_seconds, b.wall_seconds);
  diff_row(top, "modelled_seconds", a.modelled_seconds, b.modelled_seconds);
  diff_row(top, "interactions", a.interactions, b.interactions);
  diff_row(top, "flops", a.flops, b.flops);
  diff_row(top, "gflops_wall", a.gflops_wall, b.gflops_wall);
  out += top.to_string() + "\n";

  {
    TextTable t({"phase", "wall A", "wall B", "virt A", "virt B", "imb A", "imb B"});
    std::set<std::string> names;
    for (const auto& p : a.phases) names.insert(p.name);
    for (const auto& p : b.phases) names.insert(p.name);
    for (const std::string& n : names) {
      const Report::Phase* pa = a.phase(n);
      const Report::Phase* pb = b.phase(n);
      t.add_row({n, pa != nullptr ? TextTable::num(pa->wall_seconds, 4) : "-",
                 pb != nullptr ? TextTable::num(pb->wall_seconds, 4) : "-",
                 pa != nullptr ? TextTable::num(pa->virt_seconds, 4) : "-",
                 pb != nullptr ? TextTable::num(pb->virt_seconds, 4) : "-",
                 pa != nullptr ? TextTable::num(pa->imbalance, 2) : "-",
                 pb != nullptr ? TextTable::num(pb->imbalance, 2) : "-"});
    }
    if (t.rows() > 0) out += "Phases:\n" + t.to_string() + "\n";
  }

  {
    TextTable t({"counter", "A", "B", "delta", "rel"});
    std::set<std::string> keys;
    for (const auto& [k, v] : a.counters) keys.insert(k);
    for (const auto& [k, v] : b.counters) keys.insert(k);
    for (const std::string& k : keys) diff_row(t, k, a.counter(k), b.counter(k));
    if (t.rows() > 0) out += "Counters:\n" + t.to_string() + "\n";
  }

  {
    TextTable t({"metric", "A", "B", "delta", "rel"});
    std::set<std::string> keys;
    for (const auto& [k, v] : a.metrics) keys.insert(k);
    for (const auto& [k, v] : b.metrics) keys.insert(k);
    for (const std::string& k : keys) {
      const auto ia = a.metrics.find(k);
      const auto ib = b.metrics.find(k);
      diff_row(t, k, ia != a.metrics.end() ? ia->second : 0.0,
               ib != b.metrics.end() ? ib->second : 0.0);
    }
    if (t.rows() > 0) out += "Metrics:\n" + t.to_string() + "\n";
  }
  return out;
}

namespace {

class Checker {
 public:
  Checker(const CheckPolicy& policy, CheckResult& result)
      : policy_(policy), result_(result) {}

  double tolerance_for(const std::string& key, double fallback) const {
    auto it = policy_.overrides.find(key);
    return it != policy_.overrides.end() ? it->second : fallback;
  }

  void exact(const std::string& key, double got, double want) {
    const double rel = tolerance_for(key, 0.0);
    if (rel > 0.0) {  // a --tol override downgrades an exact check to a band
      banded(key, got, want, rel, 0.0);
      return;
    }
    ++result_.checked;
    if (got != want)
      fail(key + ": got " + fmt(got) + ", baseline " + fmt(want) + " (exact match required)");
  }

  void banded(const std::string& key, double got, double want, double rel, double abs) {
    ++result_.checked;
    rel = tolerance_for(key, rel);
    const double slack = std::max(rel * std::fabs(want), abs);
    if (std::fabs(got - want) > slack)
      fail(key + ": got " + fmt(got) + ", baseline " + fmt(want) + " (allowed ±" +
           fmt(slack) + ")");
  }

  void finite(const std::string& key, double got) {
    ++result_.checked;
    if (!std::isfinite(got)) fail(key + ": got non-finite value");
  }

  void fail(const std::string& msg) { result_.violations.push_back(msg); }

 private:
  const CheckPolicy& policy_;
  CheckResult& result_;
};

}  // namespace

CheckResult check_report(const Report& r, const Report& base, const CheckPolicy& policy) {
  CheckResult result;
  Checker c(policy, result);

  if (r.name != base.name)
    c.fail("name: report is \"" + r.name + "\" but baseline is \"" + base.name + "\"");
  c.exact("nranks", r.nranks, base.nranks);
  c.exact("interactions", r.interactions, base.interactions);
  c.exact("flops", r.flops, base.flops);
  c.banded("modelled_seconds", r.modelled_seconds, base.modelled_seconds, kVirtRel,
           kVirtAbs);

  // Phase structure must match: same phases, same call counts. Modelled
  // times are banded; wall times are not checked.
  for (const Report::Phase& bp : base.phases) {
    const Report::Phase* rp = r.phase(bp.name);
    if (rp == nullptr) {
      c.fail("phases." + bp.name + ": present in baseline, missing from report");
      continue;
    }
    c.exact("phases." + bp.name + ".calls", rp->calls, bp.calls);
    c.banded("phases." + bp.name + ".virt_seconds", rp->virt_seconds, bp.virt_seconds,
             kVirtRel, kVirtAbs);
  }
  for (const Report::Phase& rp : r.phases)
    if (base.phase(rp.name) == nullptr)
      c.fail("phases." + rp.name + ": new phase not in baseline (refresh baselines)");

  // Counters: deterministic ones exact, traffic ones banded. A counter
  // appearing or disappearing means the enum and the baseline diverged.
  for (const auto& [key, bv] : base.counters) {
    auto it = r.counters.find(key);
    if (it == r.counters.end()) {
      c.fail("counters." + key + ": present in baseline, missing from report");
      continue;
    }
    if (exact_counters().count(key) > 0)
      c.exact("counters." + key, it->second, bv);
    else
      c.banded("counters." + key, it->second, bv, kTrafficRel, kTrafficAbs);
  }
  for (const auto& [key, rv] : r.counters)
    if (base.counters.find(key) == base.counters.end())
      c.fail("counters." + key + ": new counter not in baseline (refresh baselines)");

  for (const auto& [key, bv] : base.metrics) {
    auto it = r.metrics.find(key);
    if (it == r.metrics.end()) {
      c.fail("metrics." + key + ": present in baseline, missing from report");
      continue;
    }
    if (is_host_timed_metric(key))
      c.finite("metrics." + key, it->second);
    else
      c.banded("metrics." + key, it->second, bv, kMetricRel, kMetricAbs);
  }
  for (const auto& [key, rv] : r.metrics)
    if (base.metrics.find(key) == base.metrics.end())
      c.fail("metrics." + key + ": new metric not in baseline (refresh baselines)");

  // The report under test carries every registered counter and, in each
  // rank series, one track per registered gauge: the exporter iterates both
  // enums, so a gap means a name table and its enum diverged. A baseline
  // may predate the newest ones. Gauge values are workload shape, not
  // budget, and are not compared.
  ++result.checked;
  for (int i = 0; i < telemetry::kCounterCount; ++i) {
    const std::string key = telemetry::counter_name(static_cast<telemetry::Counter>(i));
    if (!r.counters.contains(key) && !base.counters.contains(key))
      c.fail("counters." + key + ": registered counter missing from report");
  }
  ++result.checked;
  for (int i = 0; i < telemetry::kGaugeCount; ++i) {
    const std::string key = telemetry::gauge_name(static_cast<telemetry::Gauge>(i));
    for (const Report::Series& s : r.timeseries)
      if (!s.gauges.contains(key)) {
        c.fail("timeseries: rank " + std::to_string(s.rank) +
               " has no track for registered gauge " + key);
        break;
      }
  }

  return result;
}

}  // namespace hotlib::tools
