// tenant.hpp — per-tenant serving telemetry.
//
// Each tenant admitted to the service gets its own TenantSession: counters
// for admitted / rejected / errored requests plus a fixed-memory latency
// histogram (telemetry::LatencyHistogram) from which nearest-rank
// percentiles, within one bucket, and the exact max are read. These are
// the per-tenant numbers bench_serve exports as report metrics.
//
// The session also keeps the tenant's slow-query log: a bounded ring of the
// K worst requests by admission-to-reply latency (type, args digest, queue
// vs execution split, interaction counts, trace id when sampled). Eviction
// replaces the current minimum, and only when the newcomer is worse — the
// ring converges on the true worst-K of the whole run, not the most recent
// K slow-ish requests. Scraped live over kMetricsRequest and dumped into
// the run report at shutdown.
//
// Note this is deliberately *not* a telemetry::Session per tenant: a Session
// owns the process-global registry (constructing one resets it), so tenants
// aggregate their own counters here and the single harness Session rolls up
// the process-wide view.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/protocol.hpp"
#include "telemetry/histogram.hpp"

namespace hotlib::serve {

class TenantSession {
 public:
  // Depth of the slow-query ring (worst-K requests retained).
  static constexpr std::size_t kSlowLogDepth = 8;

  void record_query(double latency_us) {
    std::lock_guard<std::mutex> lk(mu_);
    latency_.record(latency_us);
  }

  void record_rejected() {
    std::lock_guard<std::mutex> lk(mu_);
    ++rejected_;
  }

  void record_error() {
    std::lock_guard<std::mutex> lk(mu_);
    ++errors_;
  }

  // Nearest-rank latency percentile (µs), never below the exact value and
  // at most one histogram bucket above it; 0 when nothing was recorded.
  double percentile(double p) const {
    std::lock_guard<std::mutex> lk(mu_);
    return latency_.percentile(p);
  }

  // ---- slow-query log ----

  // Admit one finished request into the worst-K ring. Below capacity every
  // request enters; at capacity the newcomer evicts the current minimum iff
  // it is strictly slower — otherwise the ring is unchanged.
  void record_slow(const SlowQueryRecord& r) {
    std::lock_guard<std::mutex> lk(mu_);
    if (slow_.size() < kSlowLogDepth) {
      slow_.push_back(r);
      return;
    }
    auto min_it = std::min_element(
        slow_.begin(), slow_.end(),
        [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
          return a.total_us < b.total_us;
        });
    if (r.total_us > min_it->total_us) *min_it = r;
  }

  // Retained slow queries, worst first.
  std::vector<SlowQueryRecord> slow_queries() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<SlowQueryRecord> out = slow_;
    std::sort(out.begin(), out.end(),
              [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
                return a.total_us > b.total_us;
              });
    return out;
  }

  StatsReplyPayload snapshot(std::uint64_t steps) const {
    StatsReplyPayload s;
    std::lock_guard<std::mutex> lk(mu_);
    s.p50_query_latency_us = latency_.percentile(50.0);
    s.p99_query_latency_us = latency_.percentile(99.0);
    s.queries = latency_.count();
    s.rejected = rejected_;
    s.errors = errors_;
    s.steps = steps;
    s.max_query_latency_us = latency_.max();
    return s;
  }

 private:
  mutable std::mutex mu_;
  telemetry::LatencyHistogram latency_;
  std::uint64_t rejected_ = 0;
  std::uint64_t errors_ = 0;
  std::vector<SlowQueryRecord> slow_;
};

}  // namespace hotlib::serve
