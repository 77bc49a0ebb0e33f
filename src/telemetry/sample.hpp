// sample.hpp — the runtime health sampler.
//
// Counters say how much work a run did; gauges say what state it was *in*
// while doing it. The sampler periodically snapshots every gauge of the
// calling rank — ABM send/receive queue depths and retransmit backlog, hash
// table occupancy and probe lengths, resident tree cell/body counts, the
// malloc-counting memory gauge — into a per-rank ring of HealthSamples.
//
// Sampling is driven by the *parc progress tick* (one sample_tick() per
// Rank::am_poll), the same scheduling-independent clock the reliable ABM
// layer retries on, so a sample sequence is meaningful in virtual time. The
// ring is adaptive: when it fills, every other sample is dropped and the
// stride doubles, so any run — a millisecond smoke test or an hour-long
// sweep — ends with a bounded series that covers the whole run.
//
// Serial harnesses (no parc ranks) call sample_now() at section boundaries;
// Session::finish() always takes one last snapshot, so every run report
// carries a non-empty `timeseries` section.
//
// Everything here is a thread-local load and a branch when telemetry is
// disabled.
#pragma once

#include <cstdint>

#include "telemetry/counters.hpp"
#include "telemetry/trace.hpp"

namespace hotlib::telemetry {

// Set / bump a gauge on the calling rank's channel; no-op when unattached.
void gauge_set(Gauge g, double v);
void gauge_add(Gauge g, double dv);

// Advance the calling rank's progress tick. Returns true when a snapshot is
// due this tick — the caller then refreshes whatever gauges it owns (queue
// depths are cheapest to compute only on demand) and calls sample_now().
bool sample_tick();

// Snapshot the current gauges into the rank's sample ring immediately.
void sample_now();

// Live, cross-thread gauge rollup for the serving layer's metrics scrape:
// per-channel seqlock-consistent snapshots (gauges_snapshot) summed over
// every channel, with the process-global slots — memory gauge and task-pool
// stats — read from their own sources so they are never stale or
// double-counted. Lock-free against concurrent writers.
std::array<double, kGaugeCount> global_gauges_snapshot();

// ---- malloc-counting memory gauge ----
//
// Global operator new/delete (sample.cpp) maintain process-wide live/peak
// byte counts; sample_now() mirrors them into kMemLiveBytes/kMemPeakBytes.
// Session construction calls mem_gauge_reset(), so the gauge reads as net
// allocation since the run started (clamped at zero: frees of pre-run
// blocks cannot drive it negative).
void mem_gauge_reset();
std::uint64_t mem_live_bytes();
std::uint64_t mem_peak_bytes();

}  // namespace hotlib::telemetry
