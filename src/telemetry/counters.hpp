// counters.hpp — interaction/flop accounting and the unified counter
// registry.
//
// Two layers live here:
//
//  1. The paper-accounting primitives (InteractionTally,
//     kFlopsPerGravityInteraction), moved verbatim from util/counters.hpp.
//     "We keep track of the number of interactions computed": interactions
//     are tallied where they are evaluated, flops are derived as
//     interactions x flops-per-interaction (38 for a Karp gravitational
//     monopole interaction), and no flops are credited to tree construction,
//     decomposition or other parallel constructs.
//
//  2. The telemetry counter registry: one fixed enum of every quantity the
//     subsystems tally — interactions, message/byte traffic, ABM batches and
//     retransmissions, hash-table hits/misses, LET import volumes, injected
//     faults — accumulated per rank (see trace.hpp for the per-rank channel)
//     and rolled up into the RunReport at run end. Hot loops keep their
//     local InteractionTally and flush it once per call via count_tally(),
//     so registry totals match the paper accounting exactly.
#pragma once

#include <array>
#include <cstdint>

namespace hotlib {

// Flop cost of one softened gravitational interaction using Karp's
// reciprocal-sqrt decomposition (table lookup + Chebyshev + Newton-Raphson):
// the count reported by the paper.
inline constexpr int kFlopsPerGravityInteraction = 38;

// Per-rank (or per-thread) tally of the work a solver actually performed.
struct InteractionTally {
  std::uint64_t body_body = 0;    // particle-particle (direct) interactions
  std::uint64_t body_cell = 0;    // particle-multipole interactions
  std::uint64_t cells_opened = 0; // MAC failures during traversal (overhead, no flops)
  std::uint64_t mac_tests = 0;    // MAC evaluations (overhead, no flops)

  std::uint64_t interactions() const { return body_body + body_cell; }

  // Flops at a given per-interaction cost (38 for gravity monopole).
  double flops(int flops_per_interaction = kFlopsPerGravityInteraction) const {
    return static_cast<double>(interactions()) * flops_per_interaction;
  }

  InteractionTally& operator+=(const InteractionTally& o) {
    body_body += o.body_body;
    body_cell += o.body_cell;
    cells_opened += o.cells_opened;
    mac_tests += o.mac_tests;
    return *this;
  }
  friend InteractionTally operator+(InteractionTally a, const InteractionTally& b) {
    return a += b;
  }
};

}  // namespace hotlib

namespace hotlib::telemetry {

// Every quantity the library tallies, one slot per counter. Adding a counter
// means adding an enumerator and its name below — exporters and rollups
// iterate the enum and need no other change.
enum class Counter : int {
  // Paper flop accounting (fed from InteractionTally via count_tally).
  kBodyBody = 0,      // particle-particle interactions (38 flops each)
  kBodyCell,          // particle-multipole interactions (38 flops each)
  kCellsOpened,       // MAC failures during traversal (overhead, no flops)
  kMacTests,          // MAC evaluations (overhead, no flops)
  // parc point-to-point traffic (every message through the fabric).
  kMessagesSent,
  kMessagesReceived,
  kBytesSent,
  kBytesReceived,
  // ABM active-message layer.
  kAbmBatchesSent,
  kAbmRecordsPosted,
  kAbmRecordsDispatched,
  kAbmRetransmits,        // reliable-mode batch retransmissions
  kAbmAcksSent,           // standalone (non-piggybacked) acks
  kAbmDuplicateBatches,   // received again after dispatch
  kAbmCorruptBatches,     // checksum/length mismatch (truncation faults)
  kAbmOutOfOrderBatches,  // buffered past a sequence gap
  kAbmAbandonedRecords,   // lost for good after bounded retries
  // Fabric fault injection (non-zero only under an active FaultPlan).
  kFaultsInjected,
  // Distributed-traversal hash behaviour: a remote lookup served from the
  // local key cache is a hit; a miss is exactly what becomes a key request.
  kHashHits,
  kHashMisses,
  kDtreeRepliesServed,  // key requests this rank answered for others
  // LET-push import volumes.
  kLetCellsImported,
  kLetBodiesImported,
  kCount
};

inline constexpr int kCounterCount = static_cast<int>(Counter::kCount);

// Stable machine-readable name (RunReport JSON key) of each counter.
const char* counter_name(Counter c);

// Plain aggregatable block of all counters.
struct CounterBlock {
  std::array<std::uint64_t, kCounterCount> v{};

  std::uint64_t operator[](Counter c) const { return v[static_cast<int>(c)]; }
  std::uint64_t& operator[](Counter c) { return v[static_cast<int>(c)]; }

  std::uint64_t interactions() const {
    return (*this)[Counter::kBodyBody] + (*this)[Counter::kBodyCell];
  }
  double flops(int flops_per_interaction = kFlopsPerGravityInteraction) const {
    return static_cast<double>(interactions()) * flops_per_interaction;
  }

  CounterBlock& operator+=(const CounterBlock& o) {
    for (int i = 0; i < kCounterCount; ++i) v[static_cast<std::size_t>(i)] += o.v[static_cast<std::size_t>(i)];
    return *this;
  }
  friend CounterBlock operator+(CounterBlock a, const CounterBlock& b) { return a += b; }
  // Per-slot difference, for before/after snapshots around one pipeline run.
  friend CounterBlock operator-(CounterBlock a, const CounterBlock& b) {
    for (int i = 0; i < kCounterCount; ++i) a.v[static_cast<std::size_t>(i)] -= b.v[static_cast<std::size_t>(i)];
    return a;
  }
};

// Instantaneous health gauges, one slot per quantity. Where a Counter only
// ever accumulates, a Gauge is a *level* — queue depth, table occupancy,
// resident bytes — whose current value the health sampler (sample.hpp)
// snapshots into the per-rank timeseries ring. Adding a gauge means adding
// an enumerator and its name; the sampler, exporters and hotlib-analyze
// iterate the enum and need no other change.
enum class Gauge : int {
  // ABM reliability-layer queue depths (sampled on the parc tick).
  kAbmSendBacklogBatches = 0,  // sent but unacknowledged batches
  kAbmSendBacklogBytes,        // wire bytes held for possible retransmission
  kAbmRetryBacklogBatches,     // unacked batches already retransmitted >= once
  kAbmRecvOooBatches,          // receiver-side batches buffered past a seq gap
  kAbmPendingPostBytes,        // posted records not yet shipped in a batch
  // Key hash table of the most recently built local tree.
  kHashEntries,
  kHashSlots,
  kHashMeanProbe,  // mean probes of a successful lookup (1.0 = no collisions)
  // Resident tree size (local cells/bodies of the last build) and the
  // distributed-traversal remote-cell cache.
  kTreeCells,
  kTreeBodies,
  kDtreeCacheCells,
  // Malloc-counting memory gauge (global operator new/delete, see sample.cpp).
  kMemLiveBytes,
  kMemPeakBytes,
  // Shared-memory task pool (util::TaskPool::global(), mirrored by
  // sample_now): worker-thread count and lifetime totals of executed tasks,
  // cross-lane steals and summed busy time — per-thread utilization is
  // pool_busy_seconds / (pool_workers * wall). The lent pair counts tasks
  // that threads outside the worker loop ran through TaskPool::run_one (the
  // idle serve pump) and their summed time: how much pump time went to
  // stepping, and so what a query could have waited behind.
  kPoolWorkers,
  kPoolTasksRun,
  kPoolSteals,
  kPoolBusySeconds,
  kPoolLentTasks,
  kPoolLentSeconds,
  kCount
};

inline constexpr int kGaugeCount = static_cast<int>(Gauge::kCount);

// Stable machine-readable name (timeseries JSON key) of each gauge.
const char* gauge_name(Gauge g);

// Add to the calling thread's rank channel; no-op when the thread is not
// attached (see trace.hpp) — a single thread-local load and branch.
void count(Counter c, std::uint64_t n = 1);

// Flush a locally-accumulated paper tally into the registry. Hot loops call
// this once per evaluation, so registry flop counts equal the returned
// tallies exactly.
void count_tally(const InteractionTally& t);

// Sum of every attached rank channel's counters (plus detached ones from
// completed runs of the active session).
CounterBlock global_counters();

}  // namespace hotlib::telemetry
