#include "telemetry/trace.hpp"

namespace hotlib::telemetry {

namespace {
// The channel pointer is only valid for the registry generation it was
// handed out in: Session construction resets the registry and frees every
// channel, but task-pool worker threads outlive Sessions and would keep a
// dangling pointer. Tagging the cache with the generation turns that stale
// pointer into a nullptr (rank threads re-attach via Session/RankScope,
// workers via ensure_worker).
thread_local RankChannel* t_channel = nullptr;
thread_local std::uint64_t t_generation = 0;

// Distributed-trace id allocators. Sequential (not random) so a run's ids
// are reproducible; span and trace ids draw from separate sequences purely
// so a span id can never be confused for a trace id while debugging.
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_next_trace{1};
}  // namespace

TraceContext& trace_slot() {
  thread_local TraceContext t_trace;
  return t_trace;
}

std::uint64_t next_span_id() {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t new_trace_id() {
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kDecompose: return "decompose";
    case Phase::kTreeBuild: return "tree_build";
    case Phase::kLetExchange: return "let_exchange";
    case Phase::kTraverse: return "traverse";
    case Phase::kForceEval: return "force_eval";
    case Phase::kComm: return "comm";
    case Phase::kOther: return "other";
    case Phase::kCount: break;
  }
  return "?";
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kBodyBody: return "body_body";
    case Counter::kBodyCell: return "body_cell";
    case Counter::kCellsOpened: return "cells_opened";
    case Counter::kMacTests: return "mac_tests";
    case Counter::kMessagesSent: return "messages_sent";
    case Counter::kMessagesReceived: return "messages_received";
    case Counter::kBytesSent: return "bytes_sent";
    case Counter::kBytesReceived: return "bytes_received";
    case Counter::kAbmBatchesSent: return "abm_batches_sent";
    case Counter::kAbmRecordsPosted: return "abm_records_posted";
    case Counter::kAbmRecordsDispatched: return "abm_records_dispatched";
    case Counter::kAbmRetransmits: return "abm_retransmits";
    case Counter::kAbmAcksSent: return "abm_acks_sent";
    case Counter::kAbmDuplicateBatches: return "abm_duplicate_batches";
    case Counter::kAbmCorruptBatches: return "abm_corrupt_batches";
    case Counter::kAbmOutOfOrderBatches: return "abm_out_of_order_batches";
    case Counter::kAbmAbandonedRecords: return "abm_abandoned_records";
    case Counter::kFaultsInjected: return "faults_injected";
    case Counter::kHashHits: return "hash_hits";
    case Counter::kHashMisses: return "hash_misses";
    case Counter::kDtreeRepliesServed: return "dtree_replies_served";
    case Counter::kLetCellsImported: return "let_cells_imported";
    case Counter::kLetBodiesImported: return "let_bodies_imported";
    case Counter::kCount: break;
  }
  return "?";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kAbmSendBacklogBatches: return "abm_send_backlog_batches";
    case Gauge::kAbmSendBacklogBytes: return "abm_send_backlog_bytes";
    case Gauge::kAbmRetryBacklogBatches: return "abm_retry_backlog_batches";
    case Gauge::kAbmRecvOooBatches: return "abm_recv_ooo_batches";
    case Gauge::kAbmPendingPostBytes: return "abm_pending_post_bytes";
    case Gauge::kHashEntries: return "hash_entries";
    case Gauge::kHashSlots: return "hash_slots";
    case Gauge::kHashMeanProbe: return "hash_mean_probe";
    case Gauge::kTreeCells: return "tree_cells";
    case Gauge::kTreeBodies: return "tree_bodies";
    case Gauge::kDtreeCacheCells: return "dtree_cache_cells";
    case Gauge::kMemLiveBytes: return "mem_live_bytes";
    case Gauge::kMemPeakBytes: return "mem_peak_bytes";
    case Gauge::kPoolWorkers: return "pool_workers";
    case Gauge::kPoolTasksRun: return "pool_tasks_run";
    case Gauge::kPoolSteals: return "pool_steals";
    case Gauge::kPoolBusySeconds: return "pool_busy_seconds";
    case Gauge::kPoolLentTasks: return "pool_lent_tasks";
    case Gauge::kPoolLentSeconds: return "pool_lent_seconds";
    case Gauge::kCount: break;
  }
  return "?";
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

Registry& Registry::instance() {
  static Registry r;
  return r;
}

RankChannel* Registry::attach(int rank, const double* vclock, int tid) {
  if (!enabled()) {
    t_channel = nullptr;
    return nullptr;
  }
  std::lock_guard lock(mu_);
  channels_.push_back(
      std::make_unique<RankChannel>(rank, capacity_, sample_capacity_, vclock, tid));
  t_channel = channels_.back().get();
  t_generation = generation_.load(std::memory_order_relaxed);
  return t_channel;
}

void Registry::detach() { t_channel = nullptr; }

void Registry::reset() {
  std::lock_guard lock(mu_);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  channels_.clear();
  t_channel = nullptr;
}

std::vector<const RankChannel*> Registry::channels() const {
  std::lock_guard lock(mu_);
  std::vector<const RankChannel*> out;
  out.reserve(channels_.size());
  for (const auto& c : channels_) out.push_back(c.get());
  return out;
}

RankChannel* channel() {
  if (t_channel != nullptr && t_generation != Registry::instance().generation())
    t_channel = nullptr;  // registry was reset since this thread attached
  return t_channel;
}

void ensure_worker(int worker_index) {
  if (worker_index < 0 || !enabled()) return;
  if (channel() != nullptr) return;  // current-generation channel exists
  Registry::instance().attach(kWorkerRank, nullptr, worker_index + 1);
}

// Counter slots are written only by the channel's owning thread but may be
// read at any moment by a live metrics scrape (counters_snapshot), so the
// increments are relaxed atomic RMWs — on x86 a lock add, cheap enough for
// the once-per-evaluation flush discipline count_tally enforces.
void count(Counter c, std::uint64_t n) {
  RankChannel* ch = channel();
  if (ch == nullptr) return;
  std::atomic_ref<std::uint64_t>(ch->counters_[c])
      .fetch_add(n, std::memory_order_relaxed);
}

void count_tally(const InteractionTally& t) {
  RankChannel* ch = channel();
  if (ch == nullptr) return;
  std::atomic_ref<std::uint64_t>(ch->counters_[Counter::kBodyBody])
      .fetch_add(t.body_body, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(ch->counters_[Counter::kBodyCell])
      .fetch_add(t.body_cell, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(ch->counters_[Counter::kCellsOpened])
      .fetch_add(t.cells_opened, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(ch->counters_[Counter::kMacTests])
      .fetch_add(t.mac_tests, std::memory_order_relaxed);
}

CounterBlock global_counters() {
  // Relaxed atomic snapshot per channel, so the rollup is safe to take while
  // ranks and workers are still recording (the serving layer's live scrape).
  CounterBlock total;
  for (const RankChannel* ch : Registry::instance().channels())
    total += ch->counters_snapshot();
  return total;
}

}  // namespace hotlib::telemetry
