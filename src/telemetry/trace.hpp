// trace.hpp — per-rank event tracing with RAII spans.
//
// Every rank (parc thread, or the main thread of a serial harness) owns a
// RankChannel: a fixed-capacity ring buffer of trace events, a block of the
// unified counters (counters.hpp) and per-phase time totals. Channels are
// created when a thread attaches and only ever written by that thread, so
// recording takes no locks; the registry's channel list is mutex-guarded
// for the (cold) attach/export paths.
//
// A Span records one timed scope with both wall-clock and — when the thread
// is a parc rank — LogP virtual time. The disabled path is one relaxed
// atomic load and a branch (measured by bench_faults at ~1 ns/span).
//
// Phase totals are accumulated only by *top-level* spans of each phase
// (nested same-phase spans don't double-count), which is what lets the
// RunReport assert that per-phase times sum to the covered wall time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "telemetry/counters.hpp"

namespace hotlib::telemetry {

// Pipeline phases of the paper's per-timestep breakdown. Every span carries
// one; kOther spans are traced but excluded from the phase rollup.
enum class Phase : int {
  kDecompose = 0,  // weighted sample-sort domain decomposition
  kTreeBuild,      // local hashed oct-tree construction
  kLetExchange,    // locally-essential-tree push exchange
  kTraverse,       // distributed (ABM request-driven) traversal
  kForceEval,      // flop-counted kernel evaluation
  kComm,           // collectives / point-to-point outside the phases above
  kOther,
  kCount
};

inline constexpr int kPhaseCount = static_cast<int>(Phase::kCount);

const char* phase_name(Phase p);

// ---- distributed trace context ---------------------------------------------
//
// A request that crosses threads (client -> service pump -> task-pool
// workers) is stitched into one span tree by an ambient per-thread
// TraceContext: the trace id names the request, parent_span is the span id
// the *next* span opened on this thread should attach under, and the
// sampling bit makes the whole machinery head-sampled — an unsampled
// request allocates no ids and records nothing trace-shaped.
//
// Spans cooperate with the slot automatically: a Span opened under an
// active context allocates a span id, records its parent, and installs
// itself as the thread's parent for the spans nested inside it. Crossing a
// thread boundary is explicit (the task-pool layer is deliberately
// telemetry-free): capture trace_slot() on the submitting thread and
// install it in the worker with a TraceContextScope.
struct TraceContext {
  std::uint64_t trace_id = 0;     // 0 = no trace
  std::uint64_t parent_span = 0;  // 0 = next span is a root
  bool sampled = false;
  bool active() const { return sampled && trace_id != 0; }
};

// The calling thread's ambient trace context (mutable reference).
TraceContext& trace_slot();

// Process-global id allocators; monotonically increasing, never 0. Ids are
// sequential rather than random so runs are reproducible.
std::uint64_t next_span_id();
std::uint64_t new_trace_id();

// RAII install/restore of the ambient context across a scope — used at
// thread hand-off points (service dispatch, parallel_for bodies).
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx) : saved_(trace_slot()) {
    trace_slot() = ctx;
  }
  ~TraceContextScope() { trace_slot() = saved_; }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

struct TraceEvent {
  const char* name = "";      // static string; never freed
  Phase phase = Phase::kOther;
  char type = 'X';            // Chrome trace_event ph: 'X' complete, 'i' instant
  std::int32_t rank = 0;
  std::int32_t tid = 0;       // 0 = the rank thread; >0 = task-pool worker id
  std::int32_t depth = 0;     // span nesting depth at begin
  double wall_begin = 0.0;    // seconds since the registry epoch
  double wall_dur = 0.0;      // seconds ('X' only)
  double virt_begin = 0.0;    // parc virtual time at begin (0 when no rank)
  double virt_dur = 0.0;
  std::uint64_t arg = 0;      // free payload: bytes, counts, ...
  // Distributed-trace linkage (all zero for unsampled events). span_id is 0
  // for instants, which belong to their parent span rather than being one.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span = 0;
};

// Accumulated time of one phase on one rank.
struct PhaseTotal {
  double wall_seconds = 0.0;
  double virt_seconds = 0.0;
  std::uint64_t calls = 0;
};

// One snapshot of every gauge on one rank, taken by the health sampler
// (sample.hpp). `tick` is the rank's progress-tick count at the snapshot —
// the same scheduling-independent clock the reliable ABM layer retries on —
// so a sample sequence is meaningful in virtual time, not just wall time.
struct HealthSample {
  std::uint64_t tick = 0;
  double wall = 0.0;  // seconds since the registry epoch
  double virt = 0.0;  // parc virtual time (0 when the rank has no clock)
  std::array<double, kGaugeCount> gauges{};
};

class RankChannel {
 public:
  RankChannel(int rank, std::size_t capacity, std::size_t sample_capacity,
              const double* vclock, int tid = 0)
      : rank_(rank), tid_(tid), vclock_(vclock), ring_(capacity),
        sample_capacity_(sample_capacity) {
    samples_.reserve(sample_capacity_);
  }

  int rank() const { return rank_; }
  // Thread id within the rank: 0 for the rank thread itself, a positive
  // worker id for task-pool worker channels (whose rank is kWorkerRank).
  int tid() const { return tid_; }
  double vclock() const { return vclock_ != nullptr ? *vclock_ : 0.0; }

  void record(const TraceEvent& e) {
    ring_[head_] = e;
    head_ = (head_ + 1) % ring_.size();
    if (size_ < ring_.size())
      ++size_;
    else
      ++dropped_;
  }

  // Events oldest-to-newest (a copy; the ring keeps recording).
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    const std::size_t start = (head_ + ring_.size() - size_) % ring_.size();
    for (std::size_t i = 0; i < size_; ++i)
      out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
  }

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  std::uint64_t dropped() const { return dropped_; }
  std::int32_t depth() const { return depth_; }

  const CounterBlock& counters() const { return counters_; }
  const PhaseTotal& phase_total(Phase p) const {
    return phases_[static_cast<std::size_t>(static_cast<int>(p))];
  }

  // Counter block read with relaxed atomic loads — safe against the owning
  // thread's concurrent atomic increments (count/count_tally), which is what
  // lets the serving layer scrape a *live* channel without locks.
  CounterBlock counters_snapshot() const {
    CounterBlock out;
    for (int i = 0; i < kCounterCount; ++i)
      out.v[static_cast<std::size_t>(i)] =
          std::atomic_ref<std::uint64_t>(
              const_cast<std::uint64_t&>(counters_.v[static_cast<std::size_t>(i)]))
              .load(std::memory_order_relaxed);
    return out;
  }

  // Seqlock-consistent copy of every gauge, readable from any thread while
  // the owner keeps writing (gauge_set/gauge_add bracket their stores with
  // the sequence counter). Returns false only if the writer stayed mid-write
  // for every retry — the copy is then best-effort.
  bool gauges_snapshot(std::array<double, kGaugeCount>& out,
                       int max_retries = 64) const {
    for (int attempt = 0; attempt < max_retries; ++attempt) {
      const std::uint32_t s0 = gauge_seq_.load(std::memory_order_acquire);
      if (s0 & 1u) continue;  // writer mid-update
      for (int g = 0; g < kGaugeCount; ++g)
        out[static_cast<std::size_t>(g)] =
            std::atomic_ref<double>(
                const_cast<double&>(gauges_[static_cast<std::size_t>(g)]))
                .load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (gauge_seq_.load(std::memory_order_relaxed) == s0) return true;
    }
    return false;
  }

  // ---- health sampler state (driven by sample.hpp) ----
  double gauge(Gauge g) const { return gauges_[static_cast<std::size_t>(static_cast<int>(g))]; }
  const std::vector<HealthSample>& samples() const { return samples_; }
  // Current decimation stride: a snapshot is committed every stride-th tick.
  // Doubles whenever the sample ring fills (every other sample is dropped),
  // so the series always covers the whole run at bounded memory.
  std::uint64_t sample_stride() const { return sample_stride_; }

 private:
  friend class Span;
  friend void count(Counter, std::uint64_t);
  friend void count_tally(const InteractionTally&);
  friend void gauge_set(Gauge, double);
  friend void gauge_add(Gauge, double);
  friend bool sample_tick();
  friend void sample_now();

  int rank_;
  int tid_;
  const double* vclock_;  // the owning thread's parc virtual clock, if any
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  CounterBlock counters_;
  std::array<PhaseTotal, kPhaseCount> phases_{};
  std::array<double, kGaugeCount> gauges_{};
  // Seqlock guarding gauges_ against cross-thread snapshot reads: odd while
  // the owning thread is mid-write. The gauge values themselves are accessed
  // through std::atomic_ref, so a racing snapshot is well-defined (and
  // TSan-clean); the sequence counter only rules out torn multi-gauge reads.
  std::atomic<std::uint32_t> gauge_seq_{0};
  std::vector<HealthSample> samples_;
  std::uint64_t tick_ = 0;
  std::uint64_t sample_stride_ = 16;
  std::size_t sample_capacity_;
  std::int32_t depth_ = 0;
  // Open spans with a real phase (!= kOther). Phase totals accumulate only
  // when this is zero at span begin, so nested spans — a comm collective
  // inside the decomposition, say — attribute their time to the outermost
  // phase once and the per-phase times stay disjoint.
  std::int32_t phase_depth_ = 0;
};

// Global collection switch. Relaxed is enough: enabling happens before the
// instrumented work starts (program order on the enabling thread, rank
// spawn provides the cross-thread ordering).
inline std::atomic<bool> g_enabled{false};

inline bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on);

class Registry {
 public:
  static Registry& instance();

  // Create a channel for the calling thread. `vclock`, when non-null, must
  // outlive the channel (parc passes the rank's clock; it is read only by
  // the owning thread). No-op returning nullptr while telemetry is disabled,
  // so idle test/bench runs don't grow the registry. `tid` distinguishes
  // task-pool worker channels (see ensure_worker) from rank threads.
  RankChannel* attach(int rank, const double* vclock = nullptr, int tid = 0);
  void detach();  // calling thread's channel stays in the registry for export

  // Drop every channel (start of a fresh Session). Must not race live ranks.
  // Bumps the registry generation: threads that cached a channel pointer
  // from a previous generation (task-pool workers outlive Sessions) see
  // their cache invalidated by channel() instead of dereferencing a freed
  // channel.
  void reset();

  // Monotonic generation counter, bumped by reset().
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  void set_capacity(std::size_t events_per_rank) { capacity_ = events_per_rank; }
  std::size_t capacity() const { return capacity_; }
  void set_sample_capacity(std::size_t samples_per_rank) {
    sample_capacity_ = samples_per_rank;
  }
  std::size_t sample_capacity() const { return sample_capacity_; }

  // Stable snapshot of all channels, attach-ordered. The channels of joined
  // ranks are safe to read; a live rank's channel may still be recording.
  std::vector<const RankChannel*> channels() const;

  // Wall clock shared by every channel: seconds since the registry epoch.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Registry() : epoch_(Clock::now()) {}

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RankChannel>> channels_;
  std::size_t capacity_ = 1 << 14;
  std::size_t sample_capacity_ = 256;
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> generation_{1};
};

// The calling thread's channel (nullptr when unattached, or when the
// registry has been reset since this thread attached).
RankChannel* channel();

// Attach/detach sugar for the registry singleton.
inline RankChannel* attach_rank(int rank, const double* vclock = nullptr) {
  return Registry::instance().attach(rank, vclock);
}
inline void detach_rank() { Registry::instance().detach(); }

// Rank id carried by task-pool worker channels. Negative so exporters can
// keep workers out of the per-rank rollup (nranks, phase sums, timeseries)
// while their trace events still land in the Chrome export on their own
// timeline rows.
inline constexpr int kWorkerRank = -1;

// Attach the calling task-pool worker thread (util::TaskPool worker index
// `worker_index` >= 0) as a worker channel of the current session.
// Idempotent and generation-aware: re-attaches after a Registry reset,
// no-ops when already attached or when telemetry is disabled. Rank threads
// (worker_index < 0) are left untouched.
void ensure_worker(int worker_index);

// Scoped attach for rank threads and harness main threads.
class RankScope {
 public:
  explicit RankScope(int rank, const double* vclock = nullptr) {
    attach_rank(rank, vclock);
  }
  ~RankScope() { detach_rank(); }
  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;
};

// RAII timed scope. Construction snapshots wall + virtual time; destruction
// records one 'X' event and accumulates the phase total (top-level spans of
// a phase only).
class Span {
 public:
  Span(const char* name, Phase phase, std::uint64_t arg = 0) {
    if (!enabled()) return;
    ch_ = channel();
    if (ch_ == nullptr) return;
    name_ = name;
    phase_ = phase;
    arg_ = arg;
    if (phase != Phase::kOther) {
      top_level_ = ch_->phase_depth_ == 0;
      ++ch_->phase_depth_;
    }
    depth_ = ch_->depth_++;
    // Join the ambient distributed trace, if one is active: allocate a span
    // id, remember the parent, and become the parent of spans nested inside
    // this scope (restored on destruction).
    TraceContext& tc = trace_slot();
    if (tc.active()) {
      trace_id_ = tc.trace_id;
      parent_span_ = tc.parent_span;
      span_id_ = next_span_id();
      tc.parent_span = span_id_;
    }
    wall0_ = Registry::instance().now();
    virt0_ = ch_->vclock();
  }

  ~Span() {
    if (ch_ == nullptr) return;
    if (span_id_ != 0) trace_slot().parent_span = parent_span_;
    TraceEvent e;
    e.name = name_;
    e.phase = phase_;
    e.type = 'X';
    e.rank = ch_->rank();
    e.tid = ch_->tid();
    e.depth = depth_;
    e.wall_begin = wall0_;
    e.wall_dur = Registry::instance().now() - wall0_;
    e.virt_begin = virt0_;
    e.virt_dur = ch_->vclock() - virt0_;
    e.arg = arg_;
    e.trace_id = trace_id_;
    e.span_id = span_id_;
    e.parent_span = parent_span_;
    ch_->record(e);
    --ch_->depth_;
    if (phase_ != Phase::kOther) --ch_->phase_depth_;
    if (top_level_) {
      PhaseTotal& t = ch_->phases_[static_cast<std::size_t>(static_cast<int>(phase_))];
      t.wall_seconds += e.wall_dur;
      t.virt_seconds += e.virt_dur;
      ++t.calls;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Payload settable after construction (e.g. bytes only known at the end).
  void set_arg(std::uint64_t arg) { arg_ = arg; }

  // Span id within the active distributed trace (0 when the span is not
  // recording or no trace is active) — what a client puts on the wire so
  // server-side spans attach under it.
  std::uint64_t span_id() const { return span_id_; }

 private:
  RankChannel* ch_ = nullptr;
  const char* name_ = "";
  Phase phase_ = Phase::kOther;
  std::uint64_t arg_ = 0;
  double wall0_ = 0.0;
  double virt0_ = 0.0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_ = 0;
  std::int32_t depth_ = 0;
  bool top_level_ = false;
};

// Zero-duration marker event (fault injections, retransmissions, ...).
inline void instant(const char* name, Phase phase, std::uint64_t arg = 0) {
  if (!enabled()) return;
  RankChannel* ch = channel();
  if (ch == nullptr) return;
  TraceEvent e;
  e.name = name;
  e.phase = phase;
  e.type = 'i';
  e.rank = ch->rank();
  e.tid = ch->tid();
  e.depth = ch->depth();
  e.wall_begin = Registry::instance().now();
  e.virt_begin = ch->vclock();
  e.arg = arg;
  const TraceContext& tc = trace_slot();
  if (tc.active()) {
    e.trace_id = tc.trace_id;
    e.parent_span = tc.parent_span;  // instants belong to the enclosing span
  }
  ch->record(e);
}

}  // namespace hotlib::telemetry
