// service.hpp — the persistent simulation server.
//
// SimulationService owns a set of live SimInstances and serves concurrent
// clients over the framed wire protocol (protocol.hpp). Three planes:
//
//  * stepping — one thread advances every simulation continuously (or the
//    harness calls step_all() by hand in quiesced mode). Each step publishes
//    an immutable TreeState; queries never block stepping and vice versa.
//    A query's pool wait runs only the query's own tasks, never a step's.
//    Instead, a pump round that finds no frame and no queued query lends
//    the pump to the global pool for one task (TaskPool::run_one), so a
//    query that arrives meanwhile waits for one step task at most. Because
//    an idle pump touches the global pool, TaskPool::set_global_concurrency
//    needs a stopped service.
//
//  * control — Hello / Steer / StatsRequest frames are answered inline by
//    the pump: they are cheap, and keeping them out of the admission queue
//    means a tenant can always steer or observe even while its query quota
//    is saturated.
//
//  * queries — Point / Region / Knn / Snapshot frames pass admission
//    control: each tenant owns one bounded FIFO; a frame arriving at a full
//    queue is refused immediately with kBusy (never silently dropped —
//    load-shedding the reliable-ABM way, visible and accounted). The pump
//    drains tenant queues round-robin so one tenant's burst cannot starve
//    another's p99. Query latency is measured admission-to-reply and
//    recorded in the tenant's TenantSession.
//
// Malformed frames (fault-injected or hostile) produce one kError reply
// each and never crash or wedge the pump; a stream whose framing is
// unrecoverable (bad magic / absurd length) is answered once and the
// connection dropped, exactly the taxonomy FrameDecoder implements.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/connection.hpp"
#include "serve/introspect.hpp"
#include "serve/protocol.hpp"
#include "serve/sim_instance.hpp"
#include "serve/tenant.hpp"
#include "telemetry/trace.hpp"

namespace hotlib::serve {

class SimulationService {
 public:
  struct Config {
    std::vector<SimInstance::Config> sims;
    std::size_t max_queue_per_tenant = 64;
    std::size_t outbound_buffer_bytes = std::size_t{1} << 22;
    // Longest the pump will wait for a client's reply buffer to make progress
    // before declaring the reader stalled and dropping the connection. Keeps
    // backpressure for slow-but-draining readers while bounding how long any
    // one client can hold the pump (and making stop() deadlock-free).
    std::chrono::microseconds send_grace = std::chrono::milliseconds(200);
    // Continuous stepping thread. Off = quiesced mode: the harness drives
    // step_all() itself (tests; bit-exactness baselines).
    bool auto_step = true;
    // Head-based trace sampling applied by the service to requests that
    // arrive *without* a client-side trace context: each such request is
    // promoted to a sampled trace with this probability. Requests whose
    // header already carries the sampled flag are always traced (the client
    // made the head decision). 0 = service adds no traces of its own.
    double trace_sample_rate = 0.0;
  };

  explicit SimulationService(Config cfg);
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  // Open a connection; safe while the service is running. The returned
  // handle is shared with the service (drop yours + close() to disconnect).
  std::shared_ptr<Connection> connect();

  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Advance every simulation one step (quiesced mode; also legal while the
  // pump runs as long as auto_step is off).
  void step_all();

  std::size_t nsims() const { return sims_.size(); }
  SimInstance& sim(std::size_t i) { return *sims_[i]; }
  const SimInstance& sim(std::size_t i) const { return *sims_[i]; }

  // Stats snapshot for one tenant (zeroed payload for unknown tenants).
  StatsReplyPayload tenant_stats(std::uint32_t tenant) const;
  std::vector<std::uint32_t> tenants() const;

  // Whole-service metrics snapshot — what a kMetricsRequest returns. Safe
  // to call from any thread while the service runs: counters and gauges
  // come from the lock-free telemetry snapshot paths, tenant stats from
  // their own mutexes; stepping and the pump are never paused.
  MetricsSnapshot metrics() const;

  // Malformed-frame errors whose tenant field named a tenant that never
  // introduced itself (kHello). Counted globally instead of materializing a
  // session per attacker-controlled id.
  std::uint64_t unattributed_errors() const {
    return unattributed_errors_.load(std::memory_order_relaxed);
  }

  // Total queries executed (all tenants) — cheap progress probe for
  // harnesses.
  std::uint64_t queries_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  struct ClientState {
    std::shared_ptr<Connection> conn;
    FrameDecoder decoder;
    std::uint32_t tenant = 0;
    bool dead = false;
  };

  struct PendingQuery {
    std::size_t client = 0;
    Frame frame;
    double enqueue_s = 0.0;  // steady-clock seconds (latency measurement)
    // Trace context captured at dispatch (parent = the dispatch span), so
    // the execution spans attach under the same request tree even though
    // they run in a later pump round.
    telemetry::TraceContext trace;
  };

  // What a query executor reports back for the slow-query log.
  struct QueryOutcome {
    std::uint64_t step = 0;
    std::uint64_t interactions = 0;  // paper-accounted (point queries)
    std::uint64_t records = 0;       // records returned
  };

  struct Tenant {
    std::deque<PendingQuery> queue;
    TenantSession session;
  };

  void pump_loop();
  void step_loop();

  // One pump iteration: drain inbound bytes into decoders and queues, then
  // execute up to one admitted query per tenant (round-robin). Returns true
  // when any work was done.
  bool pump_once();
  // Returns true when any work happened: bytes fed into the decoder, frames
  // or error events processed, or the connection dropped.
  bool drain_client(std::size_t ci);
  void handle_frame(std::size_t ci, Frame&& f);
  void execute_query(std::size_t ci, Tenant& tenant, const PendingQuery& q);
  void send_bytes(std::size_t ci, const parc::Bytes& bytes);
  void send_error(std::size_t ci, std::uint32_t tenant, std::uint64_t request_id,
                  ErrorCode code, std::uint32_t detail = 0);
  Tenant& tenant(std::uint32_t id);
  // Error accounting that never materializes a session: charges the tenant
  // if it exists (post-kHello), else the global unattributed counter.
  void record_error_for(std::uint32_t id);
  double now_s() const;
  // Pump-thread head-sampling draw for requests without a client trace.
  bool trace_draw();

  // Query executors (each replies on success, sends kError otherwise).
  QueryOutcome do_point_query(std::size_t ci, const PendingQuery& q);
  QueryOutcome do_region_query(std::size_t ci, const PendingQuery& q);
  QueryOutcome do_knn_query(std::size_t ci, const PendingQuery& q);
  QueryOutcome do_snapshot(std::size_t ci, const PendingQuery& q);

  Config cfg_;
  std::vector<std::unique_ptr<SimInstance>> sims_;
  double epoch_s_ = 0.0;       // now_s() at construction (uptime baseline)
  std::uint64_t trace_rng_ = 0x9E3779B97F4A7C15ull;  // pump-thread only; odd, never 0

  mutable std::mutex clients_mu_;
  std::vector<std::unique_ptr<ClientState>> clients_;

  mutable std::mutex tenants_mu_;
  std::map<std::uint32_t, std::unique_ptr<Tenant>> tenants_;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> unattributed_errors_{0};
  std::thread pump_thread_;
  std::thread step_thread_;
};

}  // namespace hotlib::serve
