#include "serve/service.hpp"

#include <algorithm>
#include <chrono>

#include "gravity/evaluate.hpp"
#include "hot/spatial.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/trace.hpp"
#include "util/task_pool.hpp"

namespace hotlib::serve {

namespace {

// Largest record counts whose reply still fits in one frame.
constexpr std::size_t kMaxPointsPerQuery =
    (kMaxFramePayload - sizeof(PointReplyHeader)) / (sizeof(Vec3d) + sizeof(double));
constexpr std::size_t kMaxRecordsPerReply =
    (kMaxFramePayload - sizeof(RegionReplyHeader)) / sizeof(ParticleRecord);
constexpr std::size_t kMaxNeighborsPerReply =
    (kMaxFramePayload - sizeof(KnnReplyHeader)) / sizeof(NeighborRecord);

// Per-connection request buffer, and the snapshot chunk size used when a
// request names none.
constexpr std::size_t kInboundBufferBytes = std::size_t{1} << 16;
constexpr std::size_t kSnapshotChunkBodies = 512;
// Telemetry rank ids of the stepping and pump threads.
constexpr int kStepRank = 1;
constexpr int kPumpRank = 2;

ErrorCode decode_error_to_code(DecodeError e) {
  switch (e) {
    case DecodeError::kBadVersion: return ErrorCode::kBadVersion;
    case DecodeError::kBadType: return ErrorCode::kBadType;
    case DecodeError::kBadChecksum: return ErrorCode::kBadChecksum;
    default: return ErrorCode::kMalformedFrame;
  }
}

// Static span name per query type (trace event names are never freed).
const char* query_span_name(FrameType t) {
  switch (t) {
    case FrameType::kPointQuery: return "serve_point";
    case FrameType::kRegionQuery: return "serve_region";
    case FrameType::kKnnQuery: return "serve_knn";
    case FrameType::kSnapshotRequest: return "serve_snapshot";
    default: return "serve_query";
  }
}

}  // namespace

SimulationService::SimulationService(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.sims.empty()) cfg_.sims.push_back(SimInstance::Config{});
  for (const SimInstance::Config& sc : cfg_.sims)
    sims_.push_back(std::make_unique<SimInstance>(sc));
  epoch_s_ = now_s();
}

SimulationService::~SimulationService() { stop(); }

std::shared_ptr<Connection> SimulationService::connect() {
  auto conn = std::make_shared<Connection>(kInboundBufferBytes, cfg_.outbound_buffer_bytes);
  auto cs = std::make_unique<ClientState>();
  cs->conn = conn;
  std::lock_guard<std::mutex> lk(clients_mu_);
  clients_.push_back(std::move(cs));
  return conn;
}

void SimulationService::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  pump_thread_ = std::thread([this] { pump_loop(); });
  if (cfg_.auto_step) step_thread_ = std::thread([this] { step_loop(); });
}

void SimulationService::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (step_thread_.joinable()) step_thread_.join();
  if (pump_thread_.joinable()) pump_thread_.join();
  std::lock_guard<std::mutex> lk(clients_mu_);
  for (auto& c : clients_) c->conn->close();
}

void SimulationService::step_all() {
  for (auto& s : sims_) s->step();
}

double SimulationService::now_s() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SimulationService::trace_draw() {
  if (cfg_.trace_sample_rate <= 0.0) return false;
  if (cfg_.trace_sample_rate >= 1.0) return true;
  // xorshift64*: cheap, pump-thread-local, deterministic for a given seed.
  trace_rng_ ^= trace_rng_ >> 12;
  trace_rng_ ^= trace_rng_ << 25;
  trace_rng_ ^= trace_rng_ >> 27;
  const std::uint64_t x = trace_rng_ * 0x2545F4914F6CDD1Dull;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < cfg_.trace_sample_rate;
}

SimulationService::Tenant& SimulationService::tenant(std::uint32_t id) {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  auto& slot = tenants_[id];
  if (!slot) slot = std::make_unique<Tenant>();
  return *slot;
}

void SimulationService::record_error_for(std::uint32_t id) {
  // find(), never operator[]: the tenant field of a malformed frame is
  // attacker-controlled, and materializing a session per id would let a
  // hostile client grow the tenant map without bound.
  std::lock_guard<std::mutex> lk(tenants_mu_);
  const auto it = tenants_.find(id);
  if (it != tenants_.end())
    it->second->session.record_error();
  else
    unattributed_errors_.fetch_add(1, std::memory_order_relaxed);
}

StatsReplyPayload SimulationService::tenant_stats(std::uint32_t id) const {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  const auto it = tenants_.find(id);
  if (it == tenants_.end()) return {};
  return it->second->session.snapshot(sims_[0]->steps_done());
}

std::vector<std::uint32_t> SimulationService::tenants() const {
  std::lock_guard<std::mutex> lk(tenants_mu_);
  std::vector<std::uint32_t> out;
  out.reserve(tenants_.size());
  for (const auto& [id, t] : tenants_) out.push_back(id);
  return out;
}

MetricsSnapshot SimulationService::metrics() const {
  MetricsSnapshot m;
  m.head.steps = sims_[0]->steps_done();
  m.head.queries_executed = executed_.load(std::memory_order_relaxed);
  m.head.unattributed_errors = unattributed_errors_.load(std::memory_order_relaxed);
  m.head.uptime_s = now_s() - epoch_s_;
  // Registry rollups via the lock-free snapshot paths: relaxed atomic
  // counter reads, seqlock-consistent gauge copies — safe while the step
  // thread, pump and task-pool workers keep writing.
  const telemetry::CounterBlock counters = telemetry::global_counters();
  for (int c = 0; c < telemetry::kCounterCount; ++c)
    m.counters[static_cast<std::size_t>(c)] = counters.v[static_cast<std::size_t>(c)];
  m.gauges = telemetry::global_gauges_snapshot();
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    m.tenants.reserve(tenants_.size());
    for (const auto& [id, t] : tenants_) {
      const StatsReplyPayload s = t->session.snapshot(m.head.steps);
      TenantMetricsRecord r;
      r.tenant = id;
      r.queries = s.queries;
      r.rejected = s.rejected;
      r.errors = s.errors;
      r.p50_query_latency_us = s.p50_query_latency_us;
      r.p99_query_latency_us = s.p99_query_latency_us;
      r.max_query_latency_us = s.max_query_latency_us;
      m.tenants.push_back(r);
      for (const SlowQueryRecord& q : t->session.slow_queries())
        m.slow.push_back(q);
    }
  }
  std::sort(m.slow.begin(), m.slow.end(),
            [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
              return a.total_us > b.total_us;
            });
  if (m.slow.size() > kMaxSlowQueriesPerReply)
    m.slow.resize(kMaxSlowQueriesPerReply);
  return m;
}

void SimulationService::step_loop() {
  telemetry::RankScope scope(kStepRank);
  while (running_.load(std::memory_order_acquire)) step_all();
}

void SimulationService::pump_loop() {
  telemetry::RankScope scope(kPumpRank);
  while (running_.load(std::memory_order_acquire)) {
    if (pump_once()) continue;
    // Idle: lend the pump to the pool for one task — a step chunk, say —
    // before sleeping, so a query arriving now waits for that one task at
    // most. global_if_created(): an idle pump never creates the pool.
    util::TaskPool* pool = util::TaskPool::global_if_created();
    if (pool == nullptr || !pool->run_one())
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Final drain so requests sent just before stop() still get answers —
  // makes shutdown deterministic for closed-loop clients.
  while (pump_once()) {
  }
}

bool SimulationService::pump_once() {
  bool worked = false;
  std::size_t nclients;
  {
    std::lock_guard<std::mutex> lk(clients_mu_);
    nclients = clients_.size();
  }
  for (std::size_t ci = 0; ci < nclients; ++ci) {
    ClientState* cs;
    {
      std::lock_guard<std::mutex> lk(clients_mu_);
      cs = clients_[ci].get();
    }
    if (cs->dead) continue;
    worked |= drain_client(ci);
  }
  // One admitted query per tenant per round: round-robin fairness across
  // tenants regardless of per-tenant arrival bursts.
  std::vector<Tenant*> ts;
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    ts.reserve(tenants_.size());
    for (auto& [id, t] : tenants_) ts.push_back(t.get());
  }
  for (Tenant* t : ts) {
    if (t->queue.empty()) continue;
    PendingQuery q = std::move(t->queue.front());
    t->queue.pop_front();
    execute_query(q.client, *t, q);
    worked = true;
  }
  return worked;
}

bool SimulationService::drain_client(std::size_t ci) {
  ClientState* cs;
  {
    std::lock_guard<std::mutex> lk(clients_mu_);
    cs = clients_[ci].get();
  }
  bool worked = false;
  parc::Bytes chunk;
  while (cs->conn->to_server.poll(chunk, std::size_t{1} << 16) > 0) {
    cs->decoder.feed(chunk);
    chunk.clear();
    worked = true;
  }
  while (auto ev = cs->decoder.next()) {
    worked = true;
    if (ev->ok) {
      handle_frame(ci, std::move(ev->frame));
      continue;
    }
    // Malformed frame: account it to the tenant named in the offending
    // header (zero when unreadable) and answer with a clean error.
    const std::uint32_t tid = ev->tenant != 0 ? ev->tenant : cs->tenant;
    record_error_for(tid);
    send_error(ci, tid, ev->request_id, decode_error_to_code(ev->error),
               static_cast<std::uint32_t>(ev->error));
  }
  if (!cs->dead &&
      (cs->decoder.poisoned() || cs->conn->to_server.drained())) {
    // Unrecoverable framing or client hang-up: drop the connection. Any
    // queries already admitted still execute (their replies go nowhere).
    cs->dead = true;
    cs->conn->close();
    worked = true;
  }
  return worked;
}

void SimulationService::handle_frame(std::size_t ci, Frame&& f) {
  ClientState* cs;
  {
    std::lock_guard<std::mutex> lk(clients_mu_);
    cs = clients_[ci].get();
  }
  const std::uint32_t tid = f.header.tenant;
  const std::uint64_t rid = f.header.request_id;
  // Join the request's distributed trace (wire context) or, for untraced
  // requests, head-sample a fresh trace at the configured rate. Everything
  // this dispatch does — and the execution spans of queries it admits —
  // nests under one causally-linked span tree per request.
  telemetry::TraceContext tc;
  tc.trace_id = f.header.trace_id;
  tc.parent_span = f.header.parent_span;
  tc.sampled = (f.header.trace_flags & kTraceFlagSampled) != 0;
  if (!tc.sampled && trace_draw()) {
    tc.trace_id = telemetry::new_trace_id();
    tc.parent_span = 0;
    tc.sampled = true;
  }
  if (tc.sampled && tc.trace_id == 0) tc.trace_id = telemetry::new_trace_id();
  telemetry::TraceContextScope trace_scope(tc);
  telemetry::Span dispatch("serve_dispatch", telemetry::Phase::kOther,
                           f.header.type);
  switch (f.type()) {
    case FrameType::kHello: {
      const auto hello = f.as<HelloPayload>();
      if (!hello) {
        send_error(ci, tid, rid, ErrorCode::kBadRequest);
        return;
      }
      cs->tenant = hello->tenant;
      tenant(hello->tenant);  // materialize the session
      HelloOkPayload ok;
      ok.nsims = static_cast<std::uint32_t>(sims_.size());
      send_bytes(ci, encode_frame(FrameType::kHelloOk, hello->tenant, rid, ok));
      return;
    }
    case FrameType::kStatsRequest: {
      send_bytes(ci, encode_frame(FrameType::kStatsReply, tid, rid,
                                  tenant_stats(tid)));
      return;
    }
    case FrameType::kMetricsRequest: {
      // Control plane, answered inline like kStatsRequest: a scrape must
      // succeed even while the tenant's query quota is saturated.
      send_bytes(ci, encode_frame(FrameType::kMetricsReply, tid, rid,
                                  encode_metrics_payload(metrics())));
      return;
    }
    case FrameType::kSteer: {
      const auto steer = f.as<SteerPayload>();
      if (!steer) {
        send_error(ci, tid, rid, ErrorCode::kBadRequest);
        return;
      }
      if (steer->sim >= sims_.size()) {
        send_error(ci, tid, rid, ErrorCode::kUnknownSim, steer->sim);
        return;
      }
      const SimInstance::Steering applied =
          sims_[steer->sim]->steer(steer->dt, steer->theta, steer->softening);
      SteerOkPayload ok;
      ok.effective_step = applied.effective_step;
      ok.dt = applied.dt;
      ok.theta = applied.theta;
      ok.softening = applied.softening;
      send_bytes(ci, encode_frame(FrameType::kSteerOk, tid, rid, ok));
      return;
    }
    case FrameType::kPointQuery:
    case FrameType::kRegionQuery:
    case FrameType::kKnnQuery:
    case FrameType::kSnapshotRequest: {
      Tenant& t = tenant(tid);
      if (t.queue.size() >= cfg_.max_queue_per_tenant) {
        t.session.record_rejected();
        send_error(ci, tid, rid, ErrorCode::kBusy,
                   static_cast<std::uint32_t>(f.header.type));
        return;
      }
      PendingQuery q{ci, std::move(f), now_s(), {}};
      // Hand the ambient context (parent = this dispatch span when it is
      // recording) to the deferred execution.
      q.trace = telemetry::trace_slot();
      t.queue.push_back(std::move(q));
      return;
    }
    default:
      // Structurally valid frame of a type only the server may send.
      record_error_for(tid);
      send_error(ci, tid, rid, ErrorCode::kBadRequest,
                 static_cast<std::uint32_t>(f.header.type));
      return;
  }
}

void SimulationService::execute_query(std::size_t ci, Tenant& t,
                                      const PendingQuery& q) {
  // Re-enter the request's trace: the execution span (and every walk span
  // under it, including task-pool worker chunks) attaches below the
  // dispatch span recorded when the frame arrived.
  telemetry::TraceContextScope trace_scope(q.trace);
  const double exec0_s = now_s();
  QueryOutcome out;
  {
    telemetry::Span span(query_span_name(q.frame.type()),
                         telemetry::Phase::kOther, q.frame.header.request_id);
    switch (q.frame.type()) {
      case FrameType::kPointQuery: out = do_point_query(ci, q); break;
      case FrameType::kRegionQuery: out = do_region_query(ci, q); break;
      case FrameType::kKnnQuery: out = do_knn_query(ci, q); break;
      case FrameType::kSnapshotRequest: out = do_snapshot(ci, q); break;
      default: break;  // unreachable: admission only queues the four above
    }
  }
  const double end_s = now_s();
  t.session.record_query((end_s - q.enqueue_s) * 1e6);
  SlowQueryRecord slow;
  slow.tenant = q.frame.header.tenant;
  slow.type = q.frame.header.type;
  slow.request_id = q.frame.header.request_id;
  slow.trace_id = q.trace.active() ? q.trace.trace_id : 0;
  slow.args_digest =
      fnv1a64(q.frame.payload.data(), q.frame.payload.size());
  slow.step = out.step;
  slow.interactions = out.interactions;
  slow.records = out.records;
  slow.queue_us = (exec0_s - q.enqueue_s) * 1e6;
  slow.exec_us = (end_s - exec0_s) * 1e6;
  slow.total_us = (end_s - q.enqueue_s) * 1e6;
  t.session.record_slow(slow);
  executed_.fetch_add(1, std::memory_order_relaxed);
}

SimulationService::QueryOutcome SimulationService::do_point_query(
    std::size_t ci, const PendingQuery& q) {
  const std::uint32_t tid = q.frame.header.tenant;
  const std::uint64_t rid = q.frame.header.request_id;
  const auto head = q.frame.as<PointQueryHeader>();
  if (!head) {
    send_error(ci, tid, rid, ErrorCode::kBadRequest);
    return {};
  }
  if (head->sim >= sims_.size()) {
    send_error(ci, tid, rid, ErrorCode::kUnknownSim, head->sim);
    return {};
  }
  const std::size_t count = head->count;
  if (count > kMaxPointsPerQuery ||
      q.frame.payload.size() != sizeof(*head) + count * sizeof(Vec3d)) {
    send_error(ci, tid, rid, ErrorCode::kBadRequest);
    return {};
  }
  std::vector<Vec3d> points(count);
  if (count > 0)  // an empty vector's data() may be null
    std::memcpy(points.data(), q.frame.payload.data() + sizeof(*head),
                count * sizeof(Vec3d));

  const std::shared_ptr<const TreeState> s = sims_[head->sim]->state();
  std::vector<Vec3d> acc(count);
  std::vector<double> pot(count);
  const InteractionTally tally =
      gravity::evaluate_at(s->tree, s->pos, s->mass, s->fcfg, points, acc, pot);

  PointReplyHeader reply;
  reply.step = s->step;
  reply.count = head->count;
  parc::Bytes payload(sizeof(reply) + count * (sizeof(Vec3d) + sizeof(double)));
  std::memcpy(payload.data(), &reply, sizeof(reply));
  if (count > 0) {
    std::memcpy(payload.data() + sizeof(reply), acc.data(), count * sizeof(Vec3d));
    std::memcpy(payload.data() + sizeof(reply) + count * sizeof(Vec3d), pot.data(),
                count * sizeof(double));
  }
  send_bytes(ci, encode_frame(FrameType::kPointReply, tid, rid, payload));
  return {s->step, tally.interactions(), count};
}

SimulationService::QueryOutcome SimulationService::do_region_query(
    std::size_t ci, const PendingQuery& q) {
  const std::uint32_t tid = q.frame.header.tenant;
  const std::uint64_t rid = q.frame.header.request_id;
  const auto query = q.frame.as<RegionQueryPayload>();
  if (!query) {
    send_error(ci, tid, rid, ErrorCode::kBadRequest);
    return {};
  }
  if (query->sim >= sims_.size()) {
    send_error(ci, tid, rid, ErrorCode::kUnknownSim, query->sim);
    return {};
  }
  const std::shared_ptr<const TreeState> s = sims_[query->sim]->state();
  std::vector<std::uint32_t> hits;
  hot::collect_in_box(s->tree, s->pos, query->box, hits);

  std::size_t count = hits.size();
  if (query->max_results > 0)
    count = std::min<std::size_t>(count, query->max_results);
  count = std::min(count, kMaxRecordsPerReply);

  RegionReplyHeader reply;
  reply.step = s->step;
  reply.count = static_cast<std::uint32_t>(count);
  reply.total_matches = static_cast<std::uint32_t>(hits.size());
  parc::Bytes payload(sizeof(reply) + count * sizeof(ParticleRecord));
  std::memcpy(payload.data(), &reply, sizeof(reply));
  auto* rec = reinterpret_cast<ParticleRecord*>(payload.data() + sizeof(reply));
  for (std::size_t r = 0; r < count; ++r) {
    const std::uint32_t i = hits[r];
    rec[r].id = s->id[i];
    rec[r].mass = s->mass[i];
    rec[r].pos = s->pos[i];
    rec[r].vel = s->vel[i];
  }
  send_bytes(ci, encode_frame(FrameType::kRegionReply, tid, rid, payload));
  return {s->step, 0, count};
}

SimulationService::QueryOutcome SimulationService::do_knn_query(
    std::size_t ci, const PendingQuery& q) {
  const std::uint32_t tid = q.frame.header.tenant;
  const std::uint64_t rid = q.frame.header.request_id;
  const auto query = q.frame.as<KnnQueryPayload>();
  if (!query) {
    send_error(ci, tid, rid, ErrorCode::kBadRequest);
    return {};
  }
  if (query->sim >= sims_.size()) {
    send_error(ci, tid, rid, ErrorCode::kUnknownSim, query->sim);
    return {};
  }
  if (query->k > kMaxNeighborsPerReply) {
    send_error(ci, tid, rid, ErrorCode::kBadRequest, query->k);
    return {};
  }
  const std::shared_ptr<const TreeState> s = sims_[query->sim]->state();
  std::vector<hot::Neighbor> neighbors;
  hot::knn(s->tree, s->pos, query->point, query->k, neighbors);

  KnnReplyHeader reply;
  reply.step = s->step;
  reply.count = static_cast<std::uint32_t>(neighbors.size());
  parc::Bytes payload(sizeof(reply) + neighbors.size() * sizeof(NeighborRecord));
  std::memcpy(payload.data(), &reply, sizeof(reply));
  auto* rec = reinterpret_cast<NeighborRecord*>(payload.data() + sizeof(reply));
  for (std::size_t r = 0; r < neighbors.size(); ++r) {
    rec[r].id = s->id[neighbors[r].index];
    rec[r].dist2 = neighbors[r].dist2;
    rec[r].pos = s->pos[neighbors[r].index];
  }
  send_bytes(ci, encode_frame(FrameType::kKnnReply, tid, rid, payload));
  return {s->step, 0, neighbors.size()};
}

SimulationService::QueryOutcome SimulationService::do_snapshot(
    std::size_t ci, const PendingQuery& q) {
  const std::uint32_t tid = q.frame.header.tenant;
  const std::uint64_t rid = q.frame.header.request_id;
  const auto req = q.frame.as<SnapshotRequestPayload>();
  if (!req) {
    send_error(ci, tid, rid, ErrorCode::kBadRequest);
    return {};
  }
  if (req->sim >= sims_.size()) {
    send_error(ci, tid, rid, ErrorCode::kUnknownSim, req->sim);
    return {};
  }
  const std::shared_ptr<const TreeState> s = sims_[req->sim]->state();
  std::size_t chunk = req->chunk_bodies > 0 ? req->chunk_bodies : kSnapshotChunkBodies;
  chunk = std::min(std::max<std::size_t>(chunk, 1), kMaxRecordsPerReply);
  const std::size_t n = s->pos.size();
  const std::size_t nchunks = n == 0 ? 1 : (n + chunk - 1) / chunk;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    SnapshotChunkHeader head;
    head.step = s->step;
    head.time = s->time;
    head.index = static_cast<std::uint32_t>(c);
    head.nchunks = static_cast<std::uint32_t>(nchunks);
    head.count = static_cast<std::uint32_t>(hi - lo);
    parc::Bytes payload(sizeof(head) + (hi - lo) * sizeof(ParticleRecord));
    std::memcpy(payload.data(), &head, sizeof(head));
    auto* rec = reinterpret_cast<ParticleRecord*>(payload.data() + sizeof(head));
    for (std::size_t i = lo; i < hi; ++i) {
      rec[i - lo].id = s->id[i];
      rec[i - lo].mass = s->mass[i];
      rec[i - lo].pos = s->pos[i];
      rec[i - lo].vel = s->vel[i];
    }
    send_bytes(ci, encode_frame(FrameType::kSnapshotChunk, tid, rid, payload));
  }
  return {s->step, 0, n};
}

void SimulationService::send_bytes(std::size_t ci, const parc::Bytes& bytes) {
  ClientState* cs;
  {
    std::lock_guard<std::mutex> lk(clients_mu_);
    cs = clients_[ci].get();
  }
  if (cs->dead) return;
  // Bounded, progress-based send: a slow-but-draining reader backpressures
  // normally, but a reader that stops draining for send_grace is declared
  // stalled and dropped. The pump can therefore never be wedged by a client
  // that stops reading its replies, and stop() always terminates.
  if (!cs->conn->to_client.try_write(bytes, cfg_.send_grace)) {
    cs->dead = true;
    cs->conn->close();
  }
}

void SimulationService::send_error(std::size_t ci, std::uint32_t tenant_id,
                                   std::uint64_t request_id, ErrorCode code,
                                   std::uint32_t detail) {
  ErrorPayload err;
  err.code = static_cast<std::uint32_t>(code);
  err.detail = detail;
  send_bytes(ci, encode_frame(FrameType::kError, tenant_id, request_id, err));
}

}  // namespace hotlib::serve
