#include "serve/client.hpp"

#include <cstring>

#include "serve/introspect.hpp"
#include "telemetry/trace.hpp"

namespace hotlib::serve {

namespace {

// Byte view of a POD request payload (lifetime: the enclosing call).
template <class T>
std::span<const std::uint8_t> pod_span(const T& p) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const std::uint8_t*>(&p), sizeof(T)};
}

}  // namespace

Client::Client(SimulationService& service, std::uint32_t tenant)
    : conn_(service.connect()), tenant_(tenant) {}

Client::~Client() { close(); }

void Client::close() {
  if (conn_) conn_->close();
}

bool Client::send_raw(std::span<const std::uint8_t> bytes) {
  return conn_->to_server.write(bytes);
}

std::optional<Frame> Client::read_frame() {
  for (;;) {
    while (auto ev = decoder_.next()) {
      if (ev->ok) return std::move(ev->frame);
      // The service never sends malformed frames; treat any decode error on
      // the reply stream as a dead connection.
      last_error_ = ErrorPayload{};
      return std::nullopt;
    }
    parc::Bytes chunk;
    if (conn_->to_client.read_some(chunk, std::size_t{1} << 16) == 0) {
      last_error_ = ErrorPayload{};
      return std::nullopt;  // closed and drained
    }
    decoder_.feed(chunk);
  }
}

TraceWire Client::begin_trace() {
  TraceWire tw;
  last_trace_id_ = 0;
  if (trace_rate_ <= 0.0) return tw;
  bool sampled = trace_rate_ >= 1.0;
  if (!sampled) {
    // Same xorshift64* draw the service uses for its own head sampling.
    trace_rng_ ^= trace_rng_ >> 12;
    trace_rng_ ^= trace_rng_ << 25;
    trace_rng_ ^= trace_rng_ >> 27;
    const std::uint64_t x = trace_rng_ * 0x2545F4914F6CDD1Dull;
    sampled = static_cast<double>(x >> 11) * 0x1.0p-53 < trace_rate_;
  }
  if (sampled) {
    tw.trace_id = telemetry::new_trace_id();
    tw.sampled = true;
    last_trace_id_ = tw.trace_id;
  }
  return tw;
}

std::optional<Frame> Client::call(FrameType type, std::uint64_t id,
                                  std::span<const std::uint8_t> payload,
                                  FrameType expect) {
  TraceWire tw = begin_trace();
  telemetry::TraceContext tc;
  tc.trace_id = tw.trace_id;
  tc.sampled = tw.sampled;
  telemetry::TraceContextScope scope(tc);
  // Root span of the request's trace: covers encode, send, the server round
  // trip and reply decode. Its id rides the wire as parent_span, so every
  // service-side span of this request nests under it.
  telemetry::Span span("client_request", telemetry::Phase::kOther,
                       static_cast<std::uint64_t>(type));
  tw.parent_span = span.span_id();
  if (!conn_->to_server.write(encode_frame(type, tenant_, id, payload, tw))) {
    last_error_ = ErrorPayload{};
    return std::nullopt;
  }
  for (;;) {
    std::optional<Frame> f = read_frame();
    if (!f) return std::nullopt;
    if (f->header.request_id != id) continue;  // stale (e.g. prior snapshot tail)
    if (f->type() == FrameType::kError) {
      last_error_ = f->as<ErrorPayload>().value_or(ErrorPayload{});
      return std::nullopt;
    }
    if (f->type() != expect) {
      last_error_ = ErrorPayload{};
      return std::nullopt;
    }
    return f;
  }
}

std::optional<HelloOkPayload> Client::hello() {
  const std::uint64_t id = next_id_++;
  HelloPayload p;
  p.tenant = tenant_;
  auto f = call(FrameType::kHello, id, pod_span(p), FrameType::kHelloOk);
  if (!f) return std::nullopt;
  return f->as<HelloOkPayload>();
}

std::optional<Client::PointResult> Client::point_query(std::uint32_t sim,
                                                       std::span<const Vec3d> points) {
  const std::uint64_t id = next_id_++;
  PointQueryHeader head;
  head.sim = sim;
  head.count = static_cast<std::uint32_t>(points.size());
  parc::Bytes payload(sizeof(head) + points.size_bytes());
  std::memcpy(payload.data(), &head, sizeof(head));
  if (!points.empty())  // an empty span's data() may be null
    std::memcpy(payload.data() + sizeof(head), points.data(), points.size_bytes());
  auto f = call(FrameType::kPointQuery, id, payload, FrameType::kPointReply);
  if (!f) return std::nullopt;
  const auto reply = f->as<PointReplyHeader>();
  if (!reply) return std::nullopt;
  const std::size_t n = reply->count;
  if (f->payload.size() !=
      sizeof(*reply) + n * (sizeof(Vec3d) + sizeof(double)))
    return std::nullopt;
  PointResult out;
  out.step = reply->step;
  out.acc.resize(n);
  out.pot.resize(n);
  if (n > 0) {
    std::memcpy(out.acc.data(), f->payload.data() + sizeof(*reply),
                n * sizeof(Vec3d));
    std::memcpy(out.pot.data(),
                f->payload.data() + sizeof(*reply) + n * sizeof(Vec3d),
                n * sizeof(double));
  }
  return out;
}

std::optional<Client::RegionResult> Client::region_query(std::uint32_t sim,
                                                         const hot::Aabb& box,
                                                         std::uint32_t max_results) {
  const std::uint64_t id = next_id_++;
  RegionQueryPayload p;
  p.sim = sim;
  p.max_results = max_results;
  p.box = box;
  auto f = call(FrameType::kRegionQuery, id, pod_span(p), FrameType::kRegionReply);
  if (!f) return std::nullopt;
  const auto reply = f->as<RegionReplyHeader>();
  if (!reply) return std::nullopt;
  if (f->payload.size() !=
      sizeof(*reply) + reply->count * sizeof(ParticleRecord))
    return std::nullopt;
  RegionResult out;
  out.step = reply->step;
  out.total_matches = reply->total_matches;
  out.particles.resize(reply->count);
  if (reply->count > 0)  // an empty vector's data() may be null
    std::memcpy(out.particles.data(), f->payload.data() + sizeof(*reply),
                reply->count * sizeof(ParticleRecord));
  return out;
}

std::optional<Client::KnnResult> Client::knn_query(std::uint32_t sim,
                                                   const Vec3d& point,
                                                   std::uint32_t k) {
  const std::uint64_t id = next_id_++;
  KnnQueryPayload p;
  p.sim = sim;
  p.k = k;
  p.point = point;
  auto f = call(FrameType::kKnnQuery, id, pod_span(p), FrameType::kKnnReply);
  if (!f) return std::nullopt;
  const auto reply = f->as<KnnReplyHeader>();
  if (!reply) return std::nullopt;
  if (f->payload.size() !=
      sizeof(*reply) + reply->count * sizeof(NeighborRecord))
    return std::nullopt;
  KnnResult out;
  out.step = reply->step;
  out.neighbors.resize(reply->count);
  if (reply->count > 0)
    std::memcpy(out.neighbors.data(), f->payload.data() + sizeof(*reply),
                reply->count * sizeof(NeighborRecord));
  return out;
}

std::optional<Client::Snapshot> Client::snapshot(std::uint32_t sim,
                                                 std::uint32_t chunk_bodies) {
  const std::uint64_t id = next_id_++;
  SnapshotRequestPayload p;
  p.sim = sim;
  p.chunk_bodies = chunk_bodies;
  // Snapshots bypass call() (multi-frame reply) but trace the same way: one
  // client span covering the request and every chunk.
  TraceWire tw = begin_trace();
  telemetry::TraceContext tc;
  tc.trace_id = tw.trace_id;
  tc.sampled = tw.sampled;
  telemetry::TraceContextScope scope(tc);
  telemetry::Span span("client_request", telemetry::Phase::kOther,
                       static_cast<std::uint64_t>(FrameType::kSnapshotRequest));
  tw.parent_span = span.span_id();
  if (!conn_->to_server.write(
          encode_frame(FrameType::kSnapshotRequest, tenant_, id, p, {}, tw)))
    return std::nullopt;
  Snapshot out;
  std::uint32_t received = 0, expected = 0;
  do {
    std::optional<Frame> f = read_frame();
    if (!f) return std::nullopt;
    if (f->header.request_id != id) continue;
    if (f->type() == FrameType::kError) {
      last_error_ = f->as<ErrorPayload>().value_or(ErrorPayload{});
      return std::nullopt;
    }
    if (f->type() != FrameType::kSnapshotChunk) return std::nullopt;
    const auto head = f->as<SnapshotChunkHeader>();
    if (!head) return std::nullopt;
    if (f->payload.size() !=
        sizeof(*head) + head->count * sizeof(ParticleRecord))
      return std::nullopt;
    out.step = head->step;
    out.time = head->time;
    expected = head->nchunks;
    const std::size_t base = out.particles.size();
    out.particles.resize(base + head->count);
    if (head->count > 0)  // an empty sim streams one empty chunk
      std::memcpy(out.particles.data() + base, f->payload.data() + sizeof(*head),
                  head->count * sizeof(ParticleRecord));
    ++received;
  } while (received < expected);
  return out;
}

std::optional<SteerOkPayload> Client::steer(std::uint32_t sim, double dt,
                                            double theta, double softening) {
  const std::uint64_t id = next_id_++;
  SteerPayload p;
  p.sim = sim;
  p.dt = dt;
  p.theta = theta;
  p.softening = softening;
  auto f = call(FrameType::kSteer, id, pod_span(p), FrameType::kSteerOk);
  if (!f) return std::nullopt;
  return f->as<SteerOkPayload>();
}

std::optional<StatsReplyPayload> Client::stats() {
  const std::uint64_t id = next_id_++;
  auto f = call(FrameType::kStatsRequest, id, {}, FrameType::kStatsReply);
  if (!f) return std::nullopt;
  return f->as<StatsReplyPayload>();
}

std::optional<MetricsSnapshot> Client::metrics() {
  const std::uint64_t id = next_id_++;
  auto f = call(FrameType::kMetricsRequest, id, {}, FrameType::kMetricsReply);
  if (!f) return std::nullopt;
  return decode_metrics(*f);
}

}  // namespace hotlib::serve
