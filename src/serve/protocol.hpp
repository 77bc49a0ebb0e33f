// protocol.hpp — the serving layer's length-prefixed binary wire protocol.
//
// Simulation-as-a-service: clients talk to a persistent SimulationService
// over a byte stream of framed, checksummed messages. The framing follows
// the reliable-ABM wire discipline (parc/rank.cpp): a fixed POD header, an
// FNV-1a 64 checksum over the payload, and strict validation on receive so
// a hostile or faulty transport produces clean per-frame errors instead of
// crashes. Frames are PODs memcpy'd on and off the wire, exactly like the
// parc message layer — no text parsing anywhere near the hot path.
//
// Decode error taxonomy (FrameDecoder):
//  * resynchronizable errors — unknown type, checksum mismatch: the
//    decoder skips the frame, reports one error event and keeps going;
//  * poisoning errors — bad magic, an oversized length, or any protocol
//    version but kProtocolVersion (whose header size this build cannot
//    know): the framing itself can no longer be trusted, so the stream is
//    poisoned (one error event, then silence). The service drops poisoned
//    connections; honest clients reconnect.
//
// v3 appends a trace context (trace id, parent span id, sampling flag) to
// the header: the wire leg of per-request distributed tracing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "hot/spatial.hpp"
#include "parc/message.hpp"
#include "util/vec3.hpp"

namespace hotlib::serve {

inline constexpr std::uint32_t kFrameMagic = 0x484F5453u;  // "STOH" LE
// v2: the checksum covers the header (checksum field zeroed) + payload, so
// single-bit header corruption (tenant, request_id, length) is caught instead
// of silently misrouting a frame.
// v3: a trace context (trace id + parent span + sampling flag) rides after
// the v2 header; the checksum covers it too.
// This is the only version the decoder accepts; any other poisons the stream.
inline constexpr std::uint16_t kProtocolVersion = 3;
// Largest payload a well-formed frame may carry. A header that claims more
// is treated as framing corruption (poisoning), not as a request.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 22;  // 4 MiB

enum class FrameType : std::uint16_t {
  kHello = 1,
  kHelloOk,
  kPointQuery,      // evaluate acc/pot at arbitrary positions
  kPointReply,
  kRegionQuery,     // bodies inside an axis-aligned box
  kRegionReply,
  kKnnQuery,        // k nearest bodies to a point
  kKnnReply,
  kSnapshotRequest, // stream the full particle state in chunks
  kSnapshotChunk,
  kSteer,           // adjust simulation parameters between steps
  kSteerOk,
  kStatsRequest,    // this tenant's serving statistics
  kStatsReply,
  kMetricsRequest,  // whole-service metrics scrape (counters, gauges,
                    // per-tenant percentiles, slow-query log)
  kMetricsReply,
  kError,
};
inline constexpr std::uint16_t kFrameTypeMin = 1;
inline constexpr std::uint16_t kFrameTypeMax =
    static_cast<std::uint16_t>(FrameType::kError);

// Trace-context flag bits (FrameHeader::trace_flags).
inline constexpr std::uint32_t kTraceFlagSampled = 1u;

// 56-byte wire header preceding every payload; the trace context is the v3
// extension.
struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;          // FrameType
  std::uint32_t tenant = 0;        // tenant id the frame belongs to
  std::uint32_t payload_bytes = 0;
  std::uint64_t request_id = 0;    // echoed in replies/errors
  std::uint64_t checksum = 0;      // FNV-1a 64 over header (field zeroed) + payload
  // ---- v3 trace context ----
  std::uint64_t trace_id = 0;      // 0 = unsampled / no trace
  std::uint64_t parent_span = 0;   // requester-side span the service nests under
  std::uint32_t trace_flags = 0;   // kTraceFlag* bits
  std::uint32_t pad = 0;
};
static_assert(sizeof(FrameHeader) == 56);
static_assert(offsetof(FrameHeader, payload_bytes) == 12);

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;

// Same FNV-1a 64 the reliable ABM layer uses to catch corruption. The seed
// parameter lets the hash chain across discontiguous ranges (header, then
// payload).
inline std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n,
                             std::uint64_t seed = kFnvOffsetBasis) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The frame checksum covers every header byte (with the checksum field
// zeroed) followed by the payload, so corruption anywhere in the frame —
// misrouting tenant/request_id flips included — fails validation.
inline std::uint64_t frame_checksum(FrameHeader h, const std::uint8_t* payload,
                                    std::size_t n) {
  h.checksum = 0;
  const std::uint64_t seed =
      fnv1a64(reinterpret_cast<const std::uint8_t*>(&h), sizeof(h));
  return fnv1a64(payload, n, seed);
}

struct Frame {
  FrameHeader header;
  parc::Bytes payload;

  FrameType type() const { return static_cast<FrameType>(header.type); }

  // Bounds-checked POD view of the payload head: nullopt when the payload is
  // too short for a T. The check lives here, not at call sites, because the
  // payload came off an untrusted byte stream.
  template <class T>
  std::optional<T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload.size() < sizeof(T)) return std::nullopt;
    T value{};
    std::memcpy(&value, payload.data(), sizeof(T));
    return value;
  }
};

// ---- payload PODs ----------------------------------------------------------

struct HelloPayload {
  std::uint32_t tenant = 0;
  std::uint32_t pad = 0;
};

struct HelloOkPayload {
  std::uint32_t nsims = 0;      // simulations this service hosts
  std::uint32_t protocol = kProtocolVersion;
};

// kPointQuery: header then `count` Vec3d positions.
struct PointQueryHeader {
  std::uint32_t sim = 0;
  std::uint32_t count = 0;
};

// kPointReply: header, then `count` Vec3d accelerations, then `count`
// double potentials.
struct PointReplyHeader {
  std::uint64_t step = 0;   // simulation step the reply was evaluated at
  std::uint32_t count = 0;
  std::uint32_t pad = 0;
};

struct RegionQueryPayload {
  std::uint32_t sim = 0;
  std::uint32_t max_results = 0;  // 0 = unlimited (subject to frame size)
  hot::Aabb box{};
};

// One particle on the wire (snapshot chunks and region replies).
struct ParticleRecord {
  std::uint64_t id = 0;
  double mass = 0.0;
  Vec3d pos{};
  Vec3d vel{};
};
static_assert(sizeof(ParticleRecord) == 64);

// kRegionReply: header then `count` ParticleRecords (Morton order).
struct RegionReplyHeader {
  std::uint64_t step = 0;
  std::uint32_t count = 0;          // records in this reply (after max_results)
  std::uint32_t total_matches = 0;  // bodies actually inside the box
};

struct KnnQueryPayload {
  std::uint32_t sim = 0;
  std::uint32_t k = 0;
  Vec3d point{};
};

struct NeighborRecord {
  std::uint64_t id = 0;
  double dist2 = 0.0;
  Vec3d pos{};
};

// kKnnReply: header then `count` NeighborRecords, ascending (dist2, id).
struct KnnReplyHeader {
  std::uint64_t step = 0;
  std::uint32_t count = 0;
  std::uint32_t pad = 0;
};

struct SnapshotRequestPayload {
  std::uint32_t sim = 0;
  std::uint32_t chunk_bodies = 0;  // records per chunk; 0 = service default
};

// kSnapshotChunk: header then `count` ParticleRecords. A snapshot is
// `nchunks` consecutive chunks sharing one request_id and step.
struct SnapshotChunkHeader {
  std::uint64_t step = 0;
  double time = 0.0;
  std::uint32_t index = 0;
  std::uint32_t nchunks = 0;
  std::uint32_t count = 0;
  std::uint32_t pad = 0;
};

// Steering: fields <= 0 leave the current value unchanged. Applied at the
// next step boundary, never mid-step.
struct SteerPayload {
  std::uint32_t sim = 0;
  std::uint32_t pad = 0;
  double dt = 0.0;
  double theta = 0.0;
  double softening = 0.0;
};

struct SteerOkPayload {
  std::uint64_t effective_step = 0;  // first step the new values apply to
  double dt = 0.0;
  double theta = 0.0;
  double softening = 0.0;
};

struct StatsReplyPayload {
  std::uint64_t queries = 0;     // admitted and executed
  std::uint64_t rejected = 0;    // refused by admission control
  std::uint64_t errors = 0;      // malformed frames attributed to this tenant
  std::uint64_t steps = 0;       // simulation 0's current step
  double p50_query_latency_us = 0.0;
  double p99_query_latency_us = 0.0;
  double max_query_latency_us = 0.0;
};

// ---- kMetricsRequest / kMetricsReply ---------------------------------------
//
// A metrics scrape snapshots the *whole service* — registry counters,
// health gauges, per-tenant latency percentiles and the slow-query log —
// into one versioned payload. Layout after the header: `ncounters`
// uint64 counter values (telemetry::Counter order), `ngauges` doubles
// (telemetry::Gauge order), `ntenants` TenantMetricsRecords, `nslow`
// SlowQueryRecords (worst first). The counts are carried on the wire, so a
// reader built against a different counter/gauge enum still walks the
// payload correctly and simply ignores slots it does not know.

inline constexpr std::uint32_t kMetricsSchemaVersion = 1;

struct MetricsReplyHeader {
  std::uint32_t schema = kMetricsSchemaVersion;
  std::uint32_t ncounters = 0;
  std::uint32_t ngauges = 0;
  std::uint32_t ntenants = 0;
  std::uint32_t nslow = 0;
  std::uint32_t pad = 0;
  std::uint64_t steps = 0;               // simulation 0's current step
  std::uint64_t queries_executed = 0;    // all tenants, lifetime
  std::uint64_t unattributed_errors = 0;
  double uptime_s = 0.0;                 // seconds since service construction
};

struct TenantMetricsRecord {
  std::uint32_t tenant = 0;
  std::uint32_t pad = 0;
  std::uint64_t queries = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  double p50_query_latency_us = 0.0;
  double p99_query_latency_us = 0.0;
  double max_query_latency_us = 0.0;
};

// One entry of a tenant's slow-query log: the K worst requests by total
// (admission-to-reply) latency, with enough context to reproduce the
// request — frame type, FNV digest of its payload, the trace id if it was
// sampled — and a per-phase breakdown (queue wait vs execution).
struct SlowQueryRecord {
  std::uint32_t tenant = 0;
  std::uint16_t type = 0;          // FrameType of the request
  std::uint16_t pad = 0;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;      // 0 when the request was not sampled
  std::uint64_t args_digest = 0;   // fnv1a64 over the request payload
  std::uint64_t step = 0;          // simulation step the query executed against
  std::uint64_t interactions = 0;  // paper-accounted interactions (point queries)
  std::uint64_t records = 0;       // records returned (region/knn/snapshot)
  double queue_us = 0.0;           // admission-queue wait
  double exec_us = 0.0;            // execution (walk + reply encode + send)
  double total_us = 0.0;           // queue_us + exec_us
};

enum class ErrorCode : std::uint32_t {
  kMalformedFrame = 1,  // undecodable / poisoned framing
  kBadChecksum,
  kBadVersion,
  kBadType,
  kBadRequest,          // payload shorter than its own header claims
  kUnknownSim,
  kBusy,                // admission queue full — retry later
};

struct ErrorPayload {
  std::uint32_t code = 0;    // ErrorCode
  std::uint32_t detail = 0;  // code-specific (e.g. the rejected frame type)
};

const char* error_code_name(ErrorCode c);

// ---- encode / decode -------------------------------------------------------

// Trace context to stamp on an outgoing frame: all-zero for unsampled
// traffic (the overwhelmingly common case under head-based sampling).
struct TraceWire {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  bool sampled = false;
};

// Assemble header + payload into one wire buffer (checksum filled in).
parc::Bytes encode_frame(FrameType type, std::uint32_t tenant,
                         std::uint64_t request_id,
                         std::span<const std::uint8_t> payload,
                         TraceWire trace = {});

// Typed-payload sugar: the POD `head` followed by optional trailing arrays.
// Constrained to trivially-copyable types so a parc::Bytes payload falls
// through to the span overload above instead of being memcpy'd as a vector.
template <class Head>
  requires std::is_trivially_copyable_v<Head>
parc::Bytes encode_frame(FrameType type, std::uint32_t tenant,
                         std::uint64_t request_id, const Head& head,
                         std::span<const std::uint8_t> tail = {},
                         TraceWire trace = {}) {
  parc::Bytes payload(sizeof(Head) + tail.size());
  std::memcpy(payload.data(), &head, sizeof(Head));
  if (!tail.empty()) std::memcpy(payload.data() + sizeof(Head), tail.data(), tail.size());
  return encode_frame(type, tenant, request_id, payload, trace);
}

enum class DecodeError : std::uint32_t {
  kNone = 0,
  kBadMagic,        // poisoning
  kOversized,       // poisoning
  kBadVersion,      // poisoning: another version's header layout is unknowable
  kBadType,
  kBadChecksum,
};

const char* decode_error_name(DecodeError e);

// Incremental decoder over an untrusted byte stream. feed() appends bytes;
// next() yields frames and error events in arrival order until the buffer
// runs dry. Once poisoned (framing no longer trustworthy) next() yields the
// single poisoning error and then nothing, ever.
class FrameDecoder {
 public:
  struct Event {
    bool ok = false;
    Frame frame;               // valid when ok
    DecodeError error = DecodeError::kNone;  // valid when !ok
    // Best-effort attribution for error replies, taken from the offending
    // header (zero when the header itself was unreadable).
    std::uint32_t tenant = 0;
    std::uint64_t request_id = 0;
  };

  void feed(std::span<const std::uint8_t> data);
  std::optional<Event> next();

  bool poisoned() const { return poisoned_; }
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  parc::Bytes buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
  bool poison_reported_ = false;
  DecodeError poison_error_ = DecodeError::kNone;

  void compact();
};

}  // namespace hotlib::serve
