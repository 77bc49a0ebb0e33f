// Tests for the serving layer: wire-protocol round-trips and the decode
// error taxonomy, protocol robustness against a FaultPlan-driven hostile
// byte stream (truncated / bit-flipped / reordered frames must produce
// clean per-client errors, never crashes or hangs), admission control and
// backpressure, and every query kind checked against its reference
// semantics on the published TreeState.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "gravity/evaluate.hpp"
#include "hot/spatial.hpp"
#include "parc/fault.hpp"
#include "serve/client.hpp"
#include "serve/introspect.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/tenant.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/trace.hpp"
#include "util/rng.hpp"

namespace hotlib::serve {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
bool same_bits(const Vec3d& a, const Vec3d& b) {
  return same_bits(a.x, b.x) && same_bits(a.y, b.y) && same_bits(a.z, b.z);
}

// ---- protocol --------------------------------------------------------------

TEST(Protocol, FrameRoundTripSurvivesArbitrarySplits) {
  SteerPayload steer;
  steer.sim = 3;
  steer.dt = 0.25;
  steer.theta = 0.7;
  const parc::Bytes wire = encode_frame(FrameType::kSteer, /*tenant=*/9,
                                        /*request_id=*/77, steer);
  ASSERT_EQ(wire.size(), sizeof(FrameHeader) + sizeof(SteerPayload));

  // Feed one byte at a time: the decoder must wait for a complete frame and
  // then produce exactly one event.
  FrameDecoder dec;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (i + 1 < wire.size()) {
      dec.feed(std::span<const std::uint8_t>(&wire[i], 1));
      ASSERT_FALSE(dec.next().has_value()) << "byte " << i;
    } else {
      dec.feed(std::span<const std::uint8_t>(&wire[i], 1));
    }
  }
  const auto ev = dec.next();
  ASSERT_TRUE(ev.has_value());
  ASSERT_TRUE(ev->ok);
  EXPECT_EQ(ev->frame.type(), FrameType::kSteer);
  EXPECT_EQ(ev->frame.header.tenant, 9u);
  EXPECT_EQ(ev->frame.header.request_id, 77u);
  const auto got = ev->frame.as<SteerPayload>();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->sim, 3u);
  EXPECT_EQ(got->dt, 0.25);
  EXPECT_EQ(got->theta, 0.7);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Protocol, PayloadBitFlipIsResynchronizableChecksumError) {
  HelloPayload hello{.tenant = 5, .pad = 0};
  parc::Bytes bad = encode_frame(FrameType::kHello, 5, 1, hello);
  bad[sizeof(FrameHeader)] ^= 0x10;  // flip one payload bit
  const parc::Bytes good = encode_frame(FrameType::kHello, 5, 2, hello);

  FrameDecoder dec;
  dec.feed(bad);
  dec.feed(good);
  const auto err = dec.next();
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->error, DecodeError::kBadChecksum);
  // Attribution comes from the (intact) header so the service can reply.
  EXPECT_EQ(err->tenant, 5u);
  EXPECT_EQ(err->request_id, 1u);
  // The stream resynchronizes: the next frame decodes normally.
  const auto ok = dec.next();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok);
  EXPECT_EQ(ok->frame.header.request_id, 2u);
  EXPECT_FALSE(dec.poisoned());
}

TEST(Protocol, HeaderBitFlipIsDetectedNotMisrouted) {
  // The checksum covers the header too: corrupting the tenant or request_id
  // must surface as kBadChecksum instead of silently misattributing the
  // frame. (Flips in magic/version/type/length hit their own validations.)
  HelloPayload hello{.tenant = 5, .pad = 0};
  for (const std::size_t off : {offsetof(FrameHeader, tenant),
                                offsetof(FrameHeader, request_id)}) {
    parc::Bytes wire = encode_frame(FrameType::kHello, 5, 21, hello);
    wire[off] ^= 0x01;
    FrameDecoder dec;
    dec.feed(wire);
    dec.feed(encode_frame(FrameType::kHello, 5, 22, hello));
    const auto err = dec.next();
    ASSERT_TRUE(err.has_value());
    EXPECT_FALSE(err->ok);
    EXPECT_EQ(err->error, DecodeError::kBadChecksum) << "offset " << off;
    // Still resynchronizable: the length field was intact.
    const auto ok = dec.next();
    ASSERT_TRUE(ok.has_value());
    EXPECT_TRUE(ok->ok);
    EXPECT_EQ(ok->frame.header.request_id, 22u);
    EXPECT_FALSE(dec.poisoned());
  }
}

TEST(Protocol, FrameAsRejectsShortPayloads) {
  // as<T>() enforces the bounds check itself — a payload shorter than T is
  // nullopt, never an out-of-bounds read.
  Frame f;
  f.payload.assign(sizeof(SteerPayload) - 1, 0);
  EXPECT_FALSE(f.as<SteerPayload>().has_value());
  f.payload.assign(sizeof(SteerPayload), 0);
  EXPECT_TRUE(f.as<SteerPayload>().has_value());
}

TEST(Protocol, BadTypeIsResynchronizable) {
  HelloPayload hello{.tenant = 1, .pad = 0};
  parc::Bytes wire = encode_frame(FrameType::kHello, 1, 3, hello);
  FrameHeader h;
  std::memcpy(&h, wire.data(), sizeof(h));
  h.type = 0;  // below kFrameTypeMin
  std::memcpy(wire.data(), &h, sizeof(h));

  FrameDecoder dec;
  dec.feed(wire);
  dec.feed(encode_frame(FrameType::kHello, 1, 4, hello));
  const auto err = dec.next();
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->error, DecodeError::kBadType);
  const auto ok = dec.next();
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->ok);
  EXPECT_FALSE(dec.poisoned());
}

TEST(Protocol, FutureVersionPoisonsTheStream) {
  // Any version but the current one — older or newer — means the header
  // length is unknowable, so resynchronization is impossible: one typed
  // event, then the stream dies.
  for (const std::uint16_t ver : {1, 2, 42}) {
    HelloPayload hello{.tenant = 1, .pad = 0};
    parc::Bytes wire = encode_frame(FrameType::kHello, 1, 3, hello);
    FrameHeader h;
    std::memcpy(&h, wire.data(), sizeof(h));
    h.version = ver;
    std::memcpy(wire.data(), &h, sizeof(h));

    FrameDecoder dec;
    dec.feed(wire);
    const auto err = dec.next();
    ASSERT_TRUE(err.has_value()) << "version " << ver;
    EXPECT_FALSE(err->ok);
    EXPECT_EQ(err->error, DecodeError::kBadVersion);
    EXPECT_EQ(err->tenant, 1u);  // magic was intact, so attribution works
    EXPECT_EQ(err->request_id, 3u);
    EXPECT_TRUE(dec.poisoned());
    dec.feed(encode_frame(FrameType::kHello, 1, 4, hello));
    EXPECT_FALSE(dec.next().has_value());
  }
}

TEST(Protocol, TraceContextRoundTripsOnTheWireAndIsChecksummed) {
  HelloPayload hello{.tenant = 2, .pad = 0};
  TraceWire tw;
  tw.trace_id = 0xabcdef0123456789ull;
  tw.parent_span = 0x42;
  tw.sampled = true;
  const parc::Bytes wire = encode_frame(FrameType::kHello, 2, 5, hello, {}, tw);

  FrameDecoder dec;
  dec.feed(wire);
  const auto ev = dec.next();
  ASSERT_TRUE(ev.has_value());
  ASSERT_TRUE(ev->ok);
  EXPECT_EQ(ev->frame.header.trace_id, tw.trace_id);
  EXPECT_EQ(ev->frame.header.parent_span, tw.parent_span);
  EXPECT_EQ(ev->frame.header.trace_flags & kTraceFlagSampled, kTraceFlagSampled);

  // An untraced frame carries all-zero trace fields.
  dec.feed(encode_frame(FrameType::kHello, 2, 6, hello));
  const auto plain = dec.next();
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(plain->ok);
  EXPECT_EQ(plain->frame.header.trace_id, 0u);
  EXPECT_EQ(plain->frame.header.trace_flags, 0u);

  // The checksum covers the trace extension: flipping a trace_id bit is a
  // detected (and resynchronizable) corruption, not a silently altered trace.
  parc::Bytes bad = encode_frame(FrameType::kHello, 2, 7, hello, {}, tw);
  bad[offsetof(FrameHeader, trace_id)] ^= 0x01;
  dec.feed(bad);
  const auto err = dec.next();
  ASSERT_TRUE(err.has_value());
  EXPECT_FALSE(err->ok);
  EXPECT_EQ(err->error, DecodeError::kBadChecksum);
  EXPECT_FALSE(dec.poisoned());
}

TEST(Protocol, BadMagicAndOversizedPoisonTheStream) {
  for (const bool oversized : {false, true}) {
    HelloPayload hello{.tenant = 1, .pad = 0};
    parc::Bytes wire = encode_frame(FrameType::kHello, 1, 9, hello);
    FrameHeader h;
    std::memcpy(&h, wire.data(), sizeof(h));
    if (oversized) h.payload_bytes = static_cast<std::uint32_t>(kMaxFramePayload + 1);
    else h.magic = 0xdeadbeef;
    std::memcpy(wire.data(), &h, sizeof(h));

    FrameDecoder dec;
    dec.feed(wire);
    const auto err = dec.next();
    ASSERT_TRUE(err.has_value());
    EXPECT_FALSE(err->ok);
    EXPECT_EQ(err->error,
              oversized ? DecodeError::kOversized : DecodeError::kBadMagic);
    EXPECT_TRUE(dec.poisoned());
    // Exactly one event, then silence forever — even with more bytes fed.
    EXPECT_FALSE(dec.next().has_value());
    dec.feed(encode_frame(FrameType::kHello, 1, 10, hello));
    EXPECT_FALSE(dec.next().has_value());
  }
}

// ---- queries against a live service ---------------------------------------

SimulationService::Config small_service(std::size_t nbodies = 192,
                                        std::size_t nsims = 2) {
  SimulationService::Config cfg;
  cfg.auto_step = false;  // quiesced: tests control stepping explicitly
  for (std::size_t s = 0; s < nsims; ++s) {
    SimInstance::Config sc;
    sc.seed = 31 + s;
    sc.nbodies = nbodies;
    cfg.sims.push_back(sc);
  }
  return cfg;
}

TEST(Serve, HelloReportsSimsAndProtocol) {
  SimulationService svc(small_service());
  svc.start();
  Client cl(svc, 7);
  const auto ok = cl.hello();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->nsims, 2u);
  EXPECT_EQ(ok->protocol, kProtocolVersion);
  svc.stop();
}

TEST(Serve, PointQueryIsBitExactToEvaluateAtOnPublishedState) {
  SimulationService svc(small_service());
  svc.start();
  for (int s = 0; s < 3; ++s) svc.step_all();

  Client cl(svc, 1);
  ASSERT_TRUE(cl.hello().has_value());
  Xoshiro256ss rng(99);
  std::vector<Vec3d> pts(17);
  for (auto& p : pts) p = rng.in_sphere(1.5);

  const auto res = cl.point_query(0, pts);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->step, 3u);
  ASSERT_EQ(res->acc.size(), pts.size());

  const std::shared_ptr<const TreeState> st = svc.sim(0).state();
  std::vector<Vec3d> want_acc(pts.size());
  std::vector<double> want_pot(pts.size());
  gravity::evaluate_at(st->tree, st->pos, st->mass, st->fcfg, pts, want_acc,
                       want_pot);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(same_bits(res->acc[i], want_acc[i])) << i;
    EXPECT_TRUE(same_bits(res->pot[i], want_pot[i])) << i;
  }
  svc.stop();
}

TEST(Serve, RegionQueryMatchesBruteForceFilter) {
  SimulationService svc(small_service());
  svc.start();
  svc.step_all();
  Client cl(svc, 1);
  ASSERT_TRUE(cl.hello().has_value());

  const hot::Aabb box{{-0.4, -0.3, -0.5}, {0.5, 0.4, 0.2}};
  const auto res = cl.region_query(1, box);
  ASSERT_TRUE(res.has_value());

  const std::shared_ptr<const TreeState> st = svc.sim(1).state();
  std::vector<std::uint64_t> want;
  for (std::size_t i = 0; i < st->pos.size(); ++i)
    if (box.contains(st->pos[i])) want.push_back(st->id[i]);
  ASSERT_GT(want.size(), 0u) << "degenerate test box";
  EXPECT_EQ(res->total_matches, want.size());
  ASSERT_EQ(res->particles.size(), want.size());
  std::vector<std::uint64_t> got;
  for (const ParticleRecord& r : res->particles) {
    got.push_back(r.id);
    EXPECT_TRUE(box.contains(r.pos));
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);

  // max_results truncates the records but reports the full match count.
  const auto capped = cl.region_query(1, box, 3);
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->total_matches, want.size());
  EXPECT_EQ(capped->particles.size(), 3u);
  svc.stop();
}

TEST(Serve, KnnQueryMatchesBruteForceSort) {
  SimulationService svc(small_service());
  svc.start();
  svc.step_all();
  Client cl(svc, 1);
  ASSERT_TRUE(cl.hello().has_value());

  const Vec3d q{0.2, -0.1, 0.3};
  const auto res = cl.knn_query(0, q, 12);
  ASSERT_TRUE(res.has_value());
  ASSERT_EQ(res->neighbors.size(), 12u);

  const std::shared_ptr<const TreeState> st = svc.sim(0).state();
  std::vector<std::pair<double, std::uint64_t>> want;
  for (std::size_t i = 0; i < st->pos.size(); ++i)
    want.emplace_back(norm2(st->pos[i] - q), st->id[i]);
  std::sort(want.begin(), want.end());
  for (std::size_t i = 0; i < res->neighbors.size(); ++i) {
    EXPECT_EQ(res->neighbors[i].id, want[i].second) << i;
    EXPECT_TRUE(same_bits(res->neighbors[i].dist2, want[i].first)) << i;
  }
  // Ascending distance on the wire.
  for (std::size_t i = 1; i < res->neighbors.size(); ++i)
    EXPECT_LE(res->neighbors[i - 1].dist2, res->neighbors[i].dist2);
  svc.stop();
}

TEST(Serve, EmptyQueriesAndSnapshotsGetWellFormedEmptyReplies) {
  // Zero points, k = 0 and a sim without bodies are valid: both sides skip
  // the zero-length copies (scripts/ubsan.sh aborts on a null memcpy
  // argument).
  SimulationService::Config cfg = small_service();
  cfg.sims[1].nbodies = 0;
  SimulationService svc(std::move(cfg));
  svc.start();
  svc.step_all();
  svc.step_all();
  Client cl(svc, 1);
  ASSERT_TRUE(cl.hello().has_value());

  const auto point = cl.point_query(0, {});
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->step, 2u);
  EXPECT_TRUE(point->acc.empty());
  EXPECT_TRUE(point->pot.empty());

  const auto knn = cl.knn_query(0, {0.1, 0.2, 0.3}, 0);
  ASSERT_TRUE(knn.has_value());
  EXPECT_EQ(knn->step, 2u);
  EXPECT_TRUE(knn->neighbors.empty());

  const auto snap = cl.snapshot(1, 0);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->step, 2u);
  EXPECT_TRUE(snap->particles.empty());
  svc.stop();
}

TEST(Serve, SnapshotStreamsEveryParticleAcrossChunks) {
  SimulationService svc(small_service(/*nbodies=*/200));
  svc.start();
  svc.step_all();
  svc.step_all();
  Client cl(svc, 1);
  ASSERT_TRUE(cl.hello().has_value());

  const auto snap = cl.snapshot(0, /*chunk_bodies=*/32);  // 7 chunks of 200
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->step, 2u);
  ASSERT_EQ(snap->particles.size(), 200u);
  std::vector<std::uint64_t> ids;
  for (const ParticleRecord& r : snap->particles) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);

  // The stream must be chunked yet internally consistent with the state.
  const std::shared_ptr<const TreeState> st = svc.sim(0).state();
  for (const ParticleRecord& r : snap->particles) {
    const std::size_t i = static_cast<std::size_t>(
        std::find(st->id.begin(), st->id.end(), r.id) - st->id.begin());
    ASSERT_LT(i, st->id.size());
    EXPECT_TRUE(same_bits(r.pos, st->pos[i]));
    EXPECT_TRUE(same_bits(r.vel, st->vel[i]));
  }
  svc.stop();
}

TEST(Serve, SteerAppliesAtTheNextStepBoundary) {
  SimulationService svc(small_service());
  svc.start();
  svc.step_all();
  Client cl(svc, 1);
  ASSERT_TRUE(cl.hello().has_value());

  const auto ok = cl.steer(0, /*dt=*/5e-4, /*theta=*/0.4, /*softening=*/0.0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->effective_step, 2u);
  EXPECT_EQ(ok->dt, 5e-4);
  EXPECT_EQ(ok->theta, 0.4);
  EXPECT_EQ(ok->softening, 0.02);  // <= 0 keeps the configured value

  // The published state still reflects the old parameters until a step runs.
  EXPECT_EQ(svc.sim(0).state()->fcfg.mac.theta, 0.6);
  svc.step_all();
  const std::shared_ptr<const TreeState> st = svc.sim(0).state();
  EXPECT_EQ(st->step, 2u);
  EXPECT_EQ(st->fcfg.mac.theta, 0.4);
  svc.stop();
}

TEST(Serve, UnknownSimAndMalformedRequestsGetTypedErrors) {
  SimulationService svc(small_service());
  svc.start();
  Client cl(svc, 4);
  ASSERT_TRUE(cl.hello().has_value());

  // Unknown simulation index.
  EXPECT_FALSE(cl.knn_query(99, {0, 0, 0}, 4).has_value());
  EXPECT_EQ(cl.last_error().code, static_cast<std::uint32_t>(ErrorCode::kUnknownSim));

  // A structurally valid frame whose payload lies about its point count.
  PointQueryHeader head;
  head.sim = 0;
  head.count = 50;  // but no point data follows
  const std::uint64_t rid = cl.next_request_id();
  ASSERT_TRUE(cl.send_raw(encode_frame(FrameType::kPointQuery, cl.tenant(), rid, head)));
  auto reply = cl.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type(), FrameType::kError);
  EXPECT_EQ(reply->header.request_id, rid);
  EXPECT_EQ(reply->as<ErrorPayload>()->code,
            static_cast<std::uint32_t>(ErrorCode::kBadRequest));

  // A reply-only frame type sent by a client is a bad request too.
  const std::uint64_t rid2 = cl.next_request_id();
  HelloOkPayload bogus;
  ASSERT_TRUE(cl.send_raw(encode_frame(FrameType::kHelloOk, cl.tenant(), rid2, bogus)));
  reply = cl.read_frame();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type(), FrameType::kError);
  EXPECT_EQ(reply->as<ErrorPayload>()->code,
            static_cast<std::uint32_t>(ErrorCode::kBadRequest));

  svc.stop();
  // The kHelloOk frame is a protocol violation → errors counter. The two
  // bad queries were structurally admissible, so they were admitted,
  // executed, and answered with typed errors — they count as queries.
  EXPECT_EQ(svc.tenant_stats(4).errors, 1u);
  EXPECT_EQ(svc.tenant_stats(4).queries, 2u);
  EXPECT_EQ(svc.tenant_stats(4).rejected, 0u);
}

TEST(Serve, AdmissionRefusesBurstsBeyondTheQueueWithBusy) {
  SimulationService::Config cfg = small_service(/*nbodies=*/64);
  cfg.max_queue_per_tenant = 8;
  SimulationService svc(std::move(cfg));

  // Pre-load a burst before the pump starts: hello + 13 region queries land
  // in one drain, so admission sees the whole burst back-to-back and the
  // outcome is deterministic — 8 admitted, 5 refused with kBusy.
  std::shared_ptr<Connection> conn = svc.connect();
  HelloPayload hello{.tenant = 2, .pad = 0};
  ASSERT_TRUE(conn->to_server.write(encode_frame(FrameType::kHello, 2, 1, hello)));
  RegionQueryPayload query;
  query.sim = 0;
  query.box = hot::Aabb{{-2, -2, -2}, {2, 2, 2}};
  for (std::uint64_t i = 0; i < 13; ++i)
    ASSERT_TRUE(conn->to_server.write(
        encode_frame(FrameType::kRegionQuery, 2, 100 + i, query)));

  svc.start();
  FrameDecoder dec;
  std::size_t replies = 0, busy = 0, hellos = 0;
  parc::Bytes chunk;
  while (hellos + replies + busy < 14) {
    chunk.clear();
    ASSERT_GT(conn->to_client.read_some(chunk, 1 << 16), 0u) << "stream closed early";
    dec.feed(chunk);
    while (const auto ev = dec.next()) {
      ASSERT_TRUE(ev->ok);
      if (ev->frame.type() == FrameType::kHelloOk) ++hellos;
      else if (ev->frame.type() == FrameType::kRegionReply) ++replies;
      else if (ev->frame.type() == FrameType::kError) {
        EXPECT_EQ(ev->frame.as<ErrorPayload>()->code,
                  static_cast<std::uint32_t>(ErrorCode::kBusy));
        ++busy;
      }
    }
  }
  EXPECT_EQ(hellos, 1u);
  EXPECT_EQ(replies, 8u);
  EXPECT_EQ(busy, 5u);
  svc.stop();
  EXPECT_EQ(svc.tenant_stats(2).queries, 8u);
  EXPECT_EQ(svc.tenant_stats(2).rejected, 5u);
  conn->close();
}

TEST(Serve, BackpressuredSnapshotCompletesOverTinyOutboundBuffer) {
  // Outbound buffer far smaller than the snapshot: the pump blocks in
  // write() and resumes as the client drains — backpressure, not deadlock
  // and not unbounded buffering.
  SimulationService::Config cfg = small_service(/*nbodies=*/256, /*nsims=*/1);
  cfg.outbound_buffer_bytes = 1024;
  SimulationService svc(std::move(cfg));
  svc.start();
  Client cl(svc, 1);
  ASSERT_TRUE(cl.hello().has_value());
  const auto snap = cl.snapshot(0, /*chunk_bodies=*/16);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->particles.size(), 256u);
  svc.stop();
}

TEST(Serve, StalledReaderIsDroppedWithoutWedgingThePump) {
  // A client that requests a snapshot far larger than its outbound buffer
  // and then never reads must not wedge the single pump thread: after the
  // send grace elapses with no progress the connection is dropped, other
  // tenants keep being served, and stop() terminates.
  SimulationService::Config cfg = small_service(/*nbodies=*/256, /*nsims=*/1);
  cfg.outbound_buffer_bytes = 1024;
  cfg.send_grace = std::chrono::milliseconds(20);
  SimulationService svc(std::move(cfg));
  svc.start();

  std::shared_ptr<Connection> stalled = svc.connect();
  HelloPayload hello{.tenant = 3, .pad = 0};
  ASSERT_TRUE(stalled->to_server.write(encode_frame(FrameType::kHello, 3, 1, hello)));
  SnapshotRequestPayload req;
  req.sim = 0;
  req.chunk_bodies = 16;
  ASSERT_TRUE(stalled->to_server.write(
      encode_frame(FrameType::kSnapshotRequest, 3, 2, req)));
  // ... and never read a byte of the reply stream.

  // A healthy tenant on its own connection stays fully served while the
  // stalled one times out.
  Client healthy(svc, 4);
  ASSERT_TRUE(healthy.hello().has_value());
  for (int i = 0; i < 5; ++i) {
    const auto res = healthy.knn_query(0, {0.1 * i, 0, 0}, 3);
    ASSERT_TRUE(res.has_value()) << i;
  }

  // The stalled connection is eventually closed by the service.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!stalled->to_client.closed() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(stalled->to_client.closed());

  // And shutdown does not deadlock on the wedged reply buffer.
  svc.stop();
}

TEST(Serve, MalformedFramesDoNotMaterializeTenants) {
  // A hostile client cycling the tenant field of corrupted frames must not
  // grow the tenant map: errors from ids that never said kHello land in the
  // global unattributed counter instead of materializing sessions.
  SimulationService svc(small_service(/*nbodies=*/64, /*nsims=*/1));
  svc.start();
  Client cl(svc, 1);
  ASSERT_TRUE(cl.hello().has_value());

  HelloPayload hello{.tenant = 1, .pad = 0};
  constexpr std::size_t kIds = 50;
  for (std::uint32_t id = 1000; id < 1000 + kIds; ++id) {
    parc::Bytes wire = encode_frame(FrameType::kHello, id, id, hello);
    wire[sizeof(FrameHeader)] ^= 0x20;  // payload flip → kBadChecksum
    ASSERT_TRUE(cl.send_raw(wire));
    const auto reply = cl.read_frame();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type(), FrameType::kError);
  }
  svc.stop();
  EXPECT_EQ(svc.tenants().size(), 1u);  // only the hello'd tenant exists
  EXPECT_EQ(svc.unattributed_errors(), kIds);
  EXPECT_EQ(svc.tenant_stats(1).errors, 0u);
}

// ---- protocol robustness under a hostile transport -------------------------

// Drive the service's decoder with a FaultPlan-corrupted frame stream: the
// same deterministic fault oracle the parc fabric uses decides which frames
// are bit-flipped (reusing the duplicate draw), reordered, dropped or
// truncated. Every corruption must surface as a clean per-client kError (or
// a dropped connection for framing corruption) — never a crash or a hang —
// and an untouched tenant on the same service must stay fully served.
TEST(Serve, FaultPlanCorruptedStreamYieldsCleanErrorsNeverHangs) {
  // Queue deep enough that the whole corrupted burst is admitted: this test
  // pins down the decode taxonomy, so kBusy must never enter the picture.
  SimulationService::Config cfg = small_service(/*nbodies=*/96);
  cfg.max_queue_per_tenant = 512;
  SimulationService svc(std::move(cfg));
  svc.start();

  Client cl(svc, 6);
  ASSERT_TRUE(cl.hello().has_value());

  KnnQueryPayload query;
  query.sim = 0;
  query.k = 4;
  query.point = Vec3d{0.1, 0.2, -0.1};
  const auto make_wire = [&] {
    return encode_frame(FrameType::kKnnQuery, cl.tenant(), cl.next_request_id(),
                        query);
  };

  // Phase 1 — payload corruption only: the framing stays intact, so every
  // delivered frame produces exactly one event (kKnnReply when clean,
  // kError/kBadChecksum when flipped) and the stream survives.
  parc::FaultPlan plan;
  plan.seed = 20260810;
  plan.duplicate_prob = 0.15;  // repurposed: flip one payload bit
  plan.reorder_prob = 0.15;    // swap with the next delivered frame
  plan.drop_prob = 0.08;
  plan.include_user_tags = true;

  std::size_t delivered = 0, flipped = 0, dropped = 0, reordered = 0;
  parc::Bytes pending;  // frame held back by a reorder draw
  for (std::uint64_t i = 0; i < 300; ++i) {
    parc::Bytes wire = make_wire();
    const parc::FaultDraw draw = plan.draw(0, 1, i, wire.size());
    if (draw.drop) {
      ++dropped;  // the client simply never sends this one
      continue;
    }
    if (draw.duplicate) {
      wire[sizeof(FrameHeader) + (i % sizeof(KnnQueryPayload))] ^= 0x04;
      ++flipped;
    }
    if (draw.reorder && pending.empty()) {
      pending = std::move(wire);  // hold back; ships after the next frame
      ++reordered;
      continue;
    }
    ASSERT_TRUE(cl.send_raw(wire));
    ++delivered;
    if (!pending.empty()) {
      ASSERT_TRUE(cl.send_raw(pending));
      pending.clear();
      ++delivered;
    }
  }
  if (!pending.empty()) {
    ASSERT_TRUE(cl.send_raw(pending));
    pending.clear();
    ++delivered;
  }
  ASSERT_GT(flipped, 0u);
  ASSERT_GT(dropped, 0u);
  ASSERT_GT(reordered, 0u);

  std::size_t replies = 0, errors = 0;
  while (replies + errors < delivered) {
    const auto f = cl.read_frame();
    ASSERT_TRUE(f.has_value()) << "stream died during recoverable corruption";
    if (f->type() == FrameType::kKnnReply) {
      ++replies;
    } else {
      ASSERT_EQ(f->type(), FrameType::kError);
      EXPECT_EQ(f->as<ErrorPayload>()->code,
                static_cast<std::uint32_t>(ErrorCode::kBadChecksum));
      ++errors;
    }
  }
  EXPECT_EQ(errors, flipped);
  EXPECT_EQ(replies, delivered - flipped);

  // Phase 2 — framing corruption: truncate a frame mid-stream, then keep
  // talking. The bytes after the cut are decoded at a misaligned offset, so
  // the service answers what it can, poisons or drains, and drops the
  // connection — cleanly, with no crash and no hang.
  parc::FaultPlan cut;
  cut.seed = 777;
  cut.truncate_prob = 1.0;
  cut.include_user_tags = true;
  parc::Bytes wire = make_wire();
  const parc::FaultDraw draw = cut.draw(0, 1, 0, wire.size());
  ASSERT_TRUE(draw.truncated);
  wire.resize(1 + draw.truncate_to % (wire.size() - 1));
  ASSERT_TRUE(cl.send_raw(wire));
  for (int i = 0; i < 8; ++i) cl.send_raw(make_wire());
  cl.connection().to_server.close();  // client hangs up after the garbage

  // Whatever arrives now must still be well-formed frames; the stream must
  // terminate (read_frame eventually returns nullopt) rather than hang.
  std::size_t tail_events = 0;
  while (const auto f = cl.read_frame()) {
    EXPECT_TRUE(f->type() == FrameType::kKnnReply || f->type() == FrameType::kError);
    ++tail_events;
  }
  EXPECT_LE(tail_events, 9u);

  // The hostile tenant never takes the service down: a fresh client on a
  // fresh connection is served normally, and the damage is visible in the
  // hostile tenant's error counter.
  Client healthy(svc, 8);
  ASSERT_TRUE(healthy.hello().has_value());
  const auto res = healthy.knn_query(0, {0, 0, 0}, 3);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->neighbors.size(), 3u);
  svc.stop();
  EXPECT_GE(svc.tenant_stats(6).errors, flipped);
}

// ---- tenant telemetry ------------------------------------------------------

TEST(TenantSession, NearestRankPercentilesAndCounts) {
  using telemetry::LatencyHistogram;
  TenantSession s;
  for (int i = 1; i <= 100; ++i) s.record_query(static_cast<double>(i));
  s.record_rejected();
  s.record_error();
  // Histogram percentiles: never below the exact nearest-rank value (50 and
  // 99 here) and at most one bucket above it.
  for (const auto& [p, exact] : {std::pair{50.0, 50.0}, std::pair{99.0, 99.0}}) {
    const double got = s.percentile(p);
    EXPECT_GE(got, exact) << "p" << p;
    EXPECT_LE(LatencyHistogram::bucket_of(got) - LatencyHistogram::bucket_of(exact), 1)
        << "p" << p;
  }
  const StatsReplyPayload st = s.snapshot(/*steps=*/7);
  EXPECT_EQ(st.queries, 100u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.errors, 1u);
  EXPECT_EQ(st.steps, 7u);
  EXPECT_DOUBLE_EQ(st.max_query_latency_us, 100.0);
  EXPECT_DOUBLE_EQ(st.p50_query_latency_us, s.percentile(50));
  EXPECT_DOUBLE_EQ(st.p99_query_latency_us, s.percentile(99));
}

TEST(TenantSession, FixedMemoryKeepsTailAndMax) {
  // The latency store is a fixed array: three quarters of a million
  // recordings allocate nothing, the spike survives exactly in max, and p50
  // stays in the bucket of the bulk.
  TenantSession s;
  const std::size_t n = std::size_t{3} << 18;
  const std::uint64_t live0 = telemetry::mem_live_bytes();
  for (std::size_t i = 0; i < n; ++i) s.record_query(1.0);
  s.record_query(5000.0);
  EXPECT_EQ(telemetry::mem_live_bytes(), live0);
  const StatsReplyPayload st = s.snapshot(0);
  EXPECT_EQ(st.queries, n + 1);
  EXPECT_DOUBLE_EQ(st.max_query_latency_us, 5000.0);
  EXPECT_GE(st.p50_query_latency_us, 1.0);
  EXPECT_LE(telemetry::LatencyHistogram::bucket_of(st.p50_query_latency_us) -
                telemetry::LatencyHistogram::bucket_of(1.0),
            1);
}

TEST(TenantSession, SlowRingConvergesOnTrueWorstK) {
  static_assert(TenantSession::kSlowLogDepth == 8);
  TenantSession s;
  const auto rec = [](std::uint64_t id, double us) {
    SlowQueryRecord r;
    r.request_id = id;
    r.total_us = us;
    return r;
  };
  // Below capacity everything enters, in arrival order.
  for (double us : {10.0, 40.0, 20.0, 30.0, 80.0, 60.0, 50.0, 70.0})
    s.record_slow(rec(0, us));
  // A newcomer slower than the current minimum evicts exactly that minimum…
  s.record_slow(rec(1, 25.0));  // evicts 10
  // …an equal-or-faster one leaves the ring untouched.
  s.record_slow(rec(2, 20.0));
  s.record_slow(rec(3, 5.0));
  const std::vector<SlowQueryRecord> worst = s.slow_queries();
  ASSERT_EQ(worst.size(), 8u);
  const double expect[] = {80.0, 70.0, 60.0, 50.0, 40.0, 30.0, 25.0, 20.0};
  for (std::size_t k = 0; k < 8; ++k)  // worst first
    EXPECT_DOUBLE_EQ(worst[k].total_us, expect[k]) << k;
  EXPECT_EQ(worst[6].request_id, 1u);  // the 25 µs newcomer, not the 20 µs one
}

// ---- live introspection ----------------------------------------------------

TEST(Serve, MetricsScrapeReportsServiceAndTenantState) {
  SimulationService svc(small_service());
  svc.start();
  svc.step_all();
  Client cl(svc, 3);
  ASSERT_TRUE(cl.hello().has_value());
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(cl.knn_query(0, {0.05 * i, 0.0, 0.0}, 4).has_value());

  const auto m = cl.metrics();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->head.schema, kMetricsSchemaVersion);
  EXPECT_EQ(m->head.queries_executed, 6u);
  EXPECT_EQ(m->head.unattributed_errors, 0u);
  EXPECT_GE(m->head.steps, 1u);
  EXPECT_GT(m->head.uptime_s, 0.0);

  ASSERT_EQ(m->tenants.size(), 1u);
  EXPECT_EQ(m->tenants[0].tenant, 3u);
  EXPECT_EQ(m->tenants[0].queries, 6u);
  EXPECT_EQ(m->tenants[0].errors, 0u);
  EXPECT_GT(m->tenants[0].max_query_latency_us, 0.0);
  EXPECT_LE(m->tenants[0].p50_query_latency_us,
            m->tenants[0].max_query_latency_us);

  // Six queries against a depth-8 ring: all of them are in the slow log,
  // worst first, each with a reproducible shape.
  ASSERT_EQ(m->slow.size(), 6u);
  for (std::size_t i = 0; i < m->slow.size(); ++i) {
    const SlowQueryRecord& s = m->slow[i];
    EXPECT_EQ(s.tenant, 3u);
    EXPECT_EQ(s.type, static_cast<std::uint16_t>(FrameType::kKnnQuery));
    EXPECT_NE(s.args_digest, 0u);
    EXPECT_EQ(s.records, 4u);
    EXPECT_NEAR(s.total_us, s.queue_us + s.exec_us, 1e-6);
    if (i > 0) {
      EXPECT_LE(s.total_us, m->slow[i - 1].total_us);
    }
  }

  // The scrape is a control-plane request: it does not count as a query.
  const auto again = cl.metrics();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->head.queries_executed, 6u);
  svc.stop();
}

TEST(Serve, SampledRequestsFormOneSpanTreeAcrossThreads) {
  // At sample rate 1.0 every client request must yield exactly one causally
  // linked span tree: one root (the client_request span), every other
  // tagged event reachable through parent_span links — across the client
  // thread, the pump thread, and any task-pool workers.
  telemetry::set_enabled(true);
  telemetry::Registry::instance().reset();
  ASSERT_NE(telemetry::attach_rank(0), nullptr);

  std::uint64_t last_trace = 0;
  {
    SimulationService svc(small_service());
    svc.start();
    svc.step_all();
    Client cl(svc, 2);
    cl.enable_tracing(1.0);
    ASSERT_TRUE(cl.hello().has_value());
    Xoshiro256ss rng(7);
    std::vector<Vec3d> pts(8);
    for (auto& p : pts) p = rng.in_sphere(1.0);
    ASSERT_TRUE(cl.point_query(0, pts).has_value());
    ASSERT_TRUE(cl.knn_query(0, {0.1, 0.2, 0.3}, 5).has_value());
    const hot::Aabb box{{-1, -1, -1}, {1, 1, 1}};
    ASSERT_TRUE(cl.region_query(0, box, 16).has_value());
    ASSERT_TRUE(cl.snapshot(0).has_value());
    last_trace = cl.last_trace_id();
    EXPECT_NE(last_trace, 0u);
    svc.stop();
  }

  // Channels survive detach until the registry resets, so every thread's
  // events are still readable here.
  std::map<std::uint64_t, std::vector<telemetry::TraceEvent>> traces;
  for (const telemetry::RankChannel* ch : telemetry::Registry::instance().channels())
    for (const telemetry::TraceEvent& e : ch->events())
      if (e.trace_id != 0) traces[e.trace_id].push_back(e);

  // hello + 4 queries, all sampled: five distinct traces.
  EXPECT_EQ(traces.size(), 5u);
  EXPECT_TRUE(traces.count(last_trace));
  for (const auto& [tid, events] : traces) {
    std::set<std::uint64_t> spans;
    std::size_t roots = 0, client = 0, dispatch = 0;
    for (const telemetry::TraceEvent& e : events) {
      if (e.span_id != 0) spans.insert(e.span_id);
      if (e.parent_span == 0) ++roots;
      if (std::string_view(e.name) == "client_request") ++client;
      if (std::string_view(e.name) == "serve_dispatch") ++dispatch;
    }
    EXPECT_EQ(roots, 1u) << "trace " << tid;
    EXPECT_EQ(client, 1u) << "trace " << tid;
    EXPECT_EQ(dispatch, 1u) << "trace " << tid;
    for (const telemetry::TraceEvent& e : events) {
      if (e.parent_span != 0) {
        EXPECT_TRUE(spans.count(e.parent_span))
            << "orphan span in trace " << tid << ": " << e.name;
      }
    }
  }

  telemetry::detach_rank();
  telemetry::set_enabled(false);
  telemetry::Registry::instance().reset();
}

TEST(Serve, ServiceHeadSamplingPromotesUnsampledRequests) {
  // With the client not tracing at all, a service configured at rate 1.0
  // must promote every request into a fresh trace of its own — rooted at
  // the service, since the client never opened a span.
  telemetry::set_enabled(true);
  telemetry::Registry::instance().reset();

  {
    SimulationService::Config cfg = small_service();
    cfg.trace_sample_rate = 1.0;
    SimulationService svc(std::move(cfg));
    svc.start();
    svc.step_all();
    Client cl(svc, 4);
    ASSERT_TRUE(cl.hello().has_value());
    ASSERT_TRUE(cl.knn_query(0, {0.2, 0.0, 0.1}, 3).has_value());
    ASSERT_TRUE(cl.knn_query(0, {0.0, 0.3, 0.0}, 3).has_value());
    svc.stop();
  }

  std::map<std::uint64_t, std::vector<telemetry::TraceEvent>> traces;
  for (const telemetry::RankChannel* ch : telemetry::Registry::instance().channels())
    for (const telemetry::TraceEvent& e : ch->events())
      if (e.trace_id != 0) traces[e.trace_id].push_back(e);

  EXPECT_EQ(traces.size(), 3u);  // hello + two queries
  for (const auto& [tid, events] : traces) {
    std::size_t roots = 0;
    for (const telemetry::TraceEvent& e : events) {
      if (e.parent_span == 0 && e.span_id != 0) {
        ++roots;
        EXPECT_EQ(std::string_view(e.name), "serve_dispatch") << "trace " << tid;
      }
    }
    EXPECT_EQ(roots, 1u) << "trace " << tid;
  }

  telemetry::set_enabled(false);
  telemetry::Registry::instance().reset();
}

}  // namespace
}  // namespace hotlib::serve
