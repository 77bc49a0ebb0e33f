// serve_mixed — the serving layer under an open-loop mixed query load: a
// SimulationService hosting two 2048-body simulations that step back to
// back, two pool lanes, and two client threads each sending bench_serve's
// mix (70% 4-point field, 12% region, 12% kNN, 3% snapshot, 3% steer) on a
// fixed schedule at half of the offered rate each. An untraced run ends with
// a short closed-loop phase that gives queries_per_s.
//
// Open loop: request k of a client is due at T0 + k / rate_c. A client has
// one request in flight, so when a reply arrives after the next request was
// due, that request goes out at once and its latency is counted from its due
// time — a stall is charged to every request it delays. When the client was
// idle, latency counts from the actual send (the generator's own sleep
// overshoot is not the service's). How late each send was is reported as
// gen_late_us_p99.
#include <array>
#include <atomic>
#include <cstring>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "gravity/evaluate.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "util/task_pool.hpp"

namespace perfbench {

using namespace hotlib;
using serve::FrameType;

namespace {

constexpr std::size_t kSims = 2;
constexpr std::size_t kClients = 2;
constexpr std::size_t kBodiesPerSim = 2048;
constexpr double kTheta = 0.6;
constexpr double kSoftening = 0.02;
constexpr double kDt = 1e-5;  // the clouds barely move: work per step stays put
constexpr int kSetups = 5;
constexpr std::size_t kWarmupRequests = 100;  // per client, closed loop
constexpr std::size_t kRegionMax = 256;
constexpr std::uint32_t kKnn = 8;
constexpr std::size_t kChecksPerType = 8;
constexpr double kErrCeiling = 1e-2;
constexpr std::size_t kPeakSinks = 16384;
constexpr double kDrainGrace = 1.0;  // s past the window a late client may keep sending
constexpr double kClosedLoopS = 3.0;  // closed-loop throughput phase after the window

enum Op { kPoint, kRegion, kKnnOp, kSnapshot, kSteer, kOps };

struct Request {
  Op op = kPoint;
  std::uint32_t sim = 0;
  std::array<Vec3d, 4> pts{};
  hot::Aabb box{};
};

// bench_serve's mix and argument distributions.
Request next_request(Xoshiro256ss& rng, std::uint32_t sim) {
  Request q;
  q.sim = sim;
  const double r = rng.uniform();
  if (r < 0.70) {
    q.op = kPoint;
    for (Vec3d& p : q.pts) p = rng.in_sphere(1.2);
  } else if (r < 0.82) {
    q.op = kRegion;
    const Vec3d c = rng.in_sphere(0.8);
    const double h = rng.uniform(0.05, 0.4);
    q.box = {{c.x - h, c.y - h, c.z - h}, {c.x + h, c.y + h, c.z + h}};
  } else if (r < 0.94) {
    q.op = kKnnOp;
    q.pts[0] = rng.in_sphere(1.0);
  } else {
    q.op = r < 0.97 ? kSnapshot : kSteer;
  }
  return q;
}

// One request over the wire; false on an error reply or transport failure.
bool issue(serve::Client& cl, const Request& q) {
  switch (q.op) {
    case kPoint: return cl.point_query(q.sim, q.pts).has_value();
    case kRegion: return cl.region_query(q.sim, q.box, kRegionMax).has_value();
    case kKnnOp: return cl.knn_query(q.sim, q.pts[0], kKnn).has_value();
    case kSnapshot: return cl.snapshot(q.sim).has_value();
    default: return cl.steer(q.sim, kDt, kTheta, kSoftening).has_value();
  }
}

struct Outcome {
  double due = 0, origin = 0, sent = 0, end = 0;  // origin: latency clock start
  bool ok = false, busy = false;
};

// A running service, its clients and the stepping thread that advances both
// simulations back to back (what auto_step does, timed here per step).
class Live {
 public:
  explicit Live(std::uint64_t seed) {
    serve::SimulationService::Config cfg;
    cfg.auto_step = false;
    for (std::size_t s = 0; s < kSims; ++s) {
      serve::SimInstance::Config sc;
      sc.seed = seed * 16 + s + 1;
      sc.nbodies = kBodiesPerSim;
      sc.dt = kDt;
      sc.theta = kTheta;
      sc.softening = kSoftening;
      cfg.sims.push_back(sc);
    }
    svc_ = std::make_unique<serve::SimulationService>(std::move(cfg));
    svc_->start();
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<serve::Client>(*svc_, static_cast<std::uint32_t>(c + 1)));
      hello_ok_ = hello_ok_ && clients_.back()->hello().has_value();
    }
    stepper_ = std::thread([this] {
      while (stepping_.load(std::memory_order_acquire)) {
        const double t0 = now_s();
        svc_->step_all();
        steps_.emplace_back(t0, now_s() - t0);
      }
    });
  }
  ~Live() {
    stop_stepping();
    svc_->stop();
  }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;

  // Joins the stepping thread; the pump keeps answering queries.
  void stop_stepping() {
    stepping_.store(false, std::memory_order_release);
    if (stepper_.joinable()) stepper_.join();
  }

  serve::SimulationService& svc() { return *svc_; }
  serve::Client& client(std::size_t c) { return *clients_[c]; }
  bool hello_ok() const { return hello_ok_; }
  // (start, duration) of every step; read only after stop_stepping().
  const std::vector<std::pair<double, double>>& steps() const { return steps_; }

 private:
  std::unique_ptr<serve::SimulationService> svc_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  bool hello_ok_ = true;
  std::atomic<bool> stepping_{true};
  std::vector<std::pair<double, double>> steps_;
  std::thread stepper_;  // last: uses the members above
};

struct Window {
  double t0 = 0, t1 = 0;
  std::vector<double> unsent;                // per client: due but never sent
  std::vector<std::vector<Request>> req;     // per client
  std::vector<std::vector<Outcome>> out;     // per client, parallel to req
  util::TaskPool::Stats pool0, pool1;
};

// The open-loop generator: both clients for `seconds` at `rate` requests/s.
Window run_window(Live& live, std::uint64_t seed, double seconds, double rate) {
  Window w;
  w.req.resize(kClients);
  w.out.resize(kClients);
  w.unsent.assign(kClients, 0.0);
  w.t0 = now_s() + 0.01;
  w.t1 = w.t0 + seconds;
  w.pool0 = util::TaskPool::global().stats();
  const double interval = static_cast<double>(kClients) / rate;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Xoshiro256ss rng(SplitMix64(seed * 1000 + c).next());
      serve::Client& cl = live.client(c);
      for (std::size_t k = 0;; ++k) {
        const double due =
            w.t0 + (static_cast<double>(k) + static_cast<double>(c) / kClients) * interval;
        if (due >= w.t1) break;
        if (now_s() >= w.t1 + kDrainGrace) {
          // Too far behind to catch up: every request still due counts as
          // failed (never sent).
          w.unsent[c] = std::ceil((w.t1 - due) / interval);
          break;
        }
        Outcome o;
        o.due = due;
        if (now_s() < due) {
          std::this_thread::sleep_for(std::chrono::duration<double>(due - now_s()));
          o.sent = now_s();
          o.origin = o.sent;
        } else {
          o.sent = now_s();
          o.origin = due;
        }
        const Request q = next_request(rng, static_cast<std::uint32_t>(c % kSims));
        o.ok = issue(cl, q);
        o.busy = !o.ok && cl.last_error_was_busy();
        o.end = now_s();
        w.req[c].push_back(q);
        w.out[c].push_back(o);
      }
    });
  for (std::thread& t : threads) t.join();
  w.pool1 = util::TaskPool::global().stats();
  return w;
}

struct ClosedLoop {
  double ok = 0, failed = 0, span_s = 0;
};

// Both clients send the same mix back to back for `seconds` while the
// simulations keep stepping: the throughput the service sustains. The
// open-loop window cannot show it, since there completions follow the
// offered rate for as long as the service keeps up.
ClosedLoop run_closed(Live& live, std::uint64_t seed, double seconds) {
  std::vector<double> ok(kClients, 0.0), failed(kClients, 0.0);
  const double t0 = now_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Xoshiro256ss rng(SplitMix64(seed * 1000 + kClients + c).next());
      while (now_s() < t0 + seconds)
        (issue(live.client(c), next_request(rng, static_cast<std::uint32_t>(c % kSims)))
             ? ok[c]
             : failed[c]) += 1;
    });
  for (std::thread& t : threads) t.join();
  ClosedLoop r;
  r.span_s = now_s() - t0;
  for (std::size_t c = 0; c < kClients; ++c) {
    r.ok += ok[c];
    r.failed += failed[c];
  }
  return r;
}

struct WindowStats {
  std::vector<double> lat_us, late_us, step_s;  // lat_us in due-time order
  double ok = 0, failed = 0, busy = 0;
};

WindowStats summarize(const Window& w, const Live& live) {
  WindowStats s;
  std::vector<std::pair<double, double>> due_lat;
  for (std::size_t c = 0; c < kClients; ++c)
    for (const Outcome& o : w.out[c]) {
      due_lat.emplace_back(o.due, (o.end - o.origin) * 1e6);
      s.late_us.push_back((o.sent - o.due) * 1e6);
      (o.ok ? s.ok : s.failed) += 1;
      s.busy += o.busy;
    }
  std::sort(due_lat.begin(), due_lat.end());
  for (const auto& dl : due_lat) s.lat_us.push_back(dl.second);
  for (double u : w.unsent) s.failed += u;
  for (const auto& [start, dur] : live.steps())
    if (start >= w.t0 && start + dur <= w.t1) s.step_s.push_back(dur);
  return s;
}

// With stepping stopped, a fixed set of point, region and kNN replies must
// equal evaluate_at / collect_in_box / knn on the published state, bit for bit.
void check_replies(Live& live, std::uint64_t seed, Report& rep) {
  Xoshiro256ss rng(seed ^ 0xc0ffee);
  serve::Client& cl = live.client(0);
  for (std::uint32_t sim = 0; sim < kSims; ++sim) {
    const std::shared_ptr<const serve::TreeState> s = live.svc().sim(sim).state();
    for (std::size_t k = 0; k < kChecksPerType; ++k) {
      std::array<Vec3d, 4> pts;
      for (Vec3d& p : pts) p = rng.in_sphere(1.2);
      std::array<Vec3d, 4> acc;
      std::array<double, 4> pot;
      gravity::evaluate_at(s->tree, s->pos, s->mass, s->fcfg, pts, acc, pot);
      const auto pr = cl.point_query(sim, pts);
      rep.check(pr && pr->step == s->step &&
                    same_bits<Vec3d>(pr->acc, acc) && same_bits<double>(pr->pot, pot),
                "point reply differs from evaluate_at");

      const Vec3d c = rng.in_sphere(0.8);
      const double h = rng.uniform(0.05, 0.4);
      const hot::Aabb box{{c.x - h, c.y - h, c.z - h}, {c.x + h, c.y + h, c.z + h}};
      std::vector<std::uint32_t> hits;
      hot::collect_in_box(s->tree, s->pos, box, hits);
      const auto rr = cl.region_query(sim, box, kRegionMax);
      bool region_ok = rr && rr->total_matches == hits.size() &&
                       rr->particles.size() == std::min(hits.size(), kRegionMax);
      for (std::size_t j = 0; region_ok && j < rr->particles.size(); ++j)
        region_ok = rr->particles[j].id == s->id[hits[j]] &&
                    std::memcmp(&rr->particles[j].pos, &s->pos[hits[j]], sizeof(Vec3d)) == 0;
      rep.check(region_ok, "region reply differs from collect_in_box");

      const Vec3d p = rng.in_sphere(1.0);
      std::vector<hot::Neighbor> nn;
      hot::knn(s->tree, s->pos, p, kKnn, nn);
      const auto kr = cl.knn_query(sim, p, kKnn);
      bool knn_ok = kr && kr->neighbors.size() == nn.size();
      for (std::size_t j = 0; knn_ok && j < nn.size(); ++j)
        knn_ok = kr->neighbors[j].id == s->id[nn[j].index] &&
                 kr->neighbors[j].dist2 == nn[j].dist2;
      rep.check(knn_ok, "kNN reply differs from knn");
      rep.attempted += 3;
    }
  }
}

// RMS relative force error of both simulations' step forces (tree_forces on
// the published tree) against the direct sum over every body.
double force_error(Live& live) {
  double sum2 = 0;
  for (std::size_t sim = 0; sim < kSims; ++sim) {
    const std::shared_ptr<const serve::TreeState> s = live.svc().sim(sim).state();
    std::vector<Vec3d> acc(s->pos.size());
    std::vector<double> pot(s->pos.size());
    gravity::tree_forces(s->tree, s->pos, s->mass, s->fcfg, acc, pot);
    const double e = rms_rel_force_error(s->pos, s->mass, s->fcfg.softening, s->fcfg.G, acc,
                                         sample_indices(s->pos.size(), s->pos.size(), 0));
    sum2 += e * e;
  }
  return std::sqrt(sum2 / kSims);
}

// ---- traced replay ----------------------------------------------------------

std::span<const std::uint8_t> bytes_of(const void* p, std::size_t n) {
  return {static_cast<const std::uint8_t*>(p), n};
}

struct ReplayCost {
  double encode_s = 0, decode_s = 0, exec_s = 0, bytes = 0;
};

struct ReplaySums {
  std::array<double, kOps> exec_s{}, count{};
  double encode_s = 0, decode_s = 0, bytes = 0, requests = 0;
  double point_interactions = 0, eval_s = 0;
  LaneTimes walk;
  std::uint64_t mismatches = 0;
};

double decode_all(const parc::Bytes& wire) {
  const double t0 = now_s();
  serve::FrameDecoder dec;
  dec.feed(wire);
  while (dec.next()) {
  }
  return now_s() - t0;
}

// Replays one request against the quiesced state: client-side encode,
// service-side decode, execution through the same library calls the service
// makes, reply encode, client-side decode.
ReplayCost replay(const Request& q, const serve::TreeState& s, std::uint64_t id,
                  ReplaySums& sums) {
  ReplayCost c;
  const std::uint32_t tenant = q.sim + 1;
  double t0 = now_s();
  parc::Bytes req;
  switch (q.op) {
    case kPoint: {
      const serve::PointQueryHeader h{q.sim, 4};
      req = serve::encode_frame(FrameType::kPointQuery, tenant, id, h,
                                bytes_of(q.pts.data(), sizeof(q.pts)));
      break;
    }
    case kRegion:
      req = serve::encode_frame(FrameType::kRegionQuery, tenant, id,
                                serve::RegionQueryPayload{q.sim, kRegionMax, q.box});
      break;
    case kKnnOp:
      req = serve::encode_frame(FrameType::kKnnQuery, tenant, id,
                                serve::KnnQueryPayload{q.sim, kKnn, q.pts[0]});
      break;
    case kSnapshot:
      req = serve::encode_frame(FrameType::kSnapshotRequest, tenant, id,
                                serve::SnapshotRequestPayload{q.sim, 0});
      break;
    default:
      req = serve::encode_frame(FrameType::kSteer, tenant, id,
                                serve::SteerPayload{q.sim, 0, kDt, kTheta, kSoftening});
  }
  c.encode_s += now_s() - t0;
  c.decode_s += decode_all(req);
  c.bytes += static_cast<double>(req.size());

  parc::Bytes reply;
  t0 = now_s();
  if (q.op == kPoint) {
    std::array<Vec3d, 4> acc, acc2;
    std::array<double, 4> pot, pot2;
    const InteractionTally tally =
        gravity::evaluate_at(s.tree, s.pos, s.mass, s.fcfg, q.pts, acc, pot);
    c.exec_s = now_s() - t0;
    sums.point_interactions += static_cast<double>(tally.interactions());
    traced_point_eval(s.tree, s.pos, s.mass, s.fcfg, q.pts, acc2, pot2, sums.walk);
    sums.mismatches += !(same_bits<Vec3d>(acc, acc2) && same_bits<double>(pot, pot2));
    t0 = now_s();
    parc::Bytes payload(sizeof(serve::PointReplyHeader) + sizeof(acc) + sizeof(pot));
    const serve::PointReplyHeader h{s.step, 4, 0};
    std::memcpy(payload.data(), &h, sizeof(h));
    std::memcpy(payload.data() + sizeof(h), acc.data(), sizeof(acc));
    std::memcpy(payload.data() + sizeof(h) + sizeof(acc), pot.data(), sizeof(pot));
    reply = serve::encode_frame(FrameType::kPointReply, tenant, id, payload);
  } else if (q.op == kRegion || q.op == kKnnOp || q.op == kSnapshot) {
    std::vector<std::uint32_t> idx;
    std::vector<hot::Neighbor> nn;
    if (q.op == kRegion) hot::collect_in_box(s.tree, s.pos, q.box, idx);
    if (q.op == kKnnOp) hot::knn(s.tree, s.pos, q.pts[0], kKnn, nn);
    c.exec_s = now_s() - t0;
    t0 = now_s();
    if (q.op == kKnnOp) {
      parc::Bytes payload(sizeof(serve::KnnReplyHeader) + nn.size() * sizeof(serve::NeighborRecord));
      const serve::KnnReplyHeader h{s.step, static_cast<std::uint32_t>(nn.size()), 0};
      std::memcpy(payload.data(), &h, sizeof(h));
      for (std::size_t j = 0; j < nn.size(); ++j) {
        const serve::NeighborRecord rec{s.id[nn[j].index], nn[j].dist2, s.pos[nn[j].index]};
        std::memcpy(payload.data() + sizeof(h) + j * sizeof(rec), &rec, sizeof(rec));
      }
      reply = serve::encode_frame(FrameType::kKnnReply, tenant, id, payload);
    } else {
      // Region replies and snapshot chunks carry ParticleRecords.
      const bool region = q.op == kRegion;
      const std::size_t n = region ? std::min(idx.size(), kRegionMax) : s.pos.size();
      const std::size_t chunk = region ? std::max<std::size_t>(n, 1) : 512;
      for (std::size_t lo = 0; lo < std::max<std::size_t>(n, 1); lo += chunk) {
        const std::size_t hi = std::min(n, lo + chunk);
        const std::size_t head = region ? sizeof(serve::RegionReplyHeader)
                                        : sizeof(serve::SnapshotChunkHeader);
        parc::Bytes payload(head + (hi - lo) * sizeof(serve::ParticleRecord));
        for (std::size_t j = lo; j < hi; ++j) {
          const std::uint32_t i = region ? idx[j] : static_cast<std::uint32_t>(j);
          const serve::ParticleRecord rec{s.id[i], s.mass[i], s.pos[i], s.vel[i]};
          std::memcpy(payload.data() + head + (j - lo) * sizeof(rec), &rec, sizeof(rec));
        }
        if (region) {
          const serve::RegionReplyHeader h{s.step, static_cast<std::uint32_t>(n),
                                           static_cast<std::uint32_t>(idx.size())};
          std::memcpy(payload.data(), &h, sizeof(h));
        } else {
          const serve::SnapshotChunkHeader h{s.step, s.time,
                                             static_cast<std::uint32_t>(lo / chunk),
                                             static_cast<std::uint32_t>((n + chunk - 1) / chunk),
                                             static_cast<std::uint32_t>(hi - lo), 0};
          std::memcpy(payload.data(), &h, sizeof(h));
        }
        const parc::Bytes f = serve::encode_frame(
            region ? FrameType::kRegionReply : FrameType::kSnapshotChunk, tenant, id, payload);
        reply.insert(reply.end(), f.begin(), f.end());
      }
      if (!region) {
        // A snapshot's execution is packing and framing its chunks.
        c.exec_s = now_s() - t0;
        t0 = now_s();
      }
    }
  } else {
    c.exec_s = 0;
    t0 = now_s();
    reply = serve::encode_frame(FrameType::kSteerOk, tenant, id,
                                serve::SteerOkPayload{s.step + 1, kDt, kTheta, kSoftening});
  }
  c.encode_s += now_s() - t0;
  c.decode_s += decode_all(reply);
  c.bytes += static_cast<double>(reply.size());

  sums.exec_s[q.op] += c.exec_s;
  sums.count[q.op] += 1;
  sums.encode_s += c.encode_s;
  sums.decode_s += c.decode_s;
  sums.bytes += c.bytes;
  sums.requests += 1;
  return c;
}

}  // namespace

int run_serve_mixed(const Args& a) {
  Report rep;
  stamp_host(rep, a);
  rep.stamp("offered_rate_per_s", a.serve_rate);
  rep.stamp("clients", "2 open-loop threads, one request in flight each");
  util::TaskPool& pool = util::TaskPool::global();

  EndToEnd e;
  std::unique_ptr<Live> live;
  for (int k = 0; k < kSetups; ++k) {
    live.reset();
    const double t0 = now_s();
    live = std::make_unique<Live>(a.seed);
    rep.check(live->hello_ok(), "client handshake failed");
    for (std::size_t c = 0; c < kClients; ++c) {
      Xoshiro256ss rng(a.seed + 77 * c);
      for (std::size_t i = 0; i < kWarmupRequests; ++i)
        rep.check(issue(live->client(c), next_request(rng, static_cast<std::uint32_t>(c % kSims))),
                  "warm-up request failed");
    }
    e.setup_s.push_back(now_s() - t0);
  }

  const double untraced_s = (a.trace ? 0.5 : 1.0) * a.seconds;
  const Window w = run_window(*live, a.seed, untraced_s, a.serve_rate);
  std::unique_ptr<Window> tw;
  ClosedLoop cl;
  if (a.trace)
    tw = std::make_unique<Window>(run_window(*live, a.seed + 1, 0.5 * a.seconds, a.serve_rate));
  else
    cl = run_closed(*live, a.seed, kClosedLoopS);
  live->stop_stepping();
  const WindowStats ws = summarize(w, *live);
  e.step_s = ws.step_s;
  e.query_us = ws.lat_us;
  e.queries = cl.ok;
  e.query_window_s = cl.span_s;
  rep.attempted += static_cast<std::uint64_t>(ws.ok + ws.failed + ws.step_s.size());
  rep.failed += static_cast<std::uint64_t>(ws.failed);
  rep.stamp("gen_late_us_p99", percentile(ws.late_us, 0.99));
  rep.stamp("requests failed or refused", ws.failed);

  check_replies(*live, a.seed, rep);
  e.force_err_rms = force_error(*live);
  rep.check(e.force_err_rms < kErrCeiling, "force_err_rms above its ceiling");

  if (!a.trace) {
    live.reset();
    rep.attempted += static_cast<std::uint64_t>(cl.ok + cl.failed);
    rep.failed += static_cast<std::uint64_t>(cl.failed);
    rep.stamp("closed-loop requests", cl.ok + cl.failed);
    rep.stamp("offered rate over closed-loop throughput", a.serve_rate * cl.span_s / cl.ok);
    rep.check(ws.failed == 0 && cl.failed == 0, "requests failed");
    emit_end_to_end(rep, e);
    rep.print();
    return 0;
  }

  // Traced: the traced window's request stream replayed against the quiesced
  // states (bounded to a quarter of the run), then queue wait = live latency
  // minus the replayed protocol + execution cost of the same request.
  const WindowStats ts = summarize(*tw, *live);
  rep.attempted += static_cast<std::uint64_t>(ts.ok + ts.failed + ts.step_s.size());
  rep.failed += static_cast<std::uint64_t>(ts.failed);
  std::array<std::shared_ptr<const serve::TreeState>, kSims> state;
  for (std::size_t s = 0; s < kSims; ++s) state[s] = live->svc().sim(s).state();
  ReplaySums rs;
  std::vector<double> wait_us;
  const double replay_end = now_s() + 0.25 * a.seconds;
  std::uint64_t id = 1;
  for (std::size_t k = 0; now_s() < replay_end; ++k) {
    bool any = false;
    for (std::size_t c = 0; c < kClients; ++c) {
      if (k >= tw->req[c].size()) continue;
      any = true;
      const Request& q = tw->req[c][k];
      const Outcome& o = tw->out[c][k];
      const ReplayCost rc = replay(q, *state[q.sim], id++, rs);
      wait_us.push_back(
          std::max(0.0, (o.end - o.origin - rc.encode_s - rc.decode_s - rc.exec_s) * 1e6));
    }
    if (!any) break;
  }
  rep.check(rs.mismatches == 0, "traced point walk differs from evaluate_at");
  live.reset();

  // Tree build of both published states, as one step_all builds them.
  std::vector<double> build;
  double cells = 0;
  for (int k = 0; k < 5; ++k) {
    double t = 0;
    cells = 0;
    for (const auto& s : state) {
      hot::Tree tree;
      const double t0 = now_s();
      tree.build(s->pos, s->mass, morton::bounding_domain(s->pos.data(), s->pos.size(), 0.05),
                 {.bucket_size = 16});
      t += now_s() - t0;
      cells += static_cast<double>(tree.cells().size());
    }
    build.push_back(t);
  }
  std::vector<double> peak;
  for (int k = 0; k < 5; ++k) {
    const double p0 = now_s();
    const std::uint64_t inter = kernel_probe(kPeakSinks, a.seed + k);
    peak.push_back(38.0 * static_cast<double>(inter) / (now_s() - p0) / 1e9);
  }

  const double lanes = pool.concurrency();
  const double nsteps = std::max<double>(1.0, static_cast<double>(ts.step_s.size()));
  const double points = std::max(1.0, rs.count[kPoint]);
  const double walks = std::max<double>(1.0, static_cast<double>(rs.walk.groups));
  const double interactions = static_cast<double>(rs.walk.tally.interactions()) / points;
  const double kernel_s = rs.walk.kernel_s / points;
  const double window = tw->t1 - tw->t0;
  LayerValues lv;
  lv.set("build.s", median(build));
  lv.set("build.cells", cells);
  lv.set("walk.s", rs.walk.walk_s / points);
  lv.set("walk.groups", static_cast<double>(rs.walk.groups) / points);
  lv.set("walk.mac_tests", static_cast<double>(rs.walk.tally.mac_tests) / points);
  lv.set("walk.cells_opened", static_cast<double>(rs.walk.tally.cells_opened) / points);
  lv.set("walk.sinks_per_group", 1.0);
  lv.set("walk.list_bodies_per_group", static_cast<double>(rs.walk.list_bodies) / walks);
  lv.set("walk.list_cells_per_group", static_cast<double>(rs.walk.list_cells) / walks);
  lv.set("gather.s", rs.walk.gather_s / points);
  lv.set("gather.bytes", rs.walk.gather_bytes / points);
  lv.set("kernel.s", kernel_s);
  lv.set("kernel.pp_interactions", static_cast<double>(rs.walk.tally.body_body) / points);
  lv.set("kernel.pc_interactions", static_cast<double>(rs.walk.tally.body_cell) / points);
  lv.set("kernel.gflops", 38.0 * interactions / kernel_s / 1e9);
  lv.set("kernel.peak_gflops", median(peak));
  lv.set("kernel.efficiency", 38.0 * interactions / kernel_s / 1e9 / median(peak));
  lv.set("force.gflops", 38.0 * rs.point_interactions / rs.exec_s[kPoint] / 1e9);
  lv.set("pool.tasks", static_cast<double>(tw->pool1.tasks_executed - tw->pool0.tasks_executed) / nsteps);
  lv.set("pool.steals", static_cast<double>(tw->pool1.steals - tw->pool0.steals) / nsteps);
  lv.set("pool.busy_s", (tw->pool1.busy_seconds - tw->pool0.busy_seconds) / nsteps);
  lv.set("pool.idle_frac",
         1.0 - (tw->pool1.busy_seconds - tw->pool0.busy_seconds) / ((lanes - 1.0) * window));
  const double reqs = std::max(1.0, rs.requests);
  lv.set("protocol.encode_us", rs.encode_s / reqs * 1e6);
  lv.set("protocol.decode_us", rs.decode_s / reqs * 1e6);
  lv.set("protocol.bytes_per_query", rs.bytes / reqs);
  lv.set("exec.point_us", rs.exec_s[kPoint] / points * 1e6);
  lv.set("exec.region_us", rs.exec_s[kRegion] / std::max(1.0, rs.count[kRegion]) * 1e6);
  lv.set("exec.knn_us", rs.exec_s[kKnnOp] / std::max(1.0, rs.count[kKnnOp]) * 1e6);
  lv.set("exec.snapshot_us", rs.exec_s[kSnapshot] / std::max(1.0, rs.count[kSnapshot]) * 1e6);
  lv.set("exec.point_interactions", rs.point_interactions / points);
  lv.set("queue.wait_us_p50", percentile(wait_us, 0.50));
  lv.set("queue.wait_us_p99", percentile(wait_us, 0.99));
  lv.set("queue.refused", ts.busy);
  lv.set("query_us_p99", windowed_percentile(ws.lat_us, 0.99));
  lv.set("query_us_p999", windowed_percentile(ws.lat_us, 0.999));
  lv.set("query_fail_frac", ts.failed / std::max(1.0, ts.ok + ts.failed));
  lv.set("gen_late_us_p99", percentile(ts.late_us, 0.99));
  lv.set("trace.step_overhead_s", percentile(ts.step_s, 0.5) - percentile(ws.step_s, 0.5));
  lv.set("trace.query_overhead_us", percentile(ts.lat_us, 0.5) - percentile(ws.lat_us, 0.5));
  rep.stamp("replayed requests", rs.requests);
  rep.stamp("queue.wait samples", static_cast<double>(wait_us.size()));
  lv.emit(rep);
  rep.print();
  return 0;
}

}  // namespace perfbench
