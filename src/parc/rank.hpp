// rank.hpp — the per-process view of the parc runtime.
//
// A Rank is what MPI would call a process: it can send/recv point-to-point
// messages, participate in collectives (all built on top of point-to-point,
// as on a real distributed-memory machine), and use the paper's
// "asynchronous batched messages" (ABM) active-message layer for
// latency-hiding request/response traffic during tree traversal.
//
// Every rank also carries a *virtual clock* for the LogP-style machine model:
// compute work is charged via charge_flops()/charge_seconds(), and message
// arrival times are max(local clock, sender departure + latency + bytes/bw).
// With default NetworkParams the clock stays at zero and parc is a pure
// correctness vehicle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "parc/fabric.hpp"
#include "parc/message.hpp"

namespace hotlib::parc {

// Retry/timeout knobs of the reliable ABM mode. Timeouts are measured in
// *progress ticks* (one per am_poll call), not wall or virtual time: ticks
// are the only clock every rank is guaranteed to advance while it makes
// progress, so retransmission behaviour cannot depend on host scheduling.
struct AmRetryParams {
  int base_timeout_ticks = 8;   // first retransmit after this many ticks
  int max_backoff_shift = 5;    // exponential backoff capped at base << shift
  int max_attempts = 12;        // then the batch is abandoned, never hung on
  std::size_t max_ooo_batches = 64;  // receiver-side out-of-order buffer bound
  // Standalone acks are delayed this many ticks so a reverse-direction data
  // batch can piggyback the cumulative ack for free first; only one-sided
  // traffic pays for dedicated ack messages.
  int ack_delay_ticks = 2;
};

// Per-peer entry of the health report (only non-clean peers are listed).
struct AmPeerHealth {
  int peer = -1;
  std::uint64_t retransmits = 0;
  std::uint64_t abandoned_batches = 0;
  std::uint64_t abandoned_records = 0;
  bool dead = false;  // channel gave up: bounded retries exhausted
};

// What the reliable ABM layer did to survive the fabric. degraded() means
// data was lost for good (bounded retries exhausted) and the caller must not
// trust completeness — the graceful alternative to hanging.
struct AmHealthReport {
  std::uint64_t retransmits = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicate_batches = 0;   // received again after dispatch
  std::uint64_t corrupt_batches = 0;     // checksum/length mismatch (truncation)
  std::uint64_t out_of_order_batches = 0;  // buffered past a sequence gap
  std::uint64_t abandoned_batches = 0;
  std::uint64_t abandoned_records = 0;
  std::vector<AmPeerHealth> peers;

  bool degraded() const { return abandoned_records > 0; }
};

// Reduction operators for the typed collectives.
struct Sum {
  template <class T> T operator()(const T& a, const T& b) const { return a + b; }
};
struct Min {
  template <class T> T operator()(const T& a, const T& b) const { return std::min(a, b); }
};
struct Max {
  template <class T> T operator()(const T& a, const T& b) const { return std::max(a, b); }
};

class Rank {
 public:
  using AmHandler = std::function<void(Rank&, int source, std::span<const std::uint8_t>)>;

  Rank(Fabric& fabric, int rank);

  int rank() const { return rank_; }
  int size() const { return fabric_.size(); }
  Fabric& fabric() { return fabric_; }

  // ---- virtual time (machine model) ----
  double vclock() const { return vclock_; }
  // Stable address of the clock, for the telemetry rank channel (spans
  // record virtual time through it; read only by the owning thread).
  const double* vclock_ptr() const { return &vclock_; }
  void charge_flops(double flops) { vclock_ += fabric_.net().compute_time(flops); }
  void charge_seconds(double s) { vclock_ += s; }

  // ---- point-to-point ----
  void send(int dst, int tag, std::span<const std::uint8_t> payload);
  template <class T>
  void send_value(int dst, int tag, const T& v) {
    Bytes b = to_bytes(v);
    send(dst, tag, b);
  }
  template <class T>
  void send_span(int dst, int tag, std::span<const T> v) {
    Bytes b = to_bytes(v);
    send(dst, tag, b);
  }

  Message recv(int source = kAnySource, int tag = kAnyTag);
  bool try_recv(Message& out, int source = kAnySource, int tag = kAnyTag);
  template <class T>
  T recv_value(int source, int tag) {
    return recv(source, tag).as<T>();
  }

  // ---- collectives (p2p-based; call in the same order on every rank) ----
  void barrier();

  template <class T>
  T broadcast(T value, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes b = to_bytes(value);
    b = broadcast_bytes(std::move(b), root);
    Message m;
    m.payload = std::move(b);
    return m.as<T>();
  }

  template <class T, class Op>
  T reduce(T value, Op op, int root) {
    // Binomial-tree reduction rooted at `root` (rank relabelling r' = r-root).
    const int p = size();
    const int me = relabel(rank_, root, p);
    const int tag = next_collective_tag(0);
    T acc = value;
    for (int k = 1; k < p; k <<= 1) {
      if ((me & k) != 0) {
        send_value(unlabel(me & ~k, root, p), tag, acc);
        return acc;  // non-root partial; value only meaningful on root
      }
      if (me + k < p) {
        T other = recv_value<T>(unlabel(me + k, root, p), tag);
        acc = op(acc, other);
      }
    }
    return acc;
  }

  template <class T, class Op>
  T allreduce(T value, Op op) {
    T r = reduce(value, op, /*root=*/0);
    return broadcast(r, 0);
  }

  template <class T>
  std::vector<T> allgather(const T& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<Bytes> blocks = allgather_bytes(to_bytes(mine));
    std::vector<T> out;
    out.reserve(blocks.size());
    for (auto& b : blocks) {
      Message m;
      m.payload = std::move(b);
      out.push_back(m.as<T>());
    }
    return out;
  }

  template <class T>
  std::vector<std::vector<T>> allgather_vector(std::span<const T> mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<Bytes> blocks = allgather_bytes(to_bytes(mine));
    std::vector<std::vector<T>> out;
    out.reserve(blocks.size());
    for (auto& b : blocks) {
      Message m;
      m.payload = std::move(b);
      out.push_back(m.as_vector<T>());
    }
    return out;
  }

  // Exclusive prefix sum: rank r receives op-fold of values from ranks < r
  // (identity value on rank 0).
  template <class T, class Op>
  T exscan(const T& mine, Op op, T identity) {
    std::vector<T> all = allgather(mine);
    T acc = identity;
    for (int r = 0; r < rank_; ++r) acc = op(acc, all[static_cast<std::size_t>(r)]);
    return acc;
  }

  // Personalised all-to-all with per-destination variable payloads.
  // out[d] is the payload for rank d (out[rank()] is copied locally).
  std::vector<Bytes> alltoallv(std::vector<Bytes> out);

  template <class T>
  std::vector<std::vector<T>> alltoallv_typed(const std::vector<std::vector<T>>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<Bytes> raw(out.size());
    for (std::size_t d = 0; d < out.size(); ++d)
      raw[d] = to_bytes(std::span<const T>(out[d]));
    std::vector<Bytes> in = alltoallv(std::move(raw));
    std::vector<std::vector<T>> typed(in.size());
    for (std::size_t s = 0; s < in.size(); ++s) {
      Message m;
      m.payload = std::move(in[s]);
      typed[s] = m.as_vector<T>();
    }
    return typed;
  }

  // ---- ABM: asynchronous batched messages (active-message style) ----
  //
  // Handlers must be registered in the same order on every rank before any
  // am_post. A posted record is buffered per destination and shipped either
  // when the batch exceeds the batch limit or on am_flush(). am_poll()
  // dispatches incoming records (handlers may post replies). am_quiesce()
  // runs flush/poll rounds plus global termination detection until no AM
  // traffic is in flight anywhere.
  //
  // Reliable mode (automatic when the fabric carries an active FaultPlan,
  // or forced via am_set_reliable): batches carry per-channel sequence
  // numbers and a checksum, receivers acknowledge cumulatively, dedupe
  // duplicates, buffer past gaps, and senders retransmit on tick timeouts
  // with exponential backoff. After AmRetryParams::max_attempts a batch is
  // *abandoned* — counted in the health report and in quiescence accounting
  // — so a dead peer/link degrades the answer instead of hanging the run.
  // The mode must be uniform across ranks and set before any AM traffic.
  int am_register(AmHandler handler);
  void am_post(int dst, int handler, std::span<const std::uint8_t> payload);
  template <class T>
  void am_post_value(int dst, int handler, const T& v) {
    Bytes b = to_bytes(v);
    am_post(dst, handler, b);
  }
  void am_flush();
  // Dispatch queued AM batches; returns number of records dispatched. In
  // reliable mode this also advances the retry clock, processes acks and
  // retransmits timed-out batches.
  std::size_t am_poll();
  void am_quiesce();
  std::uint64_t am_posted() const { return am_posted_; }
  std::uint64_t am_dispatched() const { return am_dispatched_; }
  std::uint64_t am_abandoned() const { return am_abandoned_; }
  // AM batches this rank has shipped, counted once each (retransmits and
  // acks excluded) — the same events as Counter::kAbmBatchesSent.
  std::uint64_t am_batches_sent() const { return am_batches_sent_; }
  void am_set_batch_limit(std::size_t bytes) { am_batch_limit_ = bytes; }

  bool am_reliable() const { return am_reliable_; }
  void am_set_reliable(bool on) { am_reliable_ = on; }
  void am_set_retry_params(const AmRetryParams& p) { am_retry_ = p; }
  AmHealthReport am_health() const;

 private:
  // Sender side of one reliable channel (this rank -> peer).
  struct AmOutChannel {
    struct Unacked {
      std::uint64_t seq = 0;
      Bytes wire;             // header + records, resent verbatim
      std::uint32_t nrecords = 0;
      int attempts = 0;
      std::uint64_t retry_at_tick = 0;
    };
    std::uint64_t next_seq = 0;
    std::deque<Unacked> unacked;
    std::uint64_t retransmits = 0;
    std::uint64_t abandoned_batches = 0;
    std::uint64_t abandoned_records = 0;
    bool dead = false;
  };
  // Receiver side of one reliable channel (peer -> this rank).
  struct AmInChannel {
    std::uint64_t expected = 0;  // next in-order batch sequence number
    std::map<std::uint64_t, Bytes> out_of_order;  // record bytes past a gap
    bool ack_pending = false;
    std::uint64_t ack_pending_since = 0;  // tick the oldest unsent ack was due
  };

  void am_ship_batch(int dst);
  std::size_t am_dispatch_records(int source, std::span<const std::uint8_t> records);
  void am_progress();
  void am_sample_health();  // refresh queue-depth gauges + commit a snapshot
  void am_abandon_channel(int dst);
  void am_send_ack(int src);
  Bytes broadcast_bytes(Bytes value, int root);
  std::vector<Bytes> allgather_bytes(Bytes mine);

  // Collective tags: bit 30 set, per-rank sequence number (consistent across
  // ranks because collectives execute in program order), plus a small slot
  // for multi-round algorithms.
  int next_collective_tag(int round) {
    const int seq = coll_seq_++ & 0xFFFFF;
    return (1 << 30) | (seq << 4) | (round & 0xF);
  }

  static int relabel(int r, int root, int p) { return (r - root + p) % p; }
  static int unlabel(int r, int root, int p) { return (r + root) % p; }

  Fabric& fabric_;
  int rank_;
  double vclock_ = 0.0;
  int coll_seq_ = 0;

  std::vector<AmHandler> am_handlers_;
  std::vector<Bytes> am_batches_;  // one buffer per destination
  std::size_t am_batch_limit_ = 1 << 16;
  std::uint64_t am_posted_ = 0;
  std::uint64_t am_dispatched_ = 0;
  std::uint64_t am_abandoned_ = 0;
  std::uint64_t am_batches_sent_ = 0;

  bool am_reliable_ = false;
  AmRetryParams am_retry_;
  std::uint64_t am_tick_ = 0;  // advances once per am_poll
  std::vector<AmOutChannel> am_out_;  // one per destination
  std::vector<AmInChannel> am_in_;    // one per source
  std::uint64_t am_acks_sent_ = 0;
  std::uint64_t am_dup_batches_ = 0;
  std::uint64_t am_corrupt_batches_ = 0;
  std::uint64_t am_ooo_batches_ = 0;
};

}  // namespace hotlib::parc
