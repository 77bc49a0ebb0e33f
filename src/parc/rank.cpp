#include "parc/rank.hpp"

#include <cstring>

#include "telemetry/sample.hpp"
#include "telemetry/trace.hpp"

namespace hotlib::parc {

namespace tel = telemetry;

namespace {

// Wire header of a reliable ABM batch. `checksum` (FNV-1a over the record
// bytes) plus `nbytes` catch truncation; `seq` orders and dedupes batches on
// the (source, destination) channel; `ack` piggybacks the cumulative ack for
// the reverse channel, so bidirectional traffic rarely needs standalone ack
// messages. A retransmitted wire image carries a stale `ack` — harmless,
// cumulative acks only ever retire batches below the acked sequence.
struct AmWireHeader {
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint64_t checksum = 0;
  std::uint32_t nbytes = 0;
  std::uint32_t nrecords = 0;
};

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint32_t count_records(std::span<const std::uint8_t> records) {
  std::uint32_t n = 0;
  std::size_t pos = 0;
  while (pos + 8 <= records.size()) {
    std::uint32_t len = 0;
    std::memcpy(&len, records.data() + pos + 4, sizeof(len));
    pos += 8 + len;
    if (pos > records.size()) break;
    ++n;
  }
  return n;
}

}  // namespace

Rank::Rank(Fabric& fabric, int rank) : fabric_(fabric), rank_(rank) {
  am_batches_.resize(static_cast<std::size_t>(fabric.size()));
  am_out_.resize(static_cast<std::size_t>(fabric.size()));
  am_in_.resize(static_cast<std::size_t>(fabric.size()));
  // An adversarial fabric without the retry layer would simply lose data;
  // couple them so a fault plan implies reliability.
  am_reliable_ = fabric.fault_plan().active();
}

void Rank::send(int dst, int tag, std::span<const std::uint8_t> payload) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("parc::send: bad destination");
  tel::count(tel::Counter::kMessagesSent);
  tel::count(tel::Counter::kBytesSent, payload.size());
  vclock_ += fabric_.net().overhead_s;  // sender-side per-message CPU cost
  Message m;
  m.source = rank_;
  m.tag = tag;
  m.depart_time = vclock_;
  m.payload.assign(payload.begin(), payload.end());
  fabric_.deliver(dst, std::move(m));
}

Message Rank::recv(int source, int tag) {
  Message m = fabric_.recv(rank_, source, tag);
  if (m.source != rank_) {
    const double arrival = m.depart_time + fabric_.net().transfer_time(m.payload.size());
    vclock_ = std::max(vclock_, arrival) + fabric_.net().overhead_s;
  }
  tel::count(tel::Counter::kMessagesReceived);
  tel::count(tel::Counter::kBytesReceived, m.payload.size());
  return m;
}

bool Rank::try_recv(Message& out, int source, int tag) {
  auto m = fabric_.try_recv(rank_, source, tag);
  if (!m) return false;
  if (m->source != rank_) {
    const double arrival = m->depart_time + fabric_.net().transfer_time(m->payload.size());
    vclock_ = std::max(vclock_, arrival) + fabric_.net().overhead_s;
  }
  tel::count(tel::Counter::kMessagesReceived);
  tel::count(tel::Counter::kBytesReceived, m->payload.size());
  out = std::move(*m);
  return true;
}

void Rank::barrier() {
  // Dissemination barrier: log2(p) rounds of token exchange.
  const int p = size();
  if (p == 1) return;
  tel::Span span("barrier", tel::Phase::kComm);
  const int seq = coll_seq_++ & 0xFFFFF;
  int round = 0;
  for (int k = 1; k < p; k <<= 1, ++round) {
    const int tag = (1 << 30) | (seq << 4) | (round & 0xF);
    const std::uint8_t token = 0;
    send((rank_ + k) % p, tag, std::span<const std::uint8_t>(&token, 1));
    (void)recv((rank_ - k + p) % p, tag);
  }
}

Bytes Rank::broadcast_bytes(Bytes value, int root) {
  const int p = size();
  if (p == 1) return value;
  tel::Span span("broadcast", tel::Phase::kComm, value.size());
  const int me = relabel(rank_, root, p);
  const int tag = next_collective_tag(0);
  for (int k = 1; k < p; k <<= 1) {
    if (me < k) {
      if (me + k < p) send(unlabel(me + k, root, p), tag, value);
    } else if (me < 2 * k) {
      value = recv(unlabel(me - k, root, p), tag).payload;
    }
  }
  return value;
}

std::vector<Bytes> Rank::allgather_bytes(Bytes mine) {
  // Ring allgather: p-1 steps; block b originates at rank b and travels
  // around the ring, so step s forwards block (me - s) mod p.
  const int p = size();
  std::vector<Bytes> blocks(static_cast<std::size_t>(p));
  blocks[static_cast<std::size_t>(rank_)] = std::move(mine);
  if (p == 1) return blocks;
  tel::Span span("allgather", tel::Phase::kComm,
                 blocks[static_cast<std::size_t>(rank_)].size());

  const int seq = coll_seq_++ & 0xFFFFF;
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const int tag = (1 << 30) | (seq << 4) | 0x8;  // single slot; seq+source disambiguate
    const int out_block = (rank_ - s + p) % p;
    const int in_block = (rank_ - s - 1 + 2 * p) % p;
    send(right, tag, blocks[static_cast<std::size_t>(out_block)]);
    blocks[static_cast<std::size_t>(in_block)] = recv(left, tag).payload;
  }
  return blocks;
}

std::vector<Bytes> Rank::alltoallv(std::vector<Bytes> out) {
  const int p = size();
  if (static_cast<int>(out.size()) != p)
    throw std::invalid_argument("parc::alltoallv: need one payload per rank");
  tel::Span span("alltoallv", tel::Phase::kComm);
  const int tag = next_collective_tag(0);
  std::vector<Bytes> in(static_cast<std::size_t>(p));
  in[static_cast<std::size_t>(rank_)] = std::move(out[static_cast<std::size_t>(rank_)]);
  for (int d = 0; d < p; ++d) {
    if (d == rank_) continue;
    send(d, tag, out[static_cast<std::size_t>(d)]);
  }
  for (int i = 0; i < p - 1; ++i) {
    Message m = recv(kAnySource, tag);
    in[static_cast<std::size_t>(m.source)] = std::move(m.payload);
  }
  return in;
}

int Rank::am_register(AmHandler handler) {
  am_handlers_.push_back(std::move(handler));
  return static_cast<int>(am_handlers_.size()) - 1;
}

void Rank::am_post(int dst, int handler, std::span<const std::uint8_t> payload) {
  if (dst < 0 || dst >= size()) throw std::out_of_range("parc::am_post: bad destination");
  if (handler < 0 || handler >= static_cast<int>(am_handlers_.size()))
    throw std::out_of_range("parc::am_post: unregistered handler");
  Bytes& buf = am_batches_[static_cast<std::size_t>(dst)];
  const std::uint32_t h = static_cast<std::uint32_t>(handler);
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  const std::size_t pos = buf.size();
  buf.resize(pos + sizeof(h) + sizeof(n) + payload.size());
  std::memcpy(buf.data() + pos, &h, sizeof(h));
  std::memcpy(buf.data() + pos + sizeof(h), &n, sizeof(n));
  std::memcpy(buf.data() + pos + sizeof(h) + sizeof(n), payload.data(), payload.size());
  ++am_posted_;
  tel::count(tel::Counter::kAbmRecordsPosted);
  if (buf.size() >= am_batch_limit_) am_ship_batch(dst);
}

void Rank::am_ship_batch(int dst) {
  Bytes& buf = am_batches_[static_cast<std::size_t>(dst)];
  if (buf.empty()) return;
  if (!am_reliable_) {
    ++am_batches_sent_;
    tel::count(tel::Counter::kAbmBatchesSent);
    send(dst, kAmTag, buf);
    buf.clear();
    return;
  }
  AmOutChannel& oc = am_out_[static_cast<std::size_t>(dst)];
  const std::uint32_t nrecords = count_records(buf);
  if (oc.dead) {
    // Bounded retries already gave up on this peer: account the records as
    // lost instead of queueing unbounded retransmission state.
    ++oc.abandoned_batches;
    oc.abandoned_records += nrecords;
    am_abandoned_ += nrecords;
    tel::count(tel::Counter::kAbmAbandonedRecords, nrecords);
    buf.clear();
    return;
  }
  AmWireHeader h;
  h.seq = oc.next_seq++;
  h.ack = am_in_[static_cast<std::size_t>(dst)].expected;
  am_in_[static_cast<std::size_t>(dst)].ack_pending = false;  // piggybacked
  h.checksum = fnv1a64(buf);
  h.nbytes = static_cast<std::uint32_t>(buf.size());
  h.nrecords = nrecords;
  Bytes wire(sizeof h + buf.size());
  std::memcpy(wire.data(), &h, sizeof h);
  std::memcpy(wire.data() + sizeof h, buf.data(), buf.size());
  buf.clear();
  ++am_batches_sent_;
  tel::count(tel::Counter::kAbmBatchesSent);
  send(dst, kAmTag, wire);
  oc.unacked.push_back({h.seq, std::move(wire), nrecords, 0,
                        am_tick_ + static_cast<std::uint64_t>(am_retry_.base_timeout_ticks)});
}

void Rank::am_flush() {
  for (int d = 0; d < size(); ++d) am_ship_batch(d);
}

std::size_t Rank::am_dispatch_records(int source, std::span<const std::uint8_t> records) {
  std::size_t dispatched = 0;
  std::size_t pos = 0;
  while (pos + 8 <= records.size()) {
    std::uint32_t h = 0, n = 0;
    std::memcpy(&h, records.data() + pos, sizeof(h));
    std::memcpy(&n, records.data() + pos + 4, sizeof(n));
    pos += 8;
    if (pos + n > records.size()) break;  // truncated tail: drop, don't overread
    std::span<const std::uint8_t> body(records.data() + pos, n);
    pos += n;
    am_handlers_.at(h)(*this, source, body);
    ++am_dispatched_;
    ++dispatched;
  }
  tel::count(tel::Counter::kAbmRecordsDispatched, dispatched);
  return dispatched;
}

void Rank::am_send_ack(int src) {
  // Cumulative ack: "I have dispatched every batch below `expected`".
  const std::uint64_t ack = am_in_[static_cast<std::size_t>(src)].expected;
  send_value(src, kAmAckTag, ack);
  ++am_acks_sent_;
  tel::count(tel::Counter::kAbmAcksSent);
  am_in_[static_cast<std::size_t>(src)].ack_pending = false;
}

void Rank::am_abandon_channel(int dst) {
  AmOutChannel& oc = am_out_[static_cast<std::size_t>(dst)];
  // Everything queued behind the failed batch is stuck behind its sequence
  // gap at the receiver and can never be dispatched in order: give it all up
  // at once and refuse future traffic so memory stays bounded.
  for (const auto& u : oc.unacked) {
    ++oc.abandoned_batches;
    oc.abandoned_records += u.nrecords;
    am_abandoned_ += u.nrecords;
    tel::count(tel::Counter::kAbmAbandonedRecords, u.nrecords);
  }
  oc.unacked.clear();
  oc.dead = true;
  tel::instant("abm_channel_dead", tel::Phase::kComm, static_cast<std::uint64_t>(dst));
}

void Rank::am_progress() {
  ++am_tick_;
  // Acks first: they retire retransmission state before timers are checked.
  Message m;
  while (try_recv(m, kAnySource, kAmAckTag)) {
    if (m.payload.size() != sizeof(std::uint64_t)) {
      ++am_corrupt_batches_;  // truncated ack: ignore, a later one supersedes it
      tel::count(tel::Counter::kAbmCorruptBatches);
      continue;
    }
    const std::uint64_t ack = m.as<std::uint64_t>();
    AmOutChannel& oc = am_out_[static_cast<std::size_t>(m.source)];
    while (!oc.unacked.empty() && oc.unacked.front().seq < ack) oc.unacked.pop_front();
  }
  // Retransmit the oldest unacked batch per channel once its deadline passes
  // (go-back-one: the cumulative ack scheme re-fills exactly the gap).
  for (int d = 0; d < size(); ++d) {
    AmOutChannel& oc = am_out_[static_cast<std::size_t>(d)];
    if (oc.unacked.empty() || oc.unacked.front().retry_at_tick > am_tick_) continue;
    auto& u = oc.unacked.front();
    if (u.attempts >= am_retry_.max_attempts) {
      am_abandon_channel(d);
      continue;
    }
    ++u.attempts;
    ++oc.retransmits;
    tel::count(tel::Counter::kAbmRetransmits);
    tel::instant("abm_retransmit", tel::Phase::kComm, u.seq);
    send(d, kAmTag, u.wire);
    const int shift = std::min(u.attempts, am_retry_.max_backoff_shift);
    u.retry_at_tick =
        am_tick_ + (static_cast<std::uint64_t>(am_retry_.base_timeout_ticks) << shift);
  }
}

std::size_t Rank::am_poll() {
  std::size_t dispatched = 0;
  if (am_reliable_) am_progress();
  const auto mark_ack_due = [this](AmInChannel& ic) {
    if (!ic.ack_pending) {
      ic.ack_pending = true;
      ic.ack_pending_since = am_tick_;
    }
  };
  Message m;
  while (try_recv(m, kAnySource, kAmTag)) {
    if (!am_reliable_) {
      dispatched += am_dispatch_records(m.source, m.payload);
      continue;
    }
    AmInChannel& ic = am_in_[static_cast<std::size_t>(m.source)];
    AmWireHeader h;
    if (m.payload.size() < sizeof h) {
      ++am_corrupt_batches_;
      tel::count(tel::Counter::kAbmCorruptBatches);
      continue;
    }
    std::memcpy(&h, m.payload.data(), sizeof h);
    std::span<const std::uint8_t> records(m.payload.data() + sizeof h,
                                          m.payload.size() - sizeof h);
    if (records.size() != h.nbytes || fnv1a64(records) != h.checksum) {
      ++am_corrupt_batches_;  // truncated or corrupted: sender will retransmit
      tel::count(tel::Counter::kAbmCorruptBatches);
      continue;
    }
    // A validated batch carries the reverse channel's cumulative ack for free.
    AmOutChannel& oc = am_out_[static_cast<std::size_t>(m.source)];
    while (!oc.unacked.empty() && oc.unacked.front().seq < h.ack) oc.unacked.pop_front();
    if (h.seq < ic.expected) {
      // Already dispatched (retransmit raced the ack, or duplication fault).
      ++am_dup_batches_;
      tel::count(tel::Counter::kAbmDuplicateBatches);
      mark_ack_due(ic);
      continue;
    }
    if (h.seq > ic.expected) {
      ++am_ooo_batches_;
      tel::count(tel::Counter::kAbmOutOfOrderBatches);
      if (ic.out_of_order.size() < am_retry_.max_ooo_batches)
        ic.out_of_order.emplace(h.seq, Bytes(records.begin(), records.end()));
      mark_ack_due(ic);  // duplicate cumulative ack: tells sender the gap
      continue;
    }
    dispatched += am_dispatch_records(m.source, records);
    ++ic.expected;
    // Drain whatever the gap was hiding.
    for (auto it = ic.out_of_order.begin();
         it != ic.out_of_order.end() && it->first == ic.expected;) {
      dispatched += am_dispatch_records(m.source, it->second);
      ++ic.expected;
      it = ic.out_of_order.erase(it);
    }
    // Discard stale buffered batches a retransmission already covered.
    ic.out_of_order.erase(ic.out_of_order.begin(),
                          ic.out_of_order.lower_bound(ic.expected));
    mark_ack_due(ic);
  }
  if (am_reliable_) {
    // Standalone acks go out only once they have aged past ack_delay_ticks
    // without a reverse-direction batch piggybacking them first.
    for (int s = 0; s < size(); ++s) {
      const AmInChannel& ic = am_in_[static_cast<std::size_t>(s)];
      if (ic.ack_pending &&
          am_tick_ >= ic.ack_pending_since + static_cast<std::uint64_t>(am_retry_.ack_delay_ticks))
        am_send_ack(s);
    }
  }
  // Health sampling rides the poll loop: every rank polls while it waits, so
  // snapshots land exactly where congestion happens (deterministic in ticks,
  // not wall time). sample_tick() is a relaxed-load no-op when disabled.
  if (tel::sample_tick()) am_sample_health();
  return dispatched;
}

void Rank::am_sample_health() {
  std::uint64_t backlog_batches = 0, backlog_bytes = 0, retry_batches = 0;
  for (const AmOutChannel& oc : am_out_) {
    backlog_batches += oc.unacked.size();
    for (const auto& u : oc.unacked) {
      backlog_bytes += u.wire.size();
      if (u.attempts > 0) ++retry_batches;
    }
  }
  std::uint64_t ooo_batches = 0;
  for (const AmInChannel& ic : am_in_) ooo_batches += ic.out_of_order.size();
  std::uint64_t pending_bytes = 0;
  for (const Bytes& b : am_batches_) pending_bytes += b.size();
  tel::gauge_set(tel::Gauge::kAbmSendBacklogBatches, static_cast<double>(backlog_batches));
  tel::gauge_set(tel::Gauge::kAbmSendBacklogBytes, static_cast<double>(backlog_bytes));
  tel::gauge_set(tel::Gauge::kAbmRetryBacklogBatches, static_cast<double>(retry_batches));
  tel::gauge_set(tel::Gauge::kAbmRecvOooBatches, static_cast<double>(ooo_batches));
  tel::gauge_set(tel::Gauge::kAbmPendingPostBytes, static_cast<double>(pending_bytes));
  tel::sample_now();
}

void Rank::am_quiesce() {
  struct Counts {
    std::uint64_t posted;
    std::uint64_t settled;  // dispatched at the receiver or abandoned at the sender
    Counts operator+(const Counts& o) const {
      return {posted + o.posted, settled + o.settled};
    }
  };
  for (;;) {
    am_flush();
    while (am_poll() > 0) am_flush();
    am_flush();
    const Counts totals =
        allreduce(Counts{am_posted_, am_dispatched_ + am_abandoned_}, Sum{});
    // A record can be *both* dispatched and abandoned (delivered, but every
    // ack was lost): >= rather than == keeps that case terminating.
    if (totals.settled >= totals.posted) return;
  }
}

AmHealthReport Rank::am_health() const {
  AmHealthReport r;
  r.acks_sent = am_acks_sent_;
  r.duplicate_batches = am_dup_batches_;
  r.corrupt_batches = am_corrupt_batches_;
  r.out_of_order_batches = am_ooo_batches_;
  for (int d = 0; d < size(); ++d) {
    const AmOutChannel& oc = am_out_[static_cast<std::size_t>(d)];
    r.retransmits += oc.retransmits;
    r.abandoned_batches += oc.abandoned_batches;
    r.abandoned_records += oc.abandoned_records;
    if (oc.retransmits > 0 || oc.abandoned_batches > 0 || oc.dead)
      r.peers.push_back({d, oc.retransmits, oc.abandoned_batches,
                         oc.abandoned_records, oc.dead});
  }
  return r;
}

}  // namespace hotlib::parc
