#include "hot/dtree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <deque>
#include <unordered_set>

#include "telemetry/sample.hpp"
#include "telemetry/trace.hpp"

namespace hotlib::hot {

using morton::Key;

namespace {

// Wire formats (POD, packed manually into AM payloads).
struct CrownMsg {
  Key key;
  double mass;
  Vec3d weighted_pos;
  std::array<double, 6> second;
  std::uint32_t child_mask;
};

struct ReplyHeader {
  Key key;
  CellRecord rec;
  std::uint32_t child_mask;
  std::uint32_t leaf;
  std::uint64_t nbodies;
};

bool accept_record(const Mac& mac, const CellRecord& rec, double dist,
                   InteractionTally& tally) {
  ++tally.mac_tests;
  Cell tmp;
  tmp.b2 = rec.b2;
  tmp.bmax = rec.bmax;
  return mac.accept(tmp, dist);
}

}  // namespace

DistributedTree::DistributedTree(parc::Rank& rank, const Tree& tree,
                                 std::span<const Vec3d> pos,
                                 std::span<const double> mass,
                                 std::vector<KeyRange> ranges,
                                 const morton::Domain& domain)
    : rank_(rank), tree_(tree), pos_(pos), mass_(mass), ranges_(std::move(ranges)),
      domain_(domain) {
  assert(static_cast<int>(ranges_.size()) == rank_.size());

  // AM handlers: requests are single keys; replies carry the cell payload.
  am_reply_ = rank_.am_register([this](parc::Rank&, int, std::span<const std::uint8_t> b) {
    ReplyHeader h;
    std::memcpy(&h, b.data(), sizeof h);
    RemoteCell rc;
    rc.rec = h.rec;
    rc.child_mask = static_cast<std::uint8_t>(h.child_mask);
    rc.leaf = h.leaf != 0;
    rc.bodies.resize(h.nbodies);
    if (h.nbodies > 0)  // an empty vector's data() may be null
      std::memcpy(rc.bodies.data(), b.data() + sizeof h,
                  h.nbodies * sizeof(SourceRecord));
    cache_[h.key] = std::move(rc);
    arrived_keys_.push_back(h.key);
  });
  am_request_ = rank_.am_register(
      [this](parc::Rank&, int source, std::span<const std::uint8_t> b) {
        Key k;
        std::memcpy(&k, b.data(), sizeof k);
        serve_request(source, k);
      });

  setup_crown(tree);
}

int DistributedTree::owner_of(Key key) const {
  const int lv = morton::level(key);
  const Key lo = key << (3 * (morton::kMaxLevel - lv));
  // Ranges partition the key space; find the one containing lo.
  int r = 0;
  while (r + 1 < static_cast<int>(ranges_.size()) &&
         lo >= ranges_[static_cast<std::size_t>(r)].hi)
    ++r;
  return r;
}

bool DistributedTree::crosses(Key key) const {
  const int lv = morton::level(key);
  const int shift = 3 * (morton::kMaxLevel - lv);
  const Key lo = key << shift;
  const Key span = shift >= 64 ? ~Key{0} : ((Key{1} << shift) - 1);
  const Key hi = lo + span;  // inclusive
  const int lo_owner = owner_of(key);
  int hi_owner = lo_owner;
  while (hi_owner + 1 < static_cast<int>(ranges_.size()) &&
         hi >= ranges_[static_cast<std::size_t>(hi_owner)].hi)
    ++hi_owner;
  return lo_owner != hi_owner;
}

void DistributedTree::setup_crown(const Tree& tree) {
  // The crown is the set of keys whose interval spans a splitter boundary —
  // at most kMaxLevel cells per internal splitter (the ancestors common to
  // the last key below and the first key above the boundary). Every rank
  // contributes the raw moments of *its bodies* inside each crossing key's
  // interval (independent of its local tree depth there, so no mass is ever
  // dropped when a rank's tree is shallow near a boundary), plus the octant
  // mask of where its bodies sit; masks are unioned in the merge.
  std::vector<CrownMsg> mine;
  const int p = rank_.size();
  if (p > 1) {
    std::unordered_set<Key> crossing;
    for (int r = 1; r < p; ++r) {
      const Key s = ranges_[static_cast<std::size_t>(r)].lo;
      if (s == 0) continue;
      const Key a = s - 1, b = s;
      for (int lv = 0; lv < morton::kMaxLevel; ++lv) {
        const int shift = 3 * (morton::kMaxLevel - lv);
        const Key ka = a >> shift, kb = b >> shift;
        if (ka == kb && ka >= morton::kRootKey) crossing.insert(ka);
      }
    }
    const auto keys = tree.sorted_keys();
    for (Key k : crossing) {
      const int lv = morton::level(k);
      const int shift = 3 * (morton::kMaxLevel - lv);
      const Key lo = k << shift;
      const Key span = (Key{1} << shift) - 1;
      const Key hi = lo + span;  // inclusive
      const auto first = std::lower_bound(keys.begin(), keys.end(), lo);
      const auto last = hi == ~Key{0} ? keys.end()
                                      : std::upper_bound(keys.begin(), keys.end(), hi);
      if (first == last) continue;
      CrownMsg m{};
      m.key = k;
      RawMoments raw;
      const int cshift = 3 * (morton::kMaxLevel - (lv + 1));
      for (auto it = first; it != last; ++it) {
        const auto t = static_cast<std::size_t>(it - keys.begin());
        const std::uint32_t orig = tree.order()[t];
        raw.accumulate(pos_[orig], mass_[orig]);
        m.child_mask |= 1u << ((*it >> cshift) & 7);
      }
      m.mass = raw.mass;
      m.weighted_pos = raw.weighted_pos;
      m.second = raw.second;
      mine.push_back(m);
    }
  }

  const auto all = rank_.allgather_vector<CrownMsg>(mine);
  std::unordered_map<Key, std::pair<RawMoments, std::uint32_t>> merged;
  for (const auto& block : all)
    for (const CrownMsg& m : block) {
      auto& slot = merged[m.key];
      slot.first.mass += m.mass;
      slot.first.weighted_pos += m.weighted_pos;
      for (int i = 0; i < 6; ++i) slot.first.second[static_cast<std::size_t>(i)] +=
          m.second[static_cast<std::size_t>(i)];
      slot.second |= m.child_mask;
    }
  crown_.clear();
  for (const auto& [key, data] : merged) {
    Cell tmp;
    const morton::CellBox box = morton::cell_box(key, domain_);
    finalize_moments(data.first, box.half * std::sqrt(3.0), tmp);
    CrownCell cc;
    cc.rec = {tmp.com, tmp.mass, tmp.quad, tmp.b2, tmp.bmax};
    cc.child_mask = static_cast<std::uint8_t>(data.second);
    crown_[key] = cc;
  }
}

void DistributedTree::serve_request(int requester, Key key) {
  ReplyHeader h{};
  h.key = key;
  h.leaf = 1;  // default: empty leaf (walker drops it)
  std::vector<SourceRecord> bodies;

  // The requested key may sit *below* a local leaf (the requester descended
  // a crown mask deeper than this rank's tree). Walk up to the deepest
  // existing ancestor: if it is a leaf, answer with its bodies filtered to
  // the requested interval; if it is internal, the region is empty.
  Key probe = key;
  std::uint32_t idx = tree_.find_index(probe);
  while (idx == KeyHashTable::kNotFound && probe > morton::kRootKey) {
    probe = morton::parent(probe);
    idx = tree_.find_index(probe);
  }
  if (idx != KeyHashTable::kNotFound) {
    const Cell& c = tree_.cells()[idx];
    if (probe == key) {
      h.rec = {c.com, c.mass, c.quad, c.b2, c.bmax};
      h.leaf = c.is_leaf() ? 1 : 0;
      for (std::uint32_t k = 0; k < c.nchildren; ++k)
        h.child_mask |= 1u << morton::octant(tree_.cells()[c.first_child + k].key);
      if (c.is_leaf()) {
        for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t) {
          const std::uint32_t orig = tree_.order()[t];
          bodies.push_back({pos_[orig], mass_[orig]});
        }
      }
    } else if (c.is_leaf()) {
      const int shift = 3 * (morton::kMaxLevel - morton::level(key));
      const Key lo = key << shift;
      const Key hi = lo + ((Key{1} << shift) - 1);
      const auto keys = tree_.sorted_keys();
      RawMoments raw;
      double bmax = 0;
      std::vector<std::uint32_t> members;
      for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t) {
        const Key bk = keys[t];
        if (bk < lo || bk > hi) continue;
        const std::uint32_t orig = tree_.order()[t];
        members.push_back(orig);
        raw.accumulate(pos_[orig], mass_[orig]);
        bodies.push_back({pos_[orig], mass_[orig]});
      }
      if (!members.empty()) {
        Cell tmp;
        finalize_moments(raw, 0.0, tmp);
        for (std::uint32_t orig : members)
          bmax = std::max(bmax, norm(pos_[orig] - tmp.com));
        tmp.bmax = bmax;
        h.rec = {tmp.com, tmp.mass, tmp.quad, tmp.b2, tmp.bmax};
      }
      h.leaf = 1;
    }
    // else: internal ancestor without the requested child => empty region.
  }
  h.nbodies = bodies.size();
  parc::Bytes payload(sizeof h + bodies.size() * sizeof(SourceRecord));
  std::memcpy(payload.data(), &h, sizeof h);
  if (!bodies.empty())  // an empty vector's data() may be null
    std::memcpy(payload.data() + sizeof h, bodies.data(),
                bodies.size() * sizeof(SourceRecord));
  rank_.am_post(requester, am_reply_, payload);
  telemetry::count(telemetry::Counter::kDtreeRepliesServed);
  if (active_stats_ != nullptr) ++active_stats_->replies_served;
}

Key DistributedTree::advance(Walk& w, const Mac& mac, Stats& stats) {
  const auto& cells = tree_.cells();
  const Cell& group = cells[w.leaf_index];
  const Vec3d gc = group.com;
  const double gr = group.bmax;

  while (!w.stack.empty()) {
    const Entry e = w.stack.back();
    w.stack.pop_back();

    if (e.local_index >= 0) {
      const std::uint32_t ci = static_cast<std::uint32_t>(e.local_index);
      const Cell& c = cells[ci];
      if (c.body_count == 0) continue;
      if (ci == w.leaf_index) {
        w.local.self_begin = w.local.bodies.size();
        for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t)
          w.local.bodies.push_back(tree_.order()[t]);
        continue;
      }
      const double dist = norm(c.com - gc) - gr;
      ++stats.tally.mac_tests;
      if (mac.accept(c, dist)) {
        w.local.cells.push_back(ci);
        continue;
      }
      if (c.is_leaf()) {
        for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t)
          w.local.bodies.push_back(tree_.order()[t]);
        continue;
      }
      ++stats.tally.cells_opened;
      for (std::uint32_t k = 0; k < c.nchildren; ++k)
        w.stack.push_back({0, static_cast<std::int32_t>(c.first_child + k)});
      continue;
    }

    const Key k = e.key;
    // Crown (replicated shared cells)?
    if (const auto it = crown_.find(k); it != crown_.end()) {
      const CrownCell& cc = it->second;
      if (cc.rec.mass <= 0) continue;
      const double dist = norm(cc.rec.com - gc) - gr;
      if (accept_record(mac, cc.rec, dist, stats.tally)) {
        w.remote.cells.push_back(cc.rec);
        continue;
      }
      ++stats.tally.cells_opened;
      for (int o = 0; o < 8; ++o)
        if (cc.child_mask & (1u << o)) w.stack.push_back({morton::child(k, o), -1});
      continue;
    }
    // Locally owned?
    if (owner_of(k) == rank_.rank()) {
      const std::uint32_t idx = tree_.find_index(k);
      if (idx != KeyHashTable::kNotFound) {
        w.stack.push_back({0, static_cast<std::int32_t>(idx)});
        continue;
      }
      // Below a local leaf (a crown mask descended past our tree depth):
      // take the leaf ancestor's bodies inside the interval directly.
      Key probe = k;
      std::uint32_t aidx = KeyHashTable::kNotFound;
      while (aidx == KeyHashTable::kNotFound && probe > morton::kRootKey) {
        probe = morton::parent(probe);
        aidx = tree_.find_index(probe);
      }
      if (aidx != KeyHashTable::kNotFound && tree_.cells()[aidx].is_leaf()) {
        const Cell& leaf = tree_.cells()[aidx];
        const int shift = 3 * (morton::kMaxLevel - morton::level(k));
        const Key lo = k << shift;
        const Key hi = lo + ((Key{1} << shift) - 1);
        const auto keys = tree_.sorted_keys();
        for (std::uint32_t t = leaf.body_begin; t < leaf.body_begin + leaf.body_count;
             ++t)
          if (keys[t] >= lo && keys[t] <= hi) w.local.bodies.push_back(tree_.order()[t]);
      }
      continue;
    }
    // Remote: cache or request.
    const auto it = cache_.find(k);
    if (it == cache_.end()) {
      w.stack.push_back(e);  // retry after the reply arrives
      return k;
    }
    ++stats.cache_hits;
    const RemoteCell& rc = it->second;
    if (rc.rec.mass <= 0 && rc.bodies.empty()) continue;
    const double dist = norm(rc.rec.com - gc) - gr;
    if (accept_record(mac, rc.rec, dist, stats.tally)) {
      w.remote.cells.push_back(rc.rec);
      continue;
    }
    if (rc.leaf) {
      w.remote.bodies.insert(w.remote.bodies.end(), rc.bodies.begin(), rc.bodies.end());
      continue;
    }
    ++stats.tally.cells_opened;
    for (int o = 0; o < 8; ++o)
      if (rc.child_mask & (1u << o)) w.stack.push_back({morton::child(k, o), -1});
  }
  return 0;
}

DistributedTree::Stats DistributedTree::traverse(const Mac& mac, const GroupEval& eval) {
  telemetry::Span span("dtree_traverse", telemetry::Phase::kTraverse);
  Stats stats;
  stats.crown_cells = crown_.size();
  active_stats_ = &stats;

  std::vector<Walk> walks;
  for (std::uint32_t li : leaf_indices(tree_)) {
    Walk w;
    w.leaf_index = li;
    w.stack.push_back({morton::kRootKey, -1});
    walks.push_back(std::move(w));
  }
  std::deque<std::size_t> runnable;
  for (std::size_t i = 0; i < walks.size(); ++i) runnable.push_back(i);
  std::unordered_map<Key, std::vector<std::size_t>> waiting;
  std::unordered_set<Key> pending;
  std::size_t completed = 0;

  auto drain_arrivals = [&] {
    for (Key k : arrived_keys_) {
      pending.erase(k);
      const auto it = waiting.find(k);
      if (it == waiting.end()) continue;
      for (std::size_t id : it->second) runnable.push_back(id);
      waiting.erase(it);
    }
    arrived_keys_.clear();
  };

  // Liveness under a faulty fabric: if this rank sits idle with outstanding
  // key requests for many synchronization rounds (no reply can take that
  // long unless traffic was lost beyond what the retry layer recovered),
  // re-request the pending keys; after a bounded number of such sweeps the
  // keys are declared lost and their regions treated as empty, so the
  // traversal terminates with stats.lost_keys set instead of hanging.
  constexpr std::uint64_t kIdleRoundsBeforeRerequest = 64;
  constexpr std::uint64_t kMaxRerequestRounds = 4;
  std::uint64_t idle_rounds = 0;

  for (;;) {
    while (!runnable.empty()) {
      const std::size_t id = runnable.front();
      runnable.pop_front();
      const Key missing = advance(walks[id], mac, stats);
      if (missing == 0) {
        eval(walks[id].leaf_index, walks[id].local, walks[id].remote);
        walks[id].local = {};
        walks[id].remote = {};
        ++completed;
        continue;
      }
      ++stats.suspensions;
      waiting[missing].push_back(id);
      if (pending.insert(missing).second) {
        rank_.am_post_value(owner_of(missing), am_request_, missing);
        ++stats.requests_sent;
      }
    }
    rank_.am_flush();
    rank_.am_poll();
    rank_.am_flush();  // ship replies generated while polling
    drain_arrivals();
    if (!runnable.empty()) {
      idle_rounds = 0;
      continue;
    }

    // Locally idle: either all groups finished or we are waiting on replies.
    // Synchronize; keep serving remote requests until everyone is done.
    const std::uint64_t done = completed == walks.size() ? 1 : 0;
    if (rank_.allreduce(done, parc::Min{}) == 1) break;
    rank_.am_poll();
    rank_.am_flush();
    drain_arrivals();
    if (!runnable.empty() || pending.empty()) {
      idle_rounds = 0;
      continue;
    }
    if (++idle_rounds < kIdleRoundsBeforeRerequest) continue;
    idle_rounds = 0;
    if (stats.rerequest_rounds < kMaxRerequestRounds) {
      ++stats.rerequest_rounds;
      for (Key k : pending) {
        rank_.am_post_value(owner_of(k), am_request_, k);
        ++stats.requests_sent;
      }
      rank_.am_flush();
    } else {
      // Give up: synthesize empty regions so every waiting walk completes.
      for (Key k : pending) {
        RemoteCell empty;
        empty.leaf = true;
        cache_[k] = std::move(empty);
        arrived_keys_.push_back(k);
        ++stats.lost_keys;
      }
      drain_arrivals();
    }
  }
  active_stats_ = nullptr;
  // A cache lookup that finds the key is a hash hit; every miss is exactly
  // what turned into a remote key request.
  telemetry::count(telemetry::Counter::kHashHits, stats.cache_hits);
  telemetry::count(telemetry::Counter::kHashMisses, stats.requests_sent);
  // Resident remote-cell cache after this traversal — together with the
  // local-tree gauges this is the rank's whole tree memory footprint.
  telemetry::gauge_set(telemetry::Gauge::kDtreeCacheCells,
                       static_cast<double>(cache_.size()));
  span.set_arg(stats.requests_sent);
  return stats;
}

}  // namespace hotlib::hot
