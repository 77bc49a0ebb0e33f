// concurrent_hash_table.hpp — the concurrent cell index: an open-addressing
// key -> cell-index table whose reads are lock-free and whose writes take
// striped locks, so traversals, the health sampler and point/kNN queries can
// probe the table while refinement or a LET import is still inserting cells.
//
// "A hash table is used in order to translate the key into a pointer to the
// location where the cell data are stored." — the paper hangs the whole HOT
// name space off this one structure, which makes it the last global stop
// between the task pool and the serving layer. The design borrows from the
// BTreeOLC family (optimistic, version-validated reads that retry instead of
// blocking) and from Blink-hash's handling of insert bursts (writers touch
// one bucket under a fine-grained lock; capacity changes migrate to a fresh
// table rather than reorganizing in place), since tree refinement is exactly
// that insert-heavy load shape.
//
// Layout and protocol
//   * Slots live in an immutable-capacity Table allocated on the heap and
//     published through an atomic pointer. Readers load the pointer once and
//     probe that table; they never take a lock.
//   * A slot is two atomics: the 64-bit key and the 32-bit value. Publication
//     order is claim-then-fill: a writer claims an empty slot with a
//     compare-exchange on the key (release), then stores the value (release).
//     kNotFound doubles as the "value not yet written" sentinel, which is why
//     inserting kNotFound as a value is forbidden (the tree stores cell
//     indices, which can never be 0xFFFFFFFF).
//   * Readers load the key with acquire and, on a match, the value with
//     acquire. A sentinel value means the insert has not linearized yet and
//     reads as a miss. Keys are never removed (clear() requires quiescence),
//     so a nonzero key is immutable — probe decisions are stable, and the
//     acquire/release chain through the claiming CAS makes every earlier
//     claim in a probe run visible to any reader that can see a later one.
//   * Writers serialize per key through a striped mutex chosen by the key's
//     home bucket: concurrent inserts of the same key take the same stripe,
//     so a key can never be claimed twice; claims of one empty slot from
//     different stripes are arbitrated by the key CAS itself.
//   * Grow is copy-based: the grower takes the grow mutex plus every stripe
//     of the current table (excluding all writers), migrates the fully
//     published slots into a table of twice the capacity, publishes the new
//     table pointer (release). The old table is retired,
//     not freed: readers that loaded the old pointer keep traversing a frozen
//     table whose contents are exactly the pre-grow state, which is a
//     linearizable answer for any find that began before the swap. Retired
//     tables are reclaimed at the next quiescent point (clear/destruction);
//     their total size is bounded by the current table (geometric halving).
//   * A find that misses re-validates the table pointer: if a grow swapped it
//     mid-probe, it retries on the fresh table (the one optimistic retry in
//     the scheme — never a block, and a matching pointer cannot be ABA since
//     retired tables are only reclaimed at quiescence).
//
// Semantics vs the single-writer KeyHashTable, the test oracle in
// tests/key_hash_table.hpp: the two are behaviourally identical when used single-threaded — same Fibonacci
// hash, same 0.7 load-factor trip point checked before duplicate detection,
// same capacity trajectory, and the migration charges probes/operations the
// way the old rehash did, so even the probe gauges match. The differential
// harness in tests/test_hash_table.cpp holds the pair to that contract.
//
// Probe/operation gauges are per-thread cache-line-padded relaxed atomics
// updated with plain load+store (the cell is thread-owned, so no lock-prefixed
// instruction ever lands on the find hot path), which fixes the pre-existing
// `mutable` data race the old table had when two readers shared it.
//
// Contracts: keys are nonzero; values are never kNotFound; clear(), move and
// destruction require external quiescence (no concurrent find/insert);
// find/insert may otherwise race freely. An unsynchronized reader may miss a
// racing insert (it linearizes the find first) — callers that need recency
// order the insert before the read themselves, e.g. via a task-pool join.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace hotlib::hot {

class ConcurrentKeyHashTable {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  explicit ConcurrentKeyHashTable(std::size_t expected = 64)
      : table_(new Table(capacity_for(expected))) {}

  ~ConcurrentKeyHashTable() { delete table_.load(std::memory_order_relaxed); }

  ConcurrentKeyHashTable(const ConcurrentKeyHashTable&) = delete;
  ConcurrentKeyHashTable& operator=(const ConcurrentKeyHashTable&) = delete;

  // Moves require quiescence on both sides (no concurrent find/insert) —
  // they exist so Tree stays movable, not for concurrent hand-off.
  ConcurrentKeyHashTable(ConcurrentKeyHashTable&& o) noexcept
      : table_(o.table_.exchange(nullptr, std::memory_order_relaxed)),
        retired_(std::move(o.retired_)),
        size_(o.size_.load(std::memory_order_relaxed)) {
    for (std::size_t i = 0; i < kStatStripes; ++i) {
      stats_[i].probes.store(o.stats_[i].probes.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
      stats_[i].ops.store(o.stats_[i].ops.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    o.size_.store(0, std::memory_order_relaxed);
  }
  ConcurrentKeyHashTable& operator=(ConcurrentKeyHashTable&& o) noexcept {
    if (this == &o) return *this;
    delete table_.load(std::memory_order_relaxed);
    table_.store(o.table_.exchange(nullptr, std::memory_order_relaxed),
                 std::memory_order_relaxed);
    retired_ = std::move(o.retired_);
    size_.store(o.size_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    for (std::size_t i = 0; i < kStatStripes; ++i) {
      stats_[i].probes.store(o.stats_[i].probes.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
      stats_[i].ops.store(o.stats_[i].ops.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    }
    o.size_.store(0, std::memory_order_relaxed);
    return *this;
  }

  // Reset to empty at the current capacity and reclaim retired tables.
  // Requires quiescence (the tree rebuilds through here, never mid-query).
  // Like the reference table, clear() keeps the cumulative probe/operation
  // gauges: they describe the table's lifetime, not one generation.
  void clear() {
    std::lock_guard<std::mutex> g(grow_mutex_);
    Table* t = table_.load(std::memory_order_relaxed);
    std::array<std::unique_lock<std::mutex>, kStripes> held;
    for (std::size_t s = 0; s < kStripes; ++s)
      held[s] = std::unique_lock<std::mutex>(t->stripes[s]);
    for (Slot& slot : t->slots) {
      slot.key.store(0, std::memory_order_relaxed);
      slot.value.store(kNotFound, std::memory_order_relaxed);
    }
    size_.store(0, std::memory_order_relaxed);
    retired_.clear();
  }

  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  std::size_t capacity() const {
    return table_.load(std::memory_order_acquire)->slots.size();
  }
  std::uint64_t probes() const {
    std::uint64_t sum = 0;
    for (const StatCell& c : stats_) sum += c.probes.load(std::memory_order_relaxed);
    return sum;
  }
  std::uint64_t operations() const {
    std::uint64_t sum = 0;
    for (const StatCell& c : stats_) sum += c.ops.load(std::memory_order_relaxed);
    return sum;
  }
  // Occupied fraction and probes per operation — the health-sampler gauges
  // (1.0 mean probe = every lookup hit its home slot). Race-free: reads are
  // relaxed sums over the padded per-stripe tallies.
  double load_factor() const {
    const std::size_t cap = capacity();
    return cap == 0 ? 0.0 : static_cast<double>(size()) / static_cast<double>(cap);
  }
  double mean_probe() const {
    const std::uint64_t ops = operations();
    return ops > 0 ? static_cast<double>(probes()) / static_cast<double>(ops) : 0.0;
  }

  // Insert key -> value; key must be nonzero, value must not be kNotFound.
  // Duplicate insert overwrites (a rebuilt cell replaces the cached copy from
  // a previous traversal). Thread-safe against concurrent insert and find.
  void insert(std::uint64_t key, std::uint32_t value) {
    assert(key != 0 && value != kNotFound);
    // Same trip point as the reference table, checked before duplicate
    // detection — the capacity trajectories must match exactly.
    Table* t = table_.load(std::memory_order_acquire);
    while ((size_.load(std::memory_order_relaxed) + 1) * 10 >= t->slots.size() * 7) {
      grow(t);
      t = table_.load(std::memory_order_acquire);
    }

    StatCell& stat = stat_cell();
    std::uint64_t probes = 0;
    for (;;) {
      const std::size_t home = t->index_of(key);
      std::unique_lock<std::mutex> lock(t->stripes[home & (kStripes - 1)]);
      // The table may have been swapped between the load and the lock; the
      // stripe belongs to the old (frozen) table then — restart on the new.
      Table* cur = table_.load(std::memory_order_acquire);
      if (cur != t) {
        lock.unlock();
        t = cur;
        continue;
      }
      std::size_t i = home;
      for (;;) {
        ++probes;
        Slot& s = t->slots[i];
        std::uint64_t k = s.key.load(std::memory_order_acquire);
        if (k == 0) {
          // Claim. Cross-stripe writers can race us to this slot, so the
          // claim itself is a CAS; same-key writers hold our stripe.
          if (s.key.compare_exchange_strong(k, key, std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
            s.value.store(value, std::memory_order_release);
            size_.fetch_add(1, std::memory_order_relaxed);
            stat.add(probes, 1);
            return;
          }
          // Lost the race; k now holds the winner's key — fall through.
        }
        if (k == key) {
          s.value.store(value, std::memory_order_release);
          stat.add(probes, 1);
          return;
        }
        i = (i + 1) & t->mask;
      }
    }
  }

  // Returns kNotFound when absent. Lock-free: one table-pointer load, a
  // linear probe, and a pointer re-validation on a miss (retry on the fresh
  // table if a grow swapped it mid-probe — never a block).
  std::uint32_t find(std::uint64_t key) const {
    StatCell& stat = stat_cell();
    std::uint64_t probes = 0;
    const Table* t = table_.load(std::memory_order_acquire);
    for (;;) {
      std::size_t i = t->index_of(key);
      for (;;) {
        ++probes;
        const Slot& s = t->slots[i];
        const std::uint64_t k = s.key.load(std::memory_order_acquire);
        if (k == key) {
          const std::uint32_t v = s.value.load(std::memory_order_acquire);
          stat.add(probes, 1);
          // Sentinel: the claiming insert has not linearized yet; the find
          // linearizes first and reports a miss.
          return v;  // v == kNotFound only in that in-flight window
        }
        if (k == 0) break;
        i = (i + 1) & t->mask;
      }
      // Miss. If the pointer moved, a grow migrated the table under the
      // probe; retry on the fresh table (optimistic read). A matching
      // pointer cannot be ABA: retired tables are only reclaimed at
      // quiescence, so a live table's address is never reused while any
      // reader is in flight.
      const Table* now = table_.load(std::memory_order_acquire);
      if (now == t) {
        stat.add(probes, 1);
        return kNotFound;
      }
      t = now;
    }
  }

  bool contains(std::uint64_t key) const { return find(key) != kNotFound; }

 private:
  // Writer lock striping. grow()/clear() hold every stripe plus the grow
  // mutex at once, and ThreadSanitizer's deadlock detector hard-caps a
  // thread at 64 simultaneously-held locks — 32 stripes keeps the exclusion
  // phase well under that while writers still spread across buckets.
  static constexpr std::size_t kStripes = 32;
  static constexpr std::size_t kStatStripes = 32;  // gauge tally striping

  struct Slot {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint32_t> value{kNotFound};
  };

  struct Table {
    explicit Table(std::size_t cap)
        : slots(cap), mask(cap - 1),
          shift(64 - std::countr_zero(cap)) {}
    std::vector<Slot> slots;
    std::size_t mask;
    int shift;
    std::array<std::mutex, kStripes> stripes;

    std::size_t index_of(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift) & mask;
    }
  };

  struct alignas(64) StatCell {
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> ops{0};
    // Tally with relaxed load+store, not fetch_add: each live thread owns its
    // cell (thread-local id), so the unlocked read-modify-write is exact, and
    // it keeps the find hot path free of lock-prefixed instructions. Should
    // more than kStatStripes threads ever share a cell, a tally may be lost —
    // tolerable for diagnostic gauges, and still race-free atomics.
    void add(std::uint64_t p, std::uint64_t o) {
      probes.store(probes.load(std::memory_order_relaxed) + p,
                   std::memory_order_relaxed);
      ops.store(ops.load(std::memory_order_relaxed) + o,
                std::memory_order_relaxed);
    }
  };

  static std::size_t capacity_for(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 7 < expected * 10) cap <<= 1;
    return cap;
  }

  StatCell& stat_cell() const {
    static std::atomic<unsigned> next_id{0};
    thread_local const unsigned id = next_id.fetch_add(1, std::memory_order_relaxed);
    return stats_[id & (kStatStripes - 1)];
  }

  // Copy-grow: exclude every writer, migrate into a double-capacity table,
  // publish, retire the old table for still-probing readers.
  void grow(Table* expected) {
    std::lock_guard<std::mutex> g(grow_mutex_);
    Table* t = table_.load(std::memory_order_relaxed);
    if (t != expected) return;  // someone else already grew
    std::array<std::unique_lock<std::mutex>, kStripes> held;
    for (std::size_t s = 0; s < kStripes; ++s)
      held[s] = std::unique_lock<std::mutex>(t->stripes[s]);

    auto next = std::make_unique<Table>(t->slots.size() * 2);
    // Migration charges ops/probes exactly like the reference rehash (which
    // reinserted through insert()), so the mean-probe gauge stays comparable
    // and the differential harness can require equality.
    StatCell& stat = stat_cell();
    for (const Slot& s : t->slots) {
      const std::uint64_t k = s.key.load(std::memory_order_relaxed);
      if (k == 0) continue;
      // Writers are excluded, so every claimed slot is fully published.
      const std::uint32_t v = s.value.load(std::memory_order_relaxed);
      std::size_t i = next->index_of(k);
      std::uint64_t probes = 1;
      while (next->slots[i].key.load(std::memory_order_relaxed) != 0) {
        i = (i + 1) & next->mask;
        ++probes;
      }
      next->slots[i].key.store(k, std::memory_order_relaxed);
      next->slots[i].value.store(v, std::memory_order_relaxed);
      stat.add(probes, 1);
    }

    retired_.emplace_back(t);
    table_.store(next.release(), std::memory_order_release);
  }

  std::atomic<Table*> table_;
  std::mutex grow_mutex_;
  // Frozen pre-grow tables, kept alive for readers that loaded them before
  // the swap; reclaimed at the next quiescent clear()/destruction. Total
  // retired memory is bounded by one current table (sizes halve going back).
  std::vector<std::unique_ptr<Table>> retired_;
  std::atomic<std::size_t> size_{0};
  mutable std::array<StatCell, kStatStripes> stats_{};
};

}  // namespace hotlib::hot
