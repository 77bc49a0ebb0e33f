// test_hash_table.cpp — the concurrent cell index held to the retained
// sequential reference, two ways:
//
//  1. A differential/property harness: randomized op sequences (insert,
//     overwrite, find, clear, grow storms; adversarial keys including ~0ull
//     and sets engineered to collide under the Fibonacci hash) are replayed
//     against both KeyHashTable (the single-writer original) and
//     ConcurrentKeyHashTable, asserting identical results, identical final
//     contents, and — because the concurrent table's migration charges
//     probes/operations exactly like the reference rehash — identical
//     capacity trajectories and probe gauges.
//
//  2. Randomized concurrent stress: reader threads run find/contains during
//     continuous insert/grow storms and check for lost keys (everything
//     published before the read must be found) and torn slots (every hit
//     must return the exact value written for that key, never a mix). These
//     tests carry the `tsan` ctest label and run under ThreadSanitizer via
//     scripts/tsan.sh; one of them is the regression test for the gauge
//     data race the old table had (mutable probes_/ops_ mutated from const
//     find()), which the striped relaxed-atomic tallies fix.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "hot/concurrent_hash_table.hpp"
#include "key_hash_table.hpp"
#include "util/rng.hpp"

namespace hotlib::hot {
namespace {

constexpr std::uint64_t kFib = 0x9E3779B97F4A7C15ULL;

// Multiplicative inverse of the Fibonacci multiplier mod 2^64 (Newton
// iteration doubles the correct low bits each step; 6 steps cover 64 bits
// from the 5 bits every odd number gets for free).
constexpr std::uint64_t fib_inverse() {
  std::uint64_t x = kFib;  // correct to >= 5 low bits
  for (int i = 0; i < 6; ++i) x *= 2 - kFib * x;
  return x;
}
static_assert(kFib * fib_inverse() == 1, "inverse of the Fibonacci multiplier");

// Keys whose Fibonacci-hash home slots collide at (and below) `cap_bits`
// table bits: products that share their top cap_bits and differ only below,
// mapped back through the inverse. These pile onto one home slot in a small
// table and shear apart as it grows — the adversarial probe-run shape.
std::vector<std::uint64_t> colliding_keys(std::size_t n, int cap_bits,
                                          std::uint64_t salt) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  const std::uint64_t base = (salt | 1) << (64 - cap_bits);
  // Odd products give odd keys (the inverse is odd), which the stress tests
  // rely on to keep their "absent" probe keys (always even) disjoint.
  for (std::uint64_t i = 0; i < n; ++i)
    keys.push_back((base + 2 * i + 1) * fib_inverse());
  return keys;
}

// A deterministic per-key value (kept away from the kNotFound sentinel).
std::uint32_t value_of(std::uint64_t key) {
  return static_cast<std::uint32_t>((key * 0x2545F4914F6CDD1DULL) >> 33) & 0x7FFFFFFFu;
}

// ---------------------------------------------------------------------------
// Differential/property harness
// ---------------------------------------------------------------------------

// Both tables after the same op sequence must agree on everything observable
// through the public surface.
void expect_equivalent(const KeyHashTable& ref, const ConcurrentKeyHashTable& conc,
                       const std::vector<std::uint64_t>& touched) {
  ASSERT_EQ(ref.size(), conc.size());
  ASSERT_EQ(ref.capacity(), conc.capacity());
  ASSERT_EQ(ref.load_factor(), conc.load_factor());
  for (std::uint64_t k : touched) ASSERT_EQ(ref.find(k), conc.find(k)) << "key " << k;
}

TEST(HashDifferential, RandomizedOpSequences) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Xoshiro256ss rng(seed);
    KeyHashTable ref(4);
    ConcurrentKeyHashTable conc(4);
    std::vector<std::uint64_t> touched;  // every key any op has used
    std::map<std::uint64_t, std::uint32_t> model;

    for (int op = 0; op < 6000; ++op) {
      const std::uint64_t r = rng.next();
      switch (r % 100) {
        case 0: {  // clear (rare): resets contents, keeps capacity + gauges
          ref.clear();
          conc.clear();
          model.clear();
          break;
        }
        default: {
          std::uint64_t k;
          const std::uint64_t pick = rng.next();
          if (!model.empty() && pick % 4 == 0) {
            // Overwrite an existing key with a fresh value.
            auto it = model.begin();
            std::advance(it, static_cast<long>(pick % model.size()));
            k = it->first;
          } else if (pick % 4 == 1) {
            k = ~std::uint64_t{0} - (pick % 3);  // top-of-keyspace adversaries
          } else if (pick % 4 == 2) {
            k = (pick % 512) + 1;  // clustered sequential keys
          } else {
            k = rng.next() | 1;
          }
          if (r % 100 < 70) {
            const std::uint32_t v = static_cast<std::uint32_t>(rng.next()) & 0x7FFFFFFFu;
            ref.insert(k, v);
            conc.insert(k, v);
            model[k] = v;
            touched.push_back(k);
          } else {
            ASSERT_EQ(ref.find(k), conc.find(k));
            ASSERT_EQ(ref.contains(k), conc.contains(k));
          }
          break;
        }
      }
    }
    expect_equivalent(ref, conc, touched);
    for (const auto& [k, v] : model) {
      ASSERT_EQ(conc.find(k), v);
      ASSERT_EQ(ref.find(k), v);
    }
    // The probe gauges match exactly: migration is charged like the
    // reference rehash, so the health sampler sees the same mean_probe.
    EXPECT_EQ(ref.operations(), conc.operations());
    EXPECT_EQ(ref.probes(), conc.probes());
    EXPECT_EQ(ref.mean_probe(), conc.mean_probe());
  }
}

TEST(HashDifferential, FibonacciCollidingKeysGrowStorm) {
  // 256 keys engineered onto one home slot of the initial 16-slot table:
  // maximal probe runs, then repeated grows (the insert-burst shape).
  KeyHashTable ref(4);
  ConcurrentKeyHashTable conc(4);
  std::vector<std::uint64_t> keys = colliding_keys(256, 4, 0x5);
  for (std::uint64_t k : keys) {
    ref.insert(k, value_of(k));
    conc.insert(k, value_of(k));
  }
  expect_equivalent(ref, conc, keys);
  EXPECT_EQ(ref.probes(), conc.probes());
  // A long probe run was actually exercised.
  EXPECT_GT(ref.mean_probe(), 1.0);
}

TEST(HashDifferential, MaxKeyAndNeighbours) {
  KeyHashTable ref;
  ConcurrentKeyHashTable conc;
  std::vector<std::uint64_t> touched;
  for (std::uint64_t d = 0; d < 64; ++d) {
    const std::uint64_t k = ~std::uint64_t{0} - d;
    ref.insert(k, static_cast<std::uint32_t>(d));
    conc.insert(k, static_cast<std::uint32_t>(d));
    touched.push_back(k);
  }
  expect_equivalent(ref, conc, touched);
  EXPECT_EQ(conc.find(~std::uint64_t{0}), 0u);
}

TEST(HashDifferential, ClearPreservesCapacityAndGauges) {
  // Pinned behaviour inherited from the reference: clear() empties the table
  // but keeps both the capacity and the cumulative probe/operation gauges
  // (they describe the table's lifetime across rebuilds).
  KeyHashTable ref(4);
  ConcurrentKeyHashTable conc(4);
  for (std::uint64_t k = 1; k <= 300; ++k) {
    ref.insert(k, static_cast<std::uint32_t>(k));
    conc.insert(k, static_cast<std::uint32_t>(k));
  }
  const std::size_t cap = ref.capacity();
  const std::uint64_t ops = ref.operations();
  ASSERT_GT(ops, 0u);
  ref.clear();
  conc.clear();
  EXPECT_EQ(ref.size(), 0u);
  EXPECT_EQ(conc.size(), 0u);
  EXPECT_EQ(ref.capacity(), cap);
  EXPECT_EQ(conc.capacity(), cap);
  EXPECT_EQ(ref.operations(), ops);
  EXPECT_EQ(conc.operations(), ops);
  EXPECT_EQ(ref.probes(), conc.probes());
  EXPECT_EQ(conc.find(7), ConcurrentKeyHashTable::kNotFound);
  // Refill after clear still tracks the reference exactly.
  std::vector<std::uint64_t> touched;
  for (std::uint64_t k = 1000; k < 1400; ++k) {
    ref.insert(k, value_of(k));
    conc.insert(k, value_of(k));
    touched.push_back(k);
  }
  expect_equivalent(ref, conc, touched);
}

// ---------------------------------------------------------------------------
// Concurrent stress (tsan label — must be ThreadSanitizer-clean)
// ---------------------------------------------------------------------------

int stress_threads() {
  // At least 2 so the sanitizer always has two sides of the race to watch,
  // even on a single-core host (oversubscription is fine — these tests are
  // about interleavings, not throughput).
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(hw < 2 ? 2 : std::min(hw, 4u));
}

TEST(HashConcurrent, FindDuringInsertGrowStorm) {
  // One writer storms 24k inserts through several copy-grows while readers
  // continuously find/contain. Checks, with a proper happens-before edge
  // through `published`:
  //   lost keys  — every key published before the reader's batch is found;
  //   torn slots — every hit returns exactly value_of(key), never a blend.
  constexpr std::size_t kKeys = 24000;
  Xoshiro256ss rng(17);
  std::vector<std::uint64_t> keys(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) keys[i] = rng.next() | 1;
  // A quarter of the stream is adversarial: Fibonacci-colliding + clustered.
  const auto coll = colliding_keys(kKeys / 4, 5, 0x9);
  for (std::size_t i = 0; i < coll.size(); ++i) keys[i * 4] = coll[i];
  keys[0] = ~std::uint64_t{0};

  ConcurrentKeyHashTable table(4);  // tiny start => many grows under load
  std::atomic<std::size_t> published{0};
  std::atomic<std::uint64_t> lost{0}, torn{0}, phantom{0};

  std::vector<std::thread> readers;
  const int nr = stress_threads();
  for (int t = 0; t < nr; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256ss r(static_cast<std::uint64_t>(100 + t));
      while (published.load(std::memory_order_acquire) < kKeys) {
        const std::size_t upto = published.load(std::memory_order_acquire);
        for (int q = 0; q < 64; ++q) {
          const std::size_t j = static_cast<std::size_t>(r.next() % kKeys);
          const std::uint32_t got = table.find(keys[j]);
          if (j < upto) {
            // Published before this batch started: must be present + exact.
            if (got == ConcurrentKeyHashTable::kNotFound)
              lost.fetch_add(1, std::memory_order_relaxed);
            else if (got != value_of(keys[j]))
              torn.fetch_add(1, std::memory_order_relaxed);
          } else if (got != ConcurrentKeyHashTable::kNotFound &&
                     got != value_of(keys[j])) {
            torn.fetch_add(1, std::memory_order_relaxed);  // racing hit, wrong value
          }
          // A key outside the stream entirely must never be found: every
          // stream key is odd, absent probes are even (and nonzero).
          const std::uint64_t absent = (r.next() << 1) | 2;
          if (table.contains(absent)) phantom.fetch_add(1, std::memory_order_relaxed);
        }
        (void)table.load_factor();  // gauges raced with writers stay clean
        (void)table.mean_probe();
      }
    });
  }

  for (std::size_t i = 0; i < kKeys; ++i) {
    table.insert(keys[i], value_of(keys[i]));
    if ((i & 255) == 255) published.store(i + 1, std::memory_order_release);
  }
  published.store(kKeys, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(lost.load(), 0u);
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(phantom.load(), 0u);
  EXPECT_GT(table.capacity(), 16u);  // the storm really grew the table
  for (std::size_t i = 0; i < kKeys; ++i)
    ASSERT_EQ(table.find(keys[i]), value_of(keys[i]));
}

TEST(HashConcurrent, MultiWriterDisjointAndSharedKeys) {
  // Writers race on claims: disjoint ranges plus a shared slice every writer
  // inserts with the same value (same-key claims serialize on the stripe, so
  // no key may end up duplicated or lost).
  constexpr std::size_t kPerWriter = 6000;
  constexpr std::size_t kShared = 512;
  const int nw = stress_threads();
  ConcurrentKeyHashTable table(4);

  std::vector<std::uint64_t> shared(kShared);
  Xoshiro256ss srng(99);
  for (auto& k : shared) k = srng.next() | 1;

  std::vector<std::thread> writers;
  for (int w = 0; w < nw; ++w) {
    writers.emplace_back([&, w] {
      Xoshiro256ss r(static_cast<std::uint64_t>(7 + w));
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        // Disjoint: tag the writer id into the key's low bits.
        const std::uint64_t k =
            ((r.next() << 8) | static_cast<std::uint64_t>(w)) | (1ULL << 63);
        table.insert(k, value_of(k));
        if (i < kShared) table.insert(shared[i], value_of(shared[i]));
        if (table.find(k) != value_of(k)) ADD_FAILURE() << "own insert lost";
      }
    });
  }
  for (auto& th : writers) th.join();

  for (std::uint64_t k : shared) ASSERT_EQ(table.find(k), value_of(k));
  // No duplicates: size equals the number of distinct keys inserted.
  EXPECT_GE(table.size(), kShared);
  EXPECT_LE(table.size(), kShared + static_cast<std::size_t>(nw) * kPerWriter);
}

TEST(HashConcurrent, OverwriteStormKeepsValuesWellFormed) {
  // All writers hammer the same small key set with writer-tagged values;
  // every read must observe one of the tagged values in full (an atomic
  // overwrite), never a mix of two writers' bits.
  constexpr std::size_t kKeys = 64;
  constexpr int kRounds = 4000;
  const int nw = stress_threads();
  ConcurrentKeyHashTable table;
  std::vector<std::uint64_t> keys(kKeys);
  Xoshiro256ss rng(5);
  for (auto& k : keys) k = rng.next() | 1;
  for (auto k : keys) table.insert(k, value_of(k) & 0x00FFFFFFu);

  std::atomic<std::uint64_t> malformed{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < nw; ++w) {
    threads.emplace_back([&, w] {
      Xoshiro256ss r(static_cast<std::uint64_t>(31 + w));
      for (int i = 0; i < kRounds; ++i) {
        const std::uint64_t k = keys[r.next() % kKeys];
        // Tag in the top byte, payload derived from the key: well-formed
        // values are exactly {tag<<24 | payload : tag in [0, nw]}.
        const std::uint32_t payload = value_of(k) & 0x00FFFFFFu;
        table.insert(k, (static_cast<std::uint32_t>(w + 1) << 24) | payload);
        const std::uint32_t got = table.find(keys[r.next() % kKeys]);
        if (got == ConcurrentKeyHashTable::kNotFound) {
          malformed.fetch_add(1, std::memory_order_relaxed);  // lost key
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(malformed.load(), 0u);
  for (auto k : keys) {
    const std::uint32_t got = table.find(k);
    EXPECT_EQ(got & 0x00FFFFFFu, value_of(k) & 0x00FFFFFFu);
    EXPECT_LE(got >> 24, static_cast<std::uint32_t>(nw + 1));
  }
}

TEST(HashConcurrent, GaugeReadsAreRaceFree) {
  // Regression for the pre-existing data race: KeyHashTable mutates its
  // mutable probes_/ops_ from const find(), so two readers sharing a table
  // raced the moment the serving layer ran concurrent queries. The
  // concurrent table's gauges are striped relaxed atomics: this test runs
  // pure readers (find + gauge reads) against a shared const table and must
  // be ThreadSanitizer-clean.
  ConcurrentKeyHashTable table;
  Xoshiro256ss rng(3);
  std::vector<std::uint64_t> keys(4096);
  for (auto& k : keys) k = rng.next() | 1;
  for (auto k : keys) table.insert(k, value_of(k));
  const ConcurrentKeyHashTable& shared = table;

  std::atomic<std::uint64_t> misses{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < stress_threads(); ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256ss r(static_cast<std::uint64_t>(41 + t));
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = keys[r.next() % keys.size()];
        if (shared.find(k) != value_of(k)) misses.fetch_add(1);
        if ((i & 1023) == 0) {
          (void)shared.mean_probe();
          (void)shared.load_factor();
          (void)shared.probes();
          (void)shared.operations();
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u);
  // ops grew by exactly one per find across all threads (values are summed
  // over the stripes; inserts from setup add keys.size() + migrations).
  EXPECT_GE(shared.operations(),
            static_cast<std::uint64_t>(stress_threads()) * 20000 + keys.size());
}

}  // namespace
}  // namespace hotlib::hot
