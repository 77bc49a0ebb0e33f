// test_hash_table.cpp — the cell index (hot::KeyHashTable): lookups checked
// against std::map, capacity growing with the key count, adversarial key sets
// built to collide under the Fibonacci hash, the capacity and mean-probe
// gauges of a hand-checked key set, and four threads sharing one const table. The file carries the `tsan`
// ctest label, so scripts/tsan.sh runs the shared-reader test under
// ThreadSanitizer: find() must stay free of side effects.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "hot/key_hash_table.hpp"
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

// The key whose hash product is `product`: its home slot in a table of
// 2^bits slots is the product's top `bits` bits.
constexpr std::uint64_t key_with_product(std::uint64_t product) {
  return product * fib_inverse();
}

// Keys whose Fibonacci-hash home slots collide in any table of at most
// 2^cap_bits slots: products that share their top cap_bits and differ only
// below, mapped back through the inverse.
std::vector<std::uint64_t> colliding_keys(std::size_t n, int cap_bits,
                                          std::uint64_t salt) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  const std::uint64_t base = (salt | 1) << (64 - cap_bits);
  for (std::uint64_t i = 0; i < n; ++i) keys.push_back(key_with_product(base + 2 * i + 1));
  return keys;
}

KeyHashTable table_of(const std::vector<std::uint64_t>& keys) {
  return KeyHashTable(keys.size(), [&](std::size_t i) { return keys[i]; });
}

TEST(KeyHashTable, InsertFindAbsent) {
  EXPECT_EQ(KeyHashTable().find(123), KeyHashTable::kNotFound);
  const KeyHashTable h = table_of({123, 456});
  EXPECT_EQ(h.find(123), 0u);
  EXPECT_EQ(h.find(456), 1u);
  EXPECT_EQ(h.find(789), KeyHashTable::kNotFound);
  EXPECT_EQ(h.size(), 2u);
}

TEST(KeyHashTable, GrowsUnderLoad) {
  // The capacity grows with the key count: at each power of two the most keys
  // that stay within 0.7 load fit, and one more doubles it. Every key is found.
  Xoshiro256ss rng(2);
  std::vector<std::uint64_t> keys(5735);  // one past what 8192 slots hold
  for (std::uint64_t& k : keys) k = rng.next() | 1;  // nonzero
  for (std::size_t cap = 16; cap <= 8192; cap *= 2) {
    const std::size_t fit = cap * 7 / 10;
    for (const std::size_t n : {fit, fit + 1}) {
      const KeyHashTable h(n, [&](std::size_t i) { return keys[i]; });
      EXPECT_EQ(h.capacity(), n == fit ? cap : 2 * cap) << n << " keys";
      EXPECT_LE(h.size() * 10, h.capacity() * 7);  // load factor respected
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(h.find(keys[i]), static_cast<std::uint32_t>(i)) << n << " keys";
    }
  }
}

TEST(KeyHashTable, RandomKeysMatchStdMap) {
  Xoshiro256ss rng(2);
  std::map<std::uint64_t, std::uint32_t> model;
  std::vector<std::uint64_t> keys;
  while (keys.size() < 5000) {
    const std::uint64_t k = rng.next() | 1;
    if (model.emplace(k, static_cast<std::uint32_t>(keys.size())).second) keys.push_back(k);
  }
  const KeyHashTable h = table_of(keys);
  EXPECT_EQ(h.size(), keys.size());
  for (const auto& [k, v] : model) ASSERT_EQ(h.find(k), v) << "key " << k;
  // Absent keys: even keys are never in the set, and neither is 0.
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next() & ~std::uint64_t{1};
    ASSERT_EQ(h.find(k), KeyHashTable::kNotFound) << "key " << k;
  }
  EXPECT_EQ(h.find(0), KeyHashTable::kNotFound);
  EXPECT_EQ(KeyHashTable().find(12345), KeyHashTable::kNotFound);
}

TEST(KeyHashTable, FibonacciCollidingKeys) {
  // 256 keys share one home slot in the 512-slot table they need: a single
  // probe run of 256, so the k-th key takes k probes.
  const std::vector<std::uint64_t> keys = colliding_keys(256, 9, 0x5);
  const KeyHashTable h = table_of(keys);
  ASSERT_EQ(h.capacity(), 512u);
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(h.find(keys[i]), static_cast<std::uint32_t>(i));
  EXPECT_EQ(h.mean_probe(), 128.5);  // (1 + ... + 256) / 256
  // Absent keys with the same home walk the whole run and miss (the first
  // 256 of the longer list are the table's keys).
  const std::vector<std::uint64_t> more = colliding_keys(512, 9, 0x5);
  for (std::size_t i = keys.size(); i < more.size(); ++i)
    ASSERT_EQ(h.find(more[i]), KeyHashTable::kNotFound);
}

TEST(KeyHashTable, AdversarialClusteredKeys) {
  // Sequential keys stress linear probing.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; k <= 4096; ++k) keys.push_back(k);
  const KeyHashTable h = table_of(keys);
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(h.find(keys[i]), static_cast<std::uint32_t>(i));
  for (std::uint64_t k = 4097; k <= 8192; ++k) ASSERT_EQ(h.find(k), KeyHashTable::kNotFound);
}

TEST(KeyHashTable, MaxKeyAndNeighbours) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t d = 0; d < 64; ++d) keys.push_back(~std::uint64_t{0} - 2 * d);
  const KeyHashTable h = table_of(keys);
  for (std::size_t i = 0; i < keys.size(); ++i)
    ASSERT_EQ(h.find(keys[i]), static_cast<std::uint32_t>(i));
  EXPECT_EQ(h.find(~std::uint64_t{0}), 0u);
  for (std::uint64_t d = 0; d < 64; ++d)
    ASSERT_EQ(h.find(~std::uint64_t{0} - 2 * d - 1), KeyHashTable::kNotFound);
}

TEST(KeyHashTable, CapacityAndMeanProbeOfHandCheckedKeys) {
  // Capacity is the smallest power of two >= 16 holding the keys below 0.7
  // load: 11 keys fit in 16 slots (110 <= 112), 12 need 32.
  const auto sized = [](std::size_t n) {
    return KeyHashTable(n, [](std::size_t i) { return 2 * i + 1; }).capacity();
  };
  EXPECT_EQ(KeyHashTable().capacity(), 16u);
  EXPECT_EQ(sized(11), 16u);
  EXPECT_EQ(sized(12), 32u);
  EXPECT_EQ(sized(22), 32u);
  EXPECT_EQ(sized(23), 64u);

  // Five keys in a 16-slot table, with home slots 3, 3, 4, 15, 15 (the top
  // four bits of the hash product). Filled in order:
  //   a -> slot 3 (1 probe)   b -> slot 4 (2)    c -> slot 5 (2)
  //   d -> slot 15 (1)        e -> wraps to slot 0 (2)
  // so a successful find takes 8 / 5 = 1.6 probes on average.
  const auto home = [](std::uint64_t slot, std::uint64_t tag) {
    return key_with_product(slot << 60 | tag);
  };
  const std::vector<std::uint64_t> keys = {home(3, 1), home(3, 2), home(4, 3),
                                           home(15, 4), home(15, 5)};
  const KeyHashTable h = table_of(keys);
  EXPECT_EQ(h.size(), 5u);
  EXPECT_EQ(h.capacity(), 16u);
  EXPECT_EQ(h.mean_probe(), 1.6);
  for (std::size_t i = 0; i < keys.size(); ++i)
    EXPECT_EQ(h.find(keys[i]), static_cast<std::uint32_t>(i));
  // Misses stop at the first empty slot, across the wrap too.
  EXPECT_EQ(h.find(home(4, 6)), KeyHashTable::kNotFound);
  EXPECT_EQ(h.find(home(15, 7)), KeyHashTable::kNotFound);
  // A table without keys reports zero, not a division artifact.
  EXPECT_EQ(KeyHashTable().mean_probe(), 0.0);
  EXPECT_EQ(KeyHashTable().size(), 0u);
}

TEST(KeyHashTable, FourThreadsShareOneConstTable) {
  // Any number of threads may share a built table: find() and the gauges
  // write nothing. ThreadSanitizer (tsan label) flags any write a read makes.
  Xoshiro256ss rng(3);
  std::vector<std::uint64_t> keys(1 << 14);
  for (std::uint64_t& k : keys) k = rng.next() | 1;
  const KeyHashTable shared = table_of(keys);
  const double mean_probe = shared.mean_probe();

  constexpr int kThreads = 4;
  std::vector<std::uint64_t> wrong(kThreads, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (std::size_t j = 0; j < keys.size(); ++j) {
        const std::size_t i = (j + static_cast<std::size_t>(t) * 4099) % keys.size();
        if (shared.find(keys[i]) != static_cast<std::uint32_t>(i)) ++wrong[t];
        if (shared.find(keys[i] + 1) != KeyHashTable::kNotFound) ++wrong[t];  // even: absent
      }
      if (shared.mean_probe() != mean_probe) ++wrong[t];
    });
  }
  for (std::thread& th : readers) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(wrong[t], 0u) << "thread " << t;
  EXPECT_EQ(shared.mean_probe(), mean_probe);
}

}  // namespace
}  // namespace hotlib::hot
