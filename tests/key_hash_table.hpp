// key_hash_table.hpp — the sequential test oracle for the cell index: an
// open-addressing hash table mapping Morton keys to cell indices.
//
// "A hash table is used in order to translate the key into a pointer to the
// location where the cell data are stored. This level of indirection through
// a hash table can also be used to catch accesses to non-local data..."
//
// Keys are never 0 (the root key is 1 and all keys carry a placeholder bit),
// so 0 marks an empty slot. Linear probing with a multiplicative (Fibonacci)
// hash; the table grows at 0.7 load factor. Probe counts are tracked so the
// gauges can be compared.
//
// The tree indexes its cells through hot::ConcurrentKeyHashTable
// (src/hot/concurrent_hash_table.hpp), which keeps this exact public surface
// while making find lock-free against concurrent inserts. This class is the
// single-writer original, kept only as the oracle: the differential harness
// in test_hash_table.cpp replays randomized op sequences against both and
// requires identical results (including capacity trajectory and probe
// gauges), and test_hot.cpp runs the same semantics suite on both. It is
// NOT thread-safe — even two concurrent readers race on the mutable
// probes_/ops_ gauges below — so never share an instance across threads.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace hotlib::hot {

class KeyHashTable {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  explicit KeyHashTable(std::size_t expected = 64) { rehash(capacity_for(expected)); }

  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t operations() const { return ops_; }
  // Occupied fraction and probes per operation — the health-sampler gauges
  // (1.0 mean probe = every lookup hit its home slot).
  double load_factor() const {
    return slots_.empty() ? 0.0 : static_cast<double>(size_) / static_cast<double>(slots_.size());
  }
  double mean_probe() const {
    return ops_ > 0 ? static_cast<double>(probes_) / static_cast<double>(ops_) : 0.0;
  }

  // Insert key -> value; key must be nonzero and not already present
  // (duplicate insert overwrites, matching how a rebuilt cell replaces the
  // cached copy from a previous traversal).
  void insert(std::uint64_t key, std::uint32_t value) {
    if ((size_ + 1) * 10 >= slots_.size() * 7) grow();
    ++ops_;
    std::size_t i = index_of(key);
    for (;;) {
      ++probes_;
      Slot& s = slots_[i];
      if (s.key == 0) {
        s.key = key;
        s.value = value;
        ++size_;
        return;
      }
      if (s.key == key) {
        s.value = value;
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  // Returns kNotFound when absent.
  std::uint32_t find(std::uint64_t key) const {
    ++ops_;
    std::size_t i = index_of(key);
    for (;;) {
      ++probes_;
      const Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == 0) return kNotFound;
      i = (i + 1) & mask_;
    }
  }

  bool contains(std::uint64_t key) const { return find(key) != kNotFound; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = 0;
  };

  static std::size_t capacity_for(std::size_t expected) {
    std::size_t cap = 16;
    while (cap * 7 < expected * 10) cap <<= 1;
    return cap;
  }

  std::size_t index_of(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_) & mask_;
  }

  void rehash(std::size_t new_cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    shift_ = 64 - std::countr_zero(new_cap);
    size_ = 0;
    for (const Slot& s : old)
      if (s.key != 0) insert(s.key, s.value);
  }

  void grow() { rehash(slots_.size() * 2); }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
  mutable std::uint64_t probes_ = 0;
  mutable std::uint64_t ops_ = 0;
};

}  // namespace hotlib::hot
