// key_hash_table.hpp — the cell index: an open-addressing table mapping a
// cell's Morton key to its index in the tree's cell array.
//
// "A hash table is used in order to translate the key into a pointer to the
// location where the cell data are stored. This level of indirection through
// a hash table can also be used to catch accesses to non-local data..."
//
// The table is filled once, serially, when it is constructed, and is
// read-only after that: no insert, no grow, no clear. find() is const and
// writes nothing, so any number of threads may share a built table. Keys are
// never 0 (the root key is 1 and all keys carry a placeholder bit), so 0
// marks an empty slot. Linear probing with a multiplicative (Fibonacci)
// hash, at most 0.7 load factor.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace hotlib::hot {

class KeyHashTable {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  // An empty table: every find misses.
  KeyHashTable() : slots_(capacity_for(0)) {}

  // Maps key_of(i) -> i for every i < n, inserted in index order. Keys must
  // be nonzero and distinct.
  template <class KeyOf>
  KeyHashTable(std::size_t n, KeyOf&& key_of) : slots_(capacity_for(n)), size_(n) {
    assert(n < kNotFound);
    std::uint64_t probes = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint64_t key = key_of(v);
      assert(key != 0);
      std::size_t i = home(key);
      for (++probes; slots_[i].key != 0; ++probes) {
        assert(slots_[i].key != key);
        i = (i + 1) & mask_;
      }
      slots_[i] = {key, static_cast<std::uint32_t>(v)};
    }
    // A successful find of a key walks exactly the probes its insert did,
    // since later inserts never move it.
    mean_probe_ = n > 0 ? static_cast<double>(probes) / static_cast<double>(n) : 0.0;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  // Mean probes of a successful find (1.0 = every key sits in its home slot).
  double mean_probe() const { return mean_probe_; }

  // Returns kNotFound when absent.
  std::uint32_t find(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == 0) return kNotFound;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t value = kNotFound;
  };

  // Smallest power of two, at least 16, that holds `n` keys below 0.7 load.
  static std::size_t capacity_for(std::size_t n) {
    std::size_t cap = 16;
    while (cap * 7 < n * 10) cap <<= 1;
    return cap;
  }

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = slots_.size() - 1;
  int shift_ = 64 - std::countr_zero(slots_.size());
  std::size_t size_ = 0;
  double mean_probe_ = 0.0;
};

}  // namespace hotlib::hot
