// parallel.hpp — task-parallel key encoding and the deterministic
// sort-by-key used by every tree build.
//
// Encoding is embarrassingly parallel (each key is a pure function of one
// position). Sorting is where determinism has to be engineered: a plain
// key comparator leaves the relative order of equal keys up to the sort
// algorithm, and a parallel merge sort visits elements in a thread-count-
// dependent order. Sorting by the pair (key, original index) instead makes
// the comparator a strict total order, so there is exactly ONE sorted
// permutation — whatever algorithm or thread count produces it. That is the
// root of the tree-build half of the determinism contract (the traversal
// half lives in docs/parallelism.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "morton/key.hpp"

namespace hotlib::morton {

// out[i] = key_from_position(pos[i], d), chunked over the global task pool.
void parallel_morton_keys(std::span<const Vec3d> pos, const Domain& d,
                          std::span<Key> out);

// Fill `order` (size == keys.size()) with the permutation that sorts `keys`
// ascending, ties broken by original index. The (key, index) pair order is
// total, so the result is the unique sorted permutation — bit-identical for
// any thread count, including the serial std::sort taken when the global
// pool has one lane or n is small.
void parallel_sort_by_key(std::span<const Key> keys,
                          std::span<std::uint32_t> order);

}  // namespace hotlib::morton
