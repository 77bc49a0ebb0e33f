#include "morton/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "util/task_pool.hpp"

namespace hotlib::morton {

namespace {

constexpr std::size_t kEncodeGrain = 4096;
// Below this the serial sort wins outright; above it the chunked merge sort
// amortizes its extra copy.
constexpr std::size_t kParallelSortMin = 8192;

}  // namespace

void parallel_morton_keys(std::span<const Vec3d> pos, const Domain& d,
                          std::span<Key> out) {
  assert(pos.size() == out.size());
  util::TaskPool::global().parallel_for(
      pos.size(), kEncodeGrain, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          out[i] = key_from_position(pos[i], d);
      });
}

void parallel_sort_by_key(std::span<const Key> keys,
                          std::span<std::uint32_t> order) {
  assert(keys.size() == order.size());
  const std::size_t n = keys.size();
  std::iota(order.begin(), order.end(), 0u);
  const auto less = [&keys](std::uint32_t a, std::uint32_t b) {
    return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
  };

  util::TaskPool& pool = util::TaskPool::global();
  const int lanes = pool.concurrency();
  if (lanes == 1 || n < kParallelSortMin) {
    std::sort(order.begin(), order.end(), less);
    return;
  }

  // Chunked merge sort: sort a power-of-two number of equal slices in
  // parallel, then merge pairs bottom-up. Slice boundaries depend only on
  // (n, nchunks) and nchunks only on the lane count — but the OUTPUT does
  // not: the (key, index) order is total, so every path (including the
  // serial one above) lands on the same unique permutation.
  std::size_t nchunks = 1;
  while (nchunks < static_cast<std::size_t>(lanes)) nchunks <<= 1;
  nchunks = std::min(nchunks, std::size_t{256});
  std::vector<std::size_t> bound(nchunks + 1);
  for (std::size_t c = 0; c <= nchunks; ++c) bound[c] = n * c / nchunks;

  {
    util::TaskPool::Group g(pool);
    for (std::size_t c = 0; c < nchunks; ++c) {
      g.spawn([&, c] {
        std::sort(order.begin() + static_cast<std::ptrdiff_t>(bound[c]),
                  order.begin() + static_cast<std::ptrdiff_t>(bound[c + 1]), less);
      });
    }
    g.wait();
  }

  std::vector<std::uint32_t> scratch(n);
  std::uint32_t* src = order.data();
  std::uint32_t* dst = scratch.data();
  for (std::size_t width = 1; width < nchunks; width <<= 1) {
    util::TaskPool::Group g(pool);
    for (std::size_t c = 0; c < nchunks; c += 2 * width) {
      const std::size_t lo = bound[c];
      const std::size_t mid = bound[std::min(c + width, nchunks)];
      const std::size_t hi = bound[std::min(c + 2 * width, nchunks)];
      g.spawn([src, dst, lo, mid, hi, &less] {
        std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, less);
      });
    }
    g.wait();
    std::swap(src, dst);
  }
  if (src != order.data())
    std::copy(src, src + n, order.data());
}

}  // namespace hotlib::morton
