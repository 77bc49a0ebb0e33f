#include "hot/spatial.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "telemetry/trace.hpp"

namespace hotlib::hot {

namespace {

// Squared distance from a point to the closest point of a cell's cube
// (zero when the point is inside).
double box_min_dist2(const Vec3d& p, const morton::CellBox& b) {
  double d2 = 0;
  for (int a = 0; a < 3; ++a) {
    const double excess = std::abs(p[a] - b.center[a]) - b.half;
    if (excess > 0) d2 += excess * excess;
  }
  return d2;
}

// True when the cell cube and the box overlap (closed on both sides).
bool box_intersects(const morton::CellBox& b, const Aabb& box) {
  for (int a = 0; a < 3; ++a) {
    if (b.center[a] + b.half < box.lo[a]) return false;
    if (b.center[a] - b.half > box.hi[a]) return false;
  }
  return true;
}

// True when the cell cube lies entirely inside the box: the whole leaf range
// can be taken without per-body tests.
bool box_inside(const morton::CellBox& b, const Aabb& box) {
  for (int a = 0; a < 3; ++a) {
    if (b.center[a] - b.half < box.lo[a]) return false;
    if (b.center[a] + b.half > box.hi[a]) return false;
  }
  return true;
}

}  // namespace

void collect_in_box(const Tree& tree, std::span<const Vec3d> pos, const Aabb& box,
                    std::vector<std::uint32_t>& out) {
  telemetry::Span span("region_walk", telemetry::Phase::kOther);
  out.clear();
  // The shared descent pops children last-first, so leaves arrive in reverse
  // Morton order: append each leaf back to front and reverse once at the end
  // for Morton order without a sort.
  std::vector<std::uint32_t> stack;
  tree.descend(stack, [&](std::uint32_t, const Cell& c) {
    const morton::CellBox b = tree.box(c);
    if (!box_intersects(b, box)) return false;
    if (c.is_leaf()) {
      const bool whole = box_inside(b, box);
      for (std::uint32_t t = c.body_begin + c.body_count; t-- > c.body_begin;) {
        const std::uint32_t i = tree.order()[t];
        if (whole || box.contains(pos[i])) out.push_back(i);
      }
    }
    return true;
  });
  std::reverse(out.begin(), out.end());
  span.set_arg(out.size());
}

void knn(const Tree& tree, std::span<const Vec3d> pos, const Vec3d& point,
         std::size_t k, std::vector<Neighbor>& out) {
  telemetry::Span span("knn_walk", telemetry::Phase::kOther, k);
  out.clear();
  const auto& cells = tree.cells();
  if (k == 0 || cells.empty() || cells[0].body_count == 0) return;

  // (index, dist2) worse-than ordering: lexicographic on (dist2, index) so
  // exact distance ties resolve to the smaller original index.
  const auto worse = [](const Neighbor& a, const Neighbor& b) {
    return a.dist2 != b.dist2 ? a.dist2 < b.dist2 : a.index < b.index;
  };

  // Best-first frontier of cells keyed by min distance to the query point;
  // cell index breaks ties so the pop order is deterministic.
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> frontier;
  frontier.emplace(box_min_dist2(point, tree.box(cells[0])), 0u);

  // `out` doubles as a max-heap of the current k best (worst at the front).
  while (!frontier.empty()) {
    const auto [d2, ci] = frontier.top();
    frontier.pop();
    // Nothing left in the frontier can beat the current worst: min distances
    // only grow from here (the frontier is ordered), so stop outright.
    if (out.size() == k && d2 > out.front().dist2) break;
    const Cell& c = cells[ci];
    if (c.is_leaf()) {
      for (std::uint32_t t = c.body_begin; t < c.body_begin + c.body_count; ++t) {
        const std::uint32_t i = tree.order()[t];
        const Vec3d d = pos[i] - point;
        const Neighbor cand{i, dot(d, d)};
        if (out.size() < k) {
          out.push_back(cand);
          std::push_heap(out.begin(), out.end(), worse);
        } else if (worse(cand, out.front())) {
          std::pop_heap(out.begin(), out.end(), worse);
          out.back() = cand;
          std::push_heap(out.begin(), out.end(), worse);
        }
      }
    } else {
      for (std::uint32_t j = 0; j < c.nchildren; ++j) {
        const std::uint32_t child = c.first_child + j;
        const double cd2 = box_min_dist2(point, tree.box(cells[child]));
        if (out.size() < k || cd2 <= out.front().dist2)
          frontier.emplace(cd2, child);
      }
    }
  }
  std::sort(out.begin(), out.end(), worse);
}

}  // namespace hotlib::hot
