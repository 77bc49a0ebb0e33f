#include "hot/tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "morton/parallel.hpp"
#include "telemetry/sample.hpp"
#include "telemetry/trace.hpp"
#include "util/task_pool.hpp"

namespace hotlib::hot {

using morton::Key;

void RawMoments::accumulate(const Vec3d& x, double m) {
  mass += m;
  weighted_pos += m * x;
  second[0] += m * x.x * x.x;
  second[1] += m * x.x * x.y;
  second[2] += m * x.x * x.z;
  second[3] += m * x.y * x.y;
  second[4] += m * x.y * x.z;
  second[5] += m * x.z * x.z;
}

RawMoments& RawMoments::operator+=(const RawMoments& o) {
  mass += o.mass;
  weighted_pos += o.weighted_pos;
  for (int i = 0; i < 6; ++i) second[i] += o.second[i];
  return *this;
}

void finalize_moments(const RawMoments& raw, double bmax_bound, Cell& out) {
  out.mass = raw.mass;
  out.com = raw.mass > 0 ? raw.weighted_pos / raw.mass : raw.weighted_pos;
  const Vec3d& c = out.com;
  // Second moment about the com: S_com = S_origin - m * c c^T.
  std::array<double, 6> s = raw.second;
  s[0] -= raw.mass * c.x * c.x;
  s[1] -= raw.mass * c.x * c.y;
  s[2] -= raw.mass * c.x * c.z;
  s[3] -= raw.mass * c.y * c.y;
  s[4] -= raw.mass * c.y * c.z;
  s[5] -= raw.mass * c.z * c.z;
  const double tr = s[0] + s[3] + s[5];
  out.quad = {3 * s[0] - tr, 3 * s[1], 3 * s[2], 3 * s[3] - tr, 3 * s[4], 3 * s[5] - tr};
  out.b2 = tr;
  out.bmax = bmax_bound;
}

void Tree::build(std::span<const Vec3d> pos, std::span<const double> mass,
                 const morton::Domain& domain, Config cfg) {
  assert(pos.size() == mass.size());
  telemetry::Span span("tree_build", telemetry::Phase::kTreeBuild, pos.size());
  domain_ = domain;
  cells_.clear();
  max_depth_ = 0;

  const std::uint32_t n = static_cast<std::uint32_t>(pos.size());
  order_.resize(n);
  std::vector<Key> raw_keys(n);
  morton::parallel_morton_keys(pos, domain_, raw_keys);
  // (key, index) total order: the unique sorted permutation, whatever the
  // thread count (see morton/parallel.hpp).
  morton::parallel_sort_by_key(raw_keys, order_);
  keys_.resize(n);
  std::vector<Vec3d> sorted_pos(n);
  std::vector<double> sorted_mass(n);
  util::TaskPool::global().parallel_for(n, 8192, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      keys_[i] = raw_keys[order_[i]];
      sorted_pos[i] = pos[order_[i]];
      sorted_mass[i] = mass[order_[i]];
    }
  });

  cells_.reserve(n == 0 ? 1 : 2 * (n / std::max(1, cfg.bucket_size)) + 64);
  Cell root;
  root.key = morton::kRootKey;
  root.body_begin = 0;
  root.body_count = n;
  cells_.push_back(root);
  if (n > 0) {
    DescBlock blk = build_desc(morton::kRootKey, 0, n, 0, cfg);
    max_depth_ = blk.max_depth;
    if (blk.nchildren > 0) {
      cells_[0].first_child = 1;
      cells_[0].nchildren = blk.nchildren;
    }
    cells_.resize(1 + blk.cells.size());
    for (std::size_t i = 0; i < blk.cells.size(); ++i) {
      Cell c = blk.cells[i];
      if (c.first_child != kNullIndex) c.first_child += 1;  // rebase after root
      cells_[1 + i] = c;
    }
  }

  // Bottom-up moments: children are stored after their parent.
  compute_all_moments(sorted_pos, sorted_mass);

  // Register every cell in the key -> index table, serially in cell order;
  // the table is read-only from here until the next build.
  hash_ = KeyHashTable(cells_.size(), [this](std::size_t i) { return cells_[i].key; });

  publish_gauges();
}

void Tree::publish_gauges() const {
  // Resident tree size and hash-table shape of the build this rank holds
  // (the sampler snapshots them on the parc tick).
  telemetry::gauge_set(telemetry::Gauge::kTreeCells, static_cast<double>(cells_.size()));
  telemetry::gauge_set(telemetry::Gauge::kTreeBodies, static_cast<double>(order_.size()));
  telemetry::gauge_set(telemetry::Gauge::kHashEntries, static_cast<double>(hash_.size()));
  telemetry::gauge_set(telemetry::Gauge::kHashSlots, static_cast<double>(hash_.capacity()));
  telemetry::gauge_set(telemetry::Gauge::kHashMeanProbe, hash_.mean_probe());
}

namespace {

// Octant sub-ranges of the sorted keys_[lo, hi) at depth level+1: the 3-bit
// key digit selects the octant, and sorted keys make each octant contiguous.
std::array<std::uint32_t, 9> octant_bounds(const std::vector<Key>& keys,
                                           std::uint32_t lo, std::uint32_t hi,
                                           int level) {
  const int shift = 3 * (morton::kMaxLevel - (level + 1));
  auto digit = [shift](Key k) { return static_cast<int>((k >> shift) & 7); };
  std::array<std::uint32_t, 9> bound{};
  bound[0] = lo;
  for (int o = 0; o < 8; ++o) {
    const auto first = keys.begin() + bound[o];
    const auto last = keys.begin() + hi;
    bound[o + 1] = static_cast<std::uint32_t>(
        std::upper_bound(first, last, o,
                         [&](int val, Key k) { return val < digit(k); }) -
        keys.begin());
  }
  assert(bound[8] == hi);
  return bound;
}

// Bodies below which a subtree is built serially instead of spawning tasks
// per octant. Coarse enough that task overhead vanishes, fine enough that
// eight top-level subtrees don't leave lanes idle on clustered inputs.
constexpr std::uint32_t kBuildGrain = 4096;

}  // namespace

// Appends the descendants of cell (key, [lo, hi), level) to `out` in the
// depth-first layout and returns the cell's direct-child count.
std::uint32_t Tree::build_desc_serial(Key key, std::uint32_t lo, std::uint32_t hi,
                                      int level, Config cfg, std::vector<Cell>& out,
                                      int& max_depth) const {
  max_depth = std::max(max_depth, level);
  if (hi - lo <= static_cast<std::uint32_t>(cfg.bucket_size) || level >= morton::kMaxLevel)
    return 0;  // leaf

  const std::array<std::uint32_t, 9> bound = octant_bounds(keys_, lo, hi, level);
  const std::uint32_t first = static_cast<std::uint32_t>(out.size());
  std::uint32_t nchildren = 0;
  for (int o = 0; o < 8; ++o) {
    if (bound[o + 1] == bound[o]) continue;
    Cell c;
    c.key = morton::child(key, o);
    c.body_begin = bound[o];
    c.body_count = bound[o + 1] - bound[o];
    out.push_back(c);
    ++nchildren;
  }

  // Recurse after all siblings exist so they stay contiguous.
  std::uint32_t j = first;
  for (int o = 0; o < 8; ++o) {
    if (bound[o + 1] == bound[o]) continue;
    const std::uint32_t sub_begin = static_cast<std::uint32_t>(out.size());
    const std::uint32_t sub_n = build_desc_serial(out[j].key, bound[o], bound[o + 1],
                                                  level + 1, cfg, out, max_depth);
    out[j].nchildren = sub_n;
    out[j].first_child = sub_n > 0 ? sub_begin : kNullIndex;
    ++j;
  }
  return nchildren;
}

Tree::DescBlock Tree::build_desc(Key key, std::uint32_t lo, std::uint32_t hi,
                                 int level, Config cfg) const {
  DescBlock b;
  b.max_depth = level;
  util::TaskPool& pool = util::TaskPool::global();
  if (pool.concurrency() == 1 || hi - lo <= kBuildGrain || level >= morton::kMaxLevel ||
      hi - lo <= static_cast<std::uint32_t>(cfg.bucket_size)) {
    b.nchildren = build_desc_serial(key, lo, hi, level, cfg, b.cells, b.max_depth);
    return b;
  }

  // Recursive decompose: one task per nonempty octant builds its subtree as
  // an independent block; the merge splices the blocks in octant order and
  // rebases their block-local first_child indices. The splice order is
  // data-determined, so the final layout equals the serial one exactly.
  const std::array<std::uint32_t, 9> bound = octant_bounds(keys_, lo, hi, level);
  struct Octant {
    std::uint32_t lo, hi;
  };
  std::vector<Octant> octs;
  octs.reserve(8);
  for (int o = 0; o < 8; ++o) {
    if (bound[o + 1] == bound[o]) continue;
    Cell c;
    c.key = morton::child(key, o);
    c.body_begin = bound[o];
    c.body_count = bound[o + 1] - bound[o];
    b.cells.push_back(c);
    octs.push_back({bound[o], bound[o + 1]});
  }
  b.nchildren = static_cast<std::uint32_t>(octs.size());

  std::vector<DescBlock> sub(octs.size());
  {
    util::TaskPool::Group g(pool);
    for (std::size_t j = 0; j < octs.size(); ++j) {
      g.spawn([this, &sub, &octs, &b, j, level, cfg] {
        sub[j] = build_desc(b.cells[j].key, octs[j].lo, octs[j].hi, level + 1, cfg);
      });
    }
    g.wait();
  }

  for (std::size_t j = 0; j < sub.size(); ++j) {
    const std::uint32_t off = static_cast<std::uint32_t>(b.cells.size());
    b.cells[j].nchildren = sub[j].nchildren;
    b.cells[j].first_child = sub[j].nchildren > 0 ? off : kNullIndex;
    for (const Cell& c : sub[j].cells) {
      b.cells.push_back(c);
      if (b.cells.back().first_child != kNullIndex) b.cells.back().first_child += off;
    }
    b.max_depth = std::max(b.max_depth, sub[j].max_depth);
  }
  return b;
}

void Tree::compute_all_moments(const std::vector<Vec3d>& sorted_pos,
                               const std::vector<double>& sorted_mass) {
  util::TaskPool& pool = util::TaskPool::global();
  const std::size_t nc = cells_.size();
  if (pool.concurrency() == 1 || nc < 4096) {
    for (std::size_t i = nc; i-- > 0;)
      compute_moments(static_cast<std::uint32_t>(i), sorted_pos, sorted_mass);
    return;
  }
  // Level-synchronous sweep, deepest first: cells of one depth only read
  // their children (strictly deeper, already finalized), so each level is a
  // parallel_for. Per-cell arithmetic is untouched — bitwise identical to
  // the serial reverse sweep.
  std::vector<std::vector<std::uint32_t>> by_level(
      static_cast<std::size_t>(max_depth_) + 1);
  for (std::size_t i = 0; i < nc; ++i)
    by_level[static_cast<std::size_t>(morton::level(cells_[i].key))].push_back(
        static_cast<std::uint32_t>(i));
  for (std::size_t lv = by_level.size(); lv-- > 0;) {
    const std::vector<std::uint32_t>& idx = by_level[lv];
    pool.parallel_for(idx.size(), 256, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t t = lo; t < hi; ++t)
        compute_moments(idx[t], sorted_pos, sorted_mass);
    });
  }
}

void Tree::compute_moments(std::uint32_t ci, const std::vector<Vec3d>& sorted_pos,
                           const std::vector<double>& sorted_mass) {
  Cell& c = cells_[ci];
  if (c.body_count == 0) {
    c.mass = 0;
    return;
  }
  if (c.is_leaf()) {
    RawMoments raw;
    for (std::uint32_t i = c.body_begin; i < c.body_begin + c.body_count; ++i)
      raw.accumulate(sorted_pos[i], sorted_mass[i]);
    double bmax = 0.0;
    const Vec3d com = raw.mass > 0 ? raw.weighted_pos / raw.mass : raw.weighted_pos;
    for (std::uint32_t i = c.body_begin; i < c.body_begin + c.body_count; ++i)
      bmax = std::max(bmax, norm(sorted_pos[i] - com));
    finalize_moments(raw, bmax, c);
    return;
  }
  // Internal: combine children (already finalized — reverse-order pass).
  double mass = 0;
  Vec3d weighted{};
  for (std::uint32_t k = 0; k < c.nchildren; ++k) {
    const Cell& ch = cells_[c.first_child + k];
    mass += ch.mass;
    weighted += ch.mass * ch.com;
  }
  c.mass = mass;
  c.com = mass > 0 ? weighted / mass : weighted;
  c.quad = {};
  c.b2 = 0;
  c.bmax = 0;
  for (std::uint32_t k = 0; k < c.nchildren; ++k) {
    const Cell& ch = cells_[c.first_child + k];
    const Vec3d d = ch.com - c.com;
    const double d2 = norm2(d);
    c.quad[0] += ch.quad[0] + ch.mass * (3 * d.x * d.x - d2);
    c.quad[1] += ch.quad[1] + ch.mass * (3 * d.x * d.y);
    c.quad[2] += ch.quad[2] + ch.mass * (3 * d.x * d.z);
    c.quad[3] += ch.quad[3] + ch.mass * (3 * d.y * d.y - d2);
    c.quad[4] += ch.quad[4] + ch.mass * (3 * d.y * d.z);
    c.quad[5] += ch.quad[5] + ch.mass * (3 * d.z * d.z - d2);
    c.b2 += ch.b2 + ch.mass * d2;
    c.bmax = std::max(c.bmax, norm(d) + ch.bmax);
  }
}

void Tree::find_within(const Vec3d& center, double radius,
                       std::vector<std::uint32_t>& out) const {
  out.clear();
  const double r2 = radius * radius;
  std::vector<std::uint32_t> stack;
  descend(stack, [&](std::uint32_t, const Cell& c) {
    const morton::CellBox b = box(c);
    // Min distance from center to the cell cube.
    double d2 = 0;
    for (int a = 0; a < 3; ++a) {
      const double excess = std::abs(center[a] - b.center[a]) - b.half;
      if (excess > 0) d2 += excess * excess;
    }
    if (d2 > r2) return false;
    if (c.is_leaf())
      for (std::uint32_t i = c.body_begin; i < c.body_begin + c.body_count; ++i)
        out.push_back(order_[i]);
    return true;
  });
}

}  // namespace hotlib::hot
