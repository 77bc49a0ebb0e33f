// tree.hpp — the hashed oct-tree data structure.
//
// Particles get Morton keys; sorting the keys makes every tree cell a
// contiguous range of the particle order, and the tree is built top-down by
// splitting ranges on the 3-bit key digits. Cells carry multipole moments
// (mass, center of mass, trace-free quadrupole), the scalar second moment B2
// and the enclosing radius b_max used by the multipole acceptance criteria.
// Every cell is registered in a key->index hash table: the hashed name space
// is what lets the parallel code address remote cells by key alone.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "hot/key_hash_table.hpp"
#include "morton/key.hpp"
#include "util/vec3.hpp"

namespace hotlib::hot {

inline constexpr std::uint32_t kNullIndex = 0xFFFFFFFFu;

// Raw (origin-centered) moment sums; the merge-friendly representation used
// while combining partial cells across ranks, finalized into Cell moments.
struct RawMoments {
  double mass = 0.0;
  Vec3d weighted_pos{};                  // sum of m*x
  std::array<double, 6> second{};        // sum of m*x_a*x_b (xx,xy,xz,yy,yz,zz)

  void accumulate(const Vec3d& x, double m);
  RawMoments& operator+=(const RawMoments& o);
};

struct Cell {
  morton::Key key = 0;
  std::uint32_t first_child = kNullIndex;  // children stored contiguously
  std::uint32_t nchildren = 0;
  std::uint32_t body_begin = 0;  // range into the tree-ordered particle list
  std::uint32_t body_count = 0;

  double mass = 0.0;
  Vec3d com{};                       // center of mass
  std::array<double, 6> quad{};      // trace-free quadrupole about com
  double b2 = 0.0;                   // sum m |x-com|^2 (for the error MAC)
  double bmax = 0.0;                 // radius of smallest com-centered sphere
                                     // containing all member particles

  bool is_leaf() const { return nchildren == 0; }
};

class Tree {
 public:
  struct Config {
    int bucket_size = 16;  // max particles in a leaf (paper uses small buckets)
  };

  // Build over `pos` (masses parallel to pos) inside `domain`. All positions
  // must lie inside the domain.
  void build(std::span<const Vec3d> pos, std::span<const double> mass,
             const morton::Domain& domain, Config cfg);
  void build(std::span<const Vec3d> pos, std::span<const double> mass,
             const morton::Domain& domain) {
    build(pos, mass, domain, Config{});
  }

  const morton::Domain& domain() const { return domain_; }
  const std::vector<Cell>& cells() const { return cells_; }
  const Cell& root() const { return cells_.front(); }
  bool empty() const { return cells_.empty(); }
  std::size_t body_count() const { return order_.size(); }

  // Tree-order permutation: order()[i] is the original index of the i-th
  // body in tree (Morton) order.
  std::span<const std::uint32_t> order() const { return order_; }
  // Morton key of the i-th body in tree order.
  std::span<const morton::Key> sorted_keys() const { return keys_; }

  // Hash lookup by global key; returns nullptr when the cell does not exist
  // in this (local) tree — exactly the signal the parallel code uses to
  // detect non-local data.
  const Cell* find(morton::Key key) const {
    const std::uint32_t idx = hash_.find(key);
    return idx == KeyHashTable::kNotFound ? nullptr : &cells_[idx];
  }
  std::uint32_t find_index(morton::Key key) const { return hash_.find(key); }

  // Visit cells bottom-up (children strictly before parents); used by the
  // vortex/SPH modules to attach their own per-cell payloads.
  template <class F>
  void postorder(F&& f) const {
    // Children are always stored after their parent, so reverse iteration
    // visits children first.
    for (std::size_t i = cells_.size(); i-- > 0;) f(cells_[i], static_cast<std::uint32_t>(i));
  }

  // The one pruned depth-first descent every tree walk runs on: pops a cell,
  // calls visit(ci, cell), and opens it — pushes its children in octant
  // order, so they pop last-first — when visit returns true. `stack` is
  // caller-owned scratch, cleared on entry, so a walk that reuses it does
  // not allocate. A tree without bodies visits nothing.
  template <class Visit>
  void descend(std::vector<std::uint32_t>& stack, Visit&& visit) const {
    stack.clear();
    if (cells_.empty() || cells_[0].body_count == 0) return;
    stack.push_back(0);
    while (!stack.empty()) {
      const std::uint32_t ci = stack.back();
      stack.pop_back();
      const Cell& c = cells_[ci];
      if (visit(ci, c))
        for (std::uint32_t k = 0; k < c.nchildren; ++k) stack.push_back(c.first_child + k);
    }
  }

  // Candidate neighbour search: original indices of all bodies in leaf cells
  // whose box overlaps the sphere (center, radius). The tree does not store
  // positions, so callers apply the exact radius test; no candidate within
  // the radius is ever missed.
  void find_within(const Vec3d& center, double radius,
                   std::vector<std::uint32_t>& out) const;

  // Geometric box of a cell.
  morton::CellBox box(const Cell& c) const { return morton::cell_box(c.key, domain_); }

  // Maximum depth and cell count diagnostics.
  int max_depth() const { return max_depth_; }

  // Set this rank's tree-size and hash-table health gauges from this tree.
  // build() does; a caller that builds a scratch tree beside the one the
  // rank holds calls it on the held tree after.
  void publish_gauges() const;

 private:
  // One subtree's descendants in the serial depth-first layout (children of
  // a cell contiguous, then each child's descendants in octant order).
  // `first_child` indices are block-local; the parent splices sub-blocks
  // together and rebases them, which is what makes the recursive-decompose
  // build reproduce the serial cell layout bit-for-bit at any thread count.
  struct DescBlock {
    std::vector<Cell> cells;
    std::uint32_t nchildren = 0;  // direct children of the block's root cell
    int max_depth = 0;
  };

  // Descendants of the cell (key, keys_[lo, hi), level): task-recursive
  // above the grain size, serial below it.
  DescBlock build_desc(morton::Key key, std::uint32_t lo, std::uint32_t hi,
                       int level, Config cfg) const;
  // Serial appender used at the leaves of the task recursion; returns the
  // cell's direct-child count.
  std::uint32_t build_desc_serial(morton::Key key, std::uint32_t lo,
                                  std::uint32_t hi, int level, Config cfg,
                                  std::vector<Cell>& out, int& max_depth) const;
  // Bottom-up moments: serial reverse sweep, or level-synchronous parallel
  // sweep (all cells of one depth are independent) — bitwise identical.
  void compute_all_moments(const std::vector<Vec3d>& sorted_pos,
                           const std::vector<double>& sorted_mass);
  void compute_moments(std::uint32_t ci, const std::vector<Vec3d>& sorted_pos,
                       const std::vector<double>& sorted_mass);

  morton::Domain domain_;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> order_;
  std::vector<morton::Key> keys_;
  KeyHashTable hash_;
  int max_depth_ = 0;
};

// Finalize raw origin-centered moments into com-centered Cell moments
// (quadrupole, b2). bmax cannot be recovered from raw sums; callers supply a
// bound (e.g. the cell box circumradius).
void finalize_moments(const RawMoments& raw, double bmax_bound, Cell& out);

}  // namespace hotlib::hot
