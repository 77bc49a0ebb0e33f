#include "hot/traverse.hpp"

namespace hotlib::hot {

namespace {

// The MAC walk core: `sink_dist(cell)` is the distance from the cell's
// center of mass to the closest possible sink. A cell is accepted when the
// MAC passes at that distance, a failing leaf spills its bodies onto the
// direct list, and anything else is opened. The leaf named by `self_index`
// (kNullIndex for sinks that own no bodies) goes onto the direct list
// whole, at `self_begin`.
template <class SinkDist>
void mac_walk(const Tree& tree, std::uint32_t self_index, const Mac& mac,
              const SinkDist& sink_dist, InteractionLists& lists,
              InteractionTally& tally) {
  lists.cells.clear();
  lists.bodies.clear();
  lists.self_begin = 0;
  const auto spill = [&](const Cell& c) {
    for (std::uint32_t i = c.body_begin; i < c.body_begin + c.body_count; ++i)
      lists.bodies.push_back(tree.order()[i]);
  };
  tree.descend(lists.stack, [&](std::uint32_t ci, const Cell& c) {
    if (c.body_count == 0) return false;
    if (ci == self_index) {
      // The group interacts with itself directly.
      lists.self_begin = lists.bodies.size();
      spill(c);
      return false;
    }
    ++tally.mac_tests;
    if (mac.accept(c, sink_dist(c))) {
      lists.cells.push_back(ci);
      return false;
    }
    if (c.is_leaf()) {
      spill(c);
      return false;
    }
    ++tally.cells_opened;
    return true;
  });
  if (self_index == kNullIndex) lists.self_begin = lists.bodies.size();
}

}  // namespace

void build_interaction_lists(const Tree& tree, std::uint32_t leaf_index, const Mac& mac,
                             InteractionLists& lists, InteractionTally& tally) {
  const Cell& group = tree.cells()[leaf_index];
  // Worst-case sink distance: the group's nearest member may sit bmax closer.
  mac_walk(tree, leaf_index, mac,
           [&](const Cell& c) { return norm(c.com - group.com) - group.bmax; }, lists,
           tally);
}

void build_point_interaction_lists(const Tree& tree, const Vec3d& point, const Mac& mac,
                                   InteractionLists& lists, InteractionTally& tally) {
  mac_walk(tree, kNullIndex, mac, [&](const Cell& c) { return norm(c.com - point); },
           lists, tally);
}

void build_box_interaction_lists(const Tree& tree, const Aabb& box, const Mac& mac,
                                 InteractionLists& lists, InteractionTally& tally) {
  mac_walk(tree, kNullIndex, mac, [&](const Cell& c) { return box.distance(c.com); },
           lists, tally);
}

std::vector<std::uint32_t> leaf_indices(const Tree& tree) {
  std::vector<std::uint32_t> out;
  const auto& cells = tree.cells();
  for (std::uint32_t i = 0; i < cells.size(); ++i)
    if (cells[i].is_leaf() && cells[i].body_count > 0) out.push_back(i);
  return out;
}

}  // namespace hotlib::hot
