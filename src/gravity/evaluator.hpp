// evaluator.hpp — treecode force evaluation (the flop-counted inner stage).
#pragma once

#include <span>

#include "hot/let.hpp"
#include "hot/mac.hpp"
#include "hot/traverse.hpp"
#include "hot/tree.hpp"
#include "telemetry/counters.hpp"
#include "util/vec3.hpp"

namespace hotlib::gravity {

struct TreeForceConfig {
  hot::Mac mac{};          // acceptance criterion (theta / error bound / quad flag)
  double softening = 0.0;  // Plummer softening length
  double G = 1.0;
};

// Evaluate accelerations and potentials for every body of the tree from the
// tree's own (local) sources. `pos`/`mass`/`acc`/`pot` use original body
// indexing (the arrays the tree was built from). When `work` is non-empty,
// each body's interaction count is written there for the next weighted
// domain decomposition.
InteractionTally tree_forces(const hot::Tree& tree, std::span<const Vec3d> pos,
                             std::span<const double> mass, const TreeForceConfig& cfg,
                             std::span<Vec3d> acc, std::span<double> pot,
                             std::span<double> work = {});

// Apply a LET import (remote multipoles + remote direct bodies) to every
// body of the local tree it was exchanged for (import.sinks, non-null;
// `pos`/`acc`/`pot`/`work` use the indexing that tree was built from).
// Import cells were MAC-accepted against this rank's whole domain, so they
// act on every sink as one shared batch. The imported bodies get a tree of
// their own, which each sink group walks as tree_forces walks the local
// tree, with the MAC distance taken to the cube of half-side bmax around the
// group's com.
InteractionTally apply_let_import(const hot::LetImport& import,
                                  std::span<const Vec3d> pos, const TreeForceConfig& cfg,
                                  std::span<Vec3d> acc, std::span<double> pot,
                                  std::span<double> work = {});

}  // namespace hotlib::gravity
