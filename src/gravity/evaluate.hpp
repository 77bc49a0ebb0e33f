// evaluate.hpp — field/potential evaluation at arbitrary sink positions.
//
// The treecode walk is an independent per-sink operation, so nothing ties it
// to the bodies the tree was built from: any position can be a sink. Two
// entry points with different contracts:
//
//  * evaluate_at() walks a *live* tree once per query point (a degenerate
//    sink group of radius zero, see hot::build_point_interaction_lists) and
//    evaluates the lists through the batched SoA kernels. Read-only against
//    the tree, deterministic at every thread count, and safe to run
//    concurrently with other readers — this is the serving layer's query
//    primitive. Accuracy follows the MAC exactly as it does for owned
//    bodies.
//
//  * evaluate_with_phantoms() appends the query points to the source set as
//    massless "phantom" bodies, builds the combined tree and runs the
//    ordinary group-walk force evaluation, returning the phantoms' outputs.
//    This is the reference semantics the serving queries are measured
//    against: the regression test in test_gravity pins it bit-identical to
//    literal phantom insertion, so the factored API can never drift from
//    what inserting massless bodies would have produced.
//
// Both overwrite (not accumulate into) `acc`/`pot`, unlike tree_forces: a
// query has no prior partial sums to preserve.
#pragma once

#include <span>

#include "gravity/batch.hpp"
#include "gravity/evaluator.hpp"
#include "hot/traverse.hpp"
#include "hot/tree.hpp"
#include "morton/key.hpp"
#include "util/vec3.hpp"

namespace hotlib::gravity {

// Gather one interaction list into SoA lanes: bodies in list order, then the
// accepted cells' monopoles (and quadrupoles when the MAC keeps them).
// Shared by tree_forces and the arbitrary-sink evaluators so the gather
// order — and therefore the kernel arithmetic order — is identical on every
// path.
void gather_interaction_batch(const hot::Tree& tree, const hot::InteractionLists& lists,
                              std::span<const Vec3d> pos, std::span<const double> mass,
                              bool quadrupole, InteractionBatch& batch);

// The same gather for shipped records (a LET import, or the remote half of
// an ABM sink group's lists): bodies in order, then the cells.
void gather_records(std::span<const hot::SourceRecord> bodies,
                    std::span<const hot::CellRecord> cells, bool quadrupole,
                    InteractionBatch& batch);

// Evaluate acceleration and potential at every position of `points` from the
// sources of `tree` (`src_pos`/`src_mass` in the original indexing the tree
// was built from). One point walk per query; parallelized over points on the
// task pool with bit-identical results at any HOTLIB_THREADS.
InteractionTally evaluate_at(const hot::Tree& tree, std::span<const Vec3d> src_pos,
                             std::span<const double> src_mass,
                             const TreeForceConfig& cfg, std::span<const Vec3d> points,
                             std::span<Vec3d> acc, std::span<double> pot);

// Reference semantics: build a tree over sources plus massless phantoms at
// `points` (all positions must lie inside `domain`), run tree_forces over
// the combined set, and copy the phantoms' outputs. The returned tally is
// the full combined-run tally (phantom rows do real traversal work). Bit-
// identical to inserting the phantoms by hand.
InteractionTally evaluate_with_phantoms(std::span<const Vec3d> src_pos,
                                        std::span<const double> src_mass,
                                        const morton::Domain& domain,
                                        hot::Tree::Config tree_cfg,
                                        const TreeForceConfig& cfg,
                                        std::span<const Vec3d> points,
                                        std::span<Vec3d> acc, std::span<double> pot);

}  // namespace hotlib::gravity
