// evaluate.hpp — field/potential evaluation at arbitrary sink positions.
//
// The treecode walk is an independent per-sink operation, so nothing ties it
// to the bodies the tree was built from: any position can be a sink.
// evaluate_at() walks a *live* tree once per query point (a degenerate sink
// group of radius zero, see hot::build_point_interaction_lists) and
// evaluates the lists through the batched SoA kernels. Read-only against the
// tree, deterministic at every thread count, and safe to run concurrently
// with other readers — this is the serving layer's query primitive. Accuracy
// follows the MAC exactly as it does for owned bodies. It overwrites (not
// accumulates into) `acc`/`pot`, unlike tree_forces: a query has no prior
// partial sums to preserve.
//
// Its reference semantics, inserting the query points as massless phantom
// bodies and running tree_forces over the combined set, lives with the tests
// (evaluate_with_phantoms in tests/test_gravity.cpp).
#pragma once

#include <span>

#include "gravity/batch.hpp"
#include "gravity/evaluator.hpp"
#include "hot/traverse.hpp"
#include "hot/tree.hpp"
#include "util/vec3.hpp"

namespace hotlib::gravity {

// Gather one interaction list into SoA lanes: the batch is sized once, then
// slot k of every lane is written from the k-th listed body, and likewise
// for the accepted cells' monopoles (and quadrupoles when the MAC keeps
// them). Shared by tree_forces and the arbitrary-sink evaluators so the
// gather order — and therefore the kernel arithmetic order — is identical on
// every path.
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

}  // namespace hotlib::gravity
