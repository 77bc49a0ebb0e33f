// traverse.hpp — kernel-agnostic tree traversal with interaction lists.
//
// "In the main stage of the algorithm, this tree is traversed independently
// in each processor..." Sinks are processed a leaf bucket at a time: the
// walk starts at the root and, for every cell, either accepts its multipole
// (MAC passes for the whole sink group), opens it, or — for leaves — spills
// its bodies onto the direct (particle-particle) list. The resulting lists
// are evaluated by the application's kernel (gravity, vortex, ...), which is
// where all counted flops happen.
//
// Every treecode path is one loop built from two pieces:
//
//  * one MAC walk, on the tree's one pruned descent (Tree::descend). Its
//    three entry points differ only in the sink the MAC distance is taken
//    to: a sink group (build_interaction_lists), a point
//    (build_point_interaction_lists) or a remote domain's box
//    (build_box_interaction_lists, Salmon's LET push).
//  * one sink driver (for_each_sink), which runs a per-sink callback —
//    walk, gather, kernel — over the global task pool. tree_forces,
//    apply_let_import (whose groups walk a tree of the imported bodies),
//    evaluate_at and vortex::tree_velocities are its four callers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "hot/mac.hpp"
#include "hot/spatial.hpp"
#include "hot/tree.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/trace.hpp"
#include "util/scratch_pool.hpp"
#include "util/task_pool.hpp"

namespace hotlib::hot {

struct InteractionLists {
  // Indices into tree.cells() whose multipoles act on the whole sink group.
  std::vector<std::uint32_t> cells;
  // Original body indices interacting directly (includes the group's own
  // members; evaluators skip the self term by index equality).
  std::vector<std::uint32_t> bodies;
  // Offset in `bodies` where the group's own members start. They are pushed
  // contiguously in tree order, so the sink at tree.order()[t] sits at slot
  // self_begin + (t - group.body_begin) — batched evaluators use this to
  // skip the self term in O(1).
  std::size_t self_begin = 0;
  // Descent stack, kept with the lists so a reused InteractionLists walks
  // without allocating.
  std::vector<std::uint32_t> stack;
};

// Build interaction lists for the sink group `leaf_index` (must be a leaf
// cell of `tree`). Replaces the contents of `lists`; updates the traversal
// tally (MAC tests, opened cells).
void build_interaction_lists(const Tree& tree, std::uint32_t leaf_index, const Mac& mac,
                             InteractionLists& lists, InteractionTally& tally);

// Build interaction lists for a single arbitrary sink position (not
// necessarily an owned body): the same walk with a degenerate sink group of
// radius zero centered on `point` and no self cell. Every body of the tree
// lands either on the direct list or inside an accepted cell, so evaluators
// must pass kNoSelf — on return `lists.self_begin == lists.bodies.size()`
// (the group owns no members). This is the per-query primitive the serving
// layer evaluates arbitrary-position field queries with.
void build_point_interaction_lists(const Tree& tree, const Vec3d& point, const Mac& mac,
                                   InteractionLists& lists, InteractionTally& tally);

// Build the lists a remote domain needs from this tree: the same walk with
// the sink distance taken to the closest point of `box`, so every accepted
// cell is valid for every sink inside it. No self cell, as for a point.
void build_box_interaction_lists(const Tree& tree, const Aabb& box, const Mac& mac,
                                 InteractionLists& lists, InteractionTally& tally);

// Enumerate the indices of all leaf cells (sink groups) of the tree.
std::vector<std::uint32_t> leaf_indices(const Tree& tree);

// The one sink driver: calls sink(i, lists, batch, tally) for every i in
// [0, n) on the global task pool and returns the summed tally. Each task
// takes its lists, `Batch` gather buffer and partial tally from a
// ScratchPool; chunks are `grain` = max(1, n / (lanes·8)) sinks, each under
// a `span_name` trace span (a string literal: trace events keep the pointer)
// that nests in the caller's trace context. The sink must write only its
// own outputs — then the results, and the integer tally sum, are
// bit-identical at every HOTLIB_THREADS.
template <class Batch, class Sink>
InteractionTally for_each_sink(std::size_t n, const char* span_name, Sink&& sink) {
  struct Scratch {
    InteractionLists lists;
    Batch batch;
    InteractionTally tally;
  };
  util::TaskPool& pool = util::TaskPool::global();
  util::ScratchPool<Scratch> scratch;
  const std::size_t grain =
      std::max<std::size_t>(1, n / (static_cast<std::size_t>(pool.concurrency()) * 8));
  // The task pool is telemetry-free by design, so hand the ambient trace
  // context across the thread boundary here.
  const telemetry::TraceContext tc = telemetry::trace_slot();
  pool.parallel_for(n, grain, [&](std::size_t lo, std::size_t hi) {
    telemetry::ensure_worker(util::TaskPool::current_worker());
    telemetry::TraceContextScope trace_scope(tc);
    telemetry::Span chunk(span_name, telemetry::Phase::kOther, hi - lo);
    std::unique_ptr<Scratch> s = scratch.acquire();
    for (std::size_t i = lo; i < hi; ++i) sink(i, s->lists, s->batch, s->tally);
    scratch.release(std::move(s));
  });
  // uint64 sums are associative, so the order buffers come back in (which
  // varies with steal order) cannot change the total.
  InteractionTally tally;
  scratch.for_each([&](Scratch& s) { tally += s.tally; });
  return tally;
}

}  // namespace hotlib::hot
