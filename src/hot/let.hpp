// let.hpp — locally essential tree (LET) exchange.
//
// After decomposition, each rank holds a contiguous Morton interval and
// builds a local tree over its own bodies. To evaluate forces it also needs
// the *locally essential* remote data: for every other rank, the cells of
// that rank's tree that pass the MAC with respect to our entire domain, and
// the raw bodies where the MAC fails all the way to a remote leaf.
//
// We use the "push" formulation (Salmon's original LET construction): the
// *owner* of the data walks its tree against each remote rank's bounding box
// and ships what that rank will need, in one all-to-all. Because the MAC is
// applied against the closest possible sink in the remote box, every shipped
// multipole is valid for every sink on the receiving rank. The shipped
// bodies are what the sink nearest the sender needs; the receiver walks a
// tree of them per sink group (gravity::apply_let_import), so farther sinks
// take them as multipoles. (The request-driven ABM traversal — the paper's
// latency-hiding alternative — lives in dtree.hpp; bench_abm compares the
// two paths.)
#pragma once

#include <vector>

#include "hot/bodies.hpp"
#include "hot/mac.hpp"
#include "hot/spatial.hpp"
#include "hot/tree.hpp"
#include "parc/rank.hpp"
#include "telemetry/counters.hpp"

namespace hotlib::hot {

// Aabb lives in spatial.hpp now (shared with the serving layer's region
// queries); included above.

// Bounding box of the local bodies (degenerate when empty).
Aabb local_aabb(const Bodies& b);

// Multipole record shipped between ranks.
struct CellRecord {
  Vec3d com;
  double mass;
  std::array<double, 6> quad;
  double b2;
  double bmax;
};

// Raw body record shipped when a leaf must be resolved directly.
struct SourceRecord {
  Vec3d pos;
  double mass;
};

struct LetImport {
  std::vector<CellRecord> cells;
  std::vector<SourceRecord> bodies;
  std::size_t bytes_sent = 0;  // this rank's outgoing LET volume
  // The local tree exchange_let walked: its leaves are the sink groups the
  // import is applied to. It must outlive the import and not be rebuilt
  // before the import is applied.
  const Tree* sinks = nullptr;
};

// Exchange locally essential data among all ranks. `boxes` are the per-rank
// bounding boxes (from allgathering local_aabb). Every shipped cell was
// accepted by `mac` against the receiving rank's whole box.
LetImport exchange_let(parc::Rank& rank, const Tree& local_tree,
                       std::span<const Vec3d> local_pos,
                       std::span<const double> local_mass,
                       const std::vector<Aabb>& boxes, const Mac& mac);

}  // namespace hotlib::hot
