// simulation.hpp — the high-level cosmology N-body driver: the public API a
// downstream user calls to run the paper's style of simulation (spherical
// region, Hubble flow, parallel treecode, striped snapshots, projected-
// density images). Used by examples/cosmo_sim and bench_loki/bench_treecode.
#pragma once

#include <functional>
#include <string>

#include "cosmo/ics.hpp"
#include "gravity/parallel.hpp"
#include "hot/bodies.hpp"
#include "parc/rank.hpp"
#include "telemetry/counters.hpp"

namespace hotlib::cosmo {

// ICs are the paper's sphere + 8x-mass buffer (make_spherical_ics); forces
// come from the LET push pipeline (gravity::parallel_tree_forces) with a
// Plummer softening of 2% of the box side.
struct SimConfig {
  IcsConfig ics{};
  double hubble = 0.05;            // initial Hubble rate (code units)
  double dt = 0.5;                 // leapfrog step
  hot::Mac mac{.theta = 0.35};
  double G = 1.0;
};

struct StepStats {
  InteractionTally tally;          // global (allreduced) interactions
  double imbalance = 1.0;          // decomposition work imbalance
  std::size_t let_cells = 0;
  std::size_t let_bodies = 0;
  double kinetic = 0.0;            // global energies
  double potential = 0.0;
};

// One rank's share of a cosmology simulation. Construct inside a parc body;
// every rank constructs with identical config (the ICs are generated
// deterministically and each rank keeps its strided share).
class CosmologySim {
 public:
  CosmologySim(parc::Rank& rank, const SimConfig& cfg);

  // Kick-drift-kick step with a fresh force computation; returns global
  // statistics (identical on every rank).
  StepStats step();

  const hot::Bodies& local() const { return bodies_; }
  hot::Bodies& local() { return bodies_; }
  const morton::Domain& domain() const { return domain_; }
  double time() const { return time_; }
  std::uint64_t total_bodies() const { return total_bodies_; }

  // Gather all bodies to rank 0 (returns empty elsewhere) — for imaging and
  // snapshotting at laptop scale.
  hot::Bodies gather_all() const;

 private:
  StepStats forces_internal();

  parc::Rank& rank_;
  SimConfig cfg_;
  morton::Domain domain_;
  hot::Bodies bodies_;
  gravity::TreeForceConfig force_cfg_;
  double time_ = 0.0;
  bool have_forces_ = false;
  std::uint64_t total_bodies_ = 0;
};

}  // namespace hotlib::cosmo
