#include "cosmo/simulation.hpp"

#include "cosmo/project.hpp"
#include "gravity/integrator.hpp"

namespace hotlib::cosmo {

CosmologySim::CosmologySim(parc::Rank& rank, const SimConfig& cfg)
    : rank_(rank), cfg_(cfg), domain_(ics_domain(cfg.ics)) {
  // Deterministic global ICs; each rank keeps a strided share, the first
  // decomposition sorts everything out.
  hot::Bodies all = make_spherical_ics(cfg.ics);
  add_hubble_flow(all, Vec3d::all(cfg.ics.box_mpc / 2), cfg.hubble);
  const int p = rank_.size();
  for (std::size_t i = static_cast<std::size_t>(rank_.rank()); i < all.size();
       i += static_cast<std::size_t>(p))
    bodies_.append_from(all, i);
  total_bodies_ = all.size();

  force_cfg_.mac = cfg.mac;
  force_cfg_.mac.G = cfg.G;
  force_cfg_.softening = 0.02 * cfg.ics.box_mpc;
  force_cfg_.G = cfg.G;
}

StepStats CosmologySim::forces_internal() {
  const auto result = gravity::parallel_tree_forces(rank_, bodies_, domain_, force_cfg_);
  StepStats s;
  struct Pack {
    std::uint64_t bb, bc;
    double ke, pe;
    Pack operator+(const Pack& o) const {
      return {bb + o.bb, bc + o.bc, ke + o.ke, pe + o.pe};
    }
  };
  const Pack total = rank_.allreduce(
      Pack{result.tally.body_body, result.tally.body_cell,
           gravity::kinetic_energy(bodies_), gravity::potential_energy(bodies_)},
      parc::Sum{});
  s.tally.body_body = total.bb;
  s.tally.body_cell = total.bc;
  s.kinetic = total.ke;
  s.potential = total.pe;
  s.imbalance = result.decomp.imbalance();
  s.let_cells = result.let_cells;
  s.let_bodies = result.let_bodies;
  have_forces_ = true;
  return s;
}

StepStats CosmologySim::step() {
  if (!have_forces_) forces_internal();
  gravity::kick(bodies_, cfg_.dt / 2);
  gravity::drift(bodies_, cfg_.dt);
  const StepStats s = forces_internal();
  gravity::kick(bodies_, cfg_.dt / 2);
  time_ += cfg_.dt;
  return s;
}

hot::Bodies CosmologySim::gather_all() const {
  // Serialize local bodies as (pos, vel, mass) triples via allgather.
  struct Rec {
    Vec3d pos, vel;
    double mass;
  };
  std::vector<Rec> mine(bodies_.size());
  for (std::size_t i = 0; i < bodies_.size(); ++i)
    mine[i] = {bodies_.pos[i], bodies_.vel[i], bodies_.mass[i]};
  auto all = rank_.allgather_vector<Rec>(mine);
  hot::Bodies out;
  if (rank_.rank() != 0) return out;
  for (const auto& block : all)
    for (const Rec& r : block) out.push_back(r.pos, r.vel, r.mass, out.size());
  return out;
}

}  // namespace hotlib::cosmo
