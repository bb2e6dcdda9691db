// End-to-end 3D PIC runs (the paper's production dimensionality; Fig. 7's
// headline point is that 2D gets late-time physics wrong, so the 3D path
// must be first-class). Small grids keep these fast.

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/simulation.hpp"
#include "src/diag/spectrum.hpp"
#include "tests/support/sim_state.hpp"

namespace mrpic::core {
namespace {

using namespace mrpic::constants;

SimulationConfig<3> periodic_config(int n = 12) {
  SimulationConfig<3> cfg;
  cfg.domain = Box3(IntVect3(0, 0, 0), IntVect3(n - 1, n - 1, n - 1));
  cfg.prob_lo = RealVect3(0, 0, 0);
  cfg.prob_hi = RealVect3(n * 1e-7, n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true, true};
  cfg.max_grid_size = IntVect3(n);
  cfg.shape_order = 2;
  return cfg;
}

TEST(Simulation3D, UniformPlasmaConservesChargeAndCount) {
  Simulation<3> sim(periodic_config());
  plasma::InjectorConfig<3> inj;
  inj.density = plasma::uniform<3>(1e24);
  inj.ppc = IntVect3(2, 1, 1);
  inj.temperature_ev = 100.0;
  const int s = sim.add_species(particles::Species::electron(), inj);
  sim.init();
  EXPECT_EQ(sim.total_particles(), 12 * 12 * 12 * 2);
  const Real q0 = sim.species_level0(s).total_charge();
  sim.run(8);
  EXPECT_EQ(sim.total_particles(), 12 * 12 * 12 * 2);
  EXPECT_NEAR(sim.species_level0(s).total_charge(), q0, std::abs(q0) * 1e-12);
  EXPECT_TRUE(std::isfinite(sim.total_energy()));
}

TEST(Simulation3D, ColdPlasmaStaysQuiet) {
  Simulation<3> sim(periodic_config());
  plasma::InjectorConfig<3> inj;
  inj.density = plasma::uniform<3>(1e24);
  inj.ppc = IntVect3(1, 1, 1);
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  sim.run(10);
  EXPECT_LT(sim.fields().E().max_abs(0), 1e3);
  EXPECT_LT(sim.fields().E().max_abs(2), 1e3);
}

TEST(Simulation3D, LangmuirFrequency) {
  // The plasma-oscillation check in full 3D.
  const Real n0 = 2e24;
  const Real omega_p = std::sqrt(n0 * q_e * q_e / (eps0 * m_e));
  SimulationConfig<3> cfg;
  const int nx = 16;
  const Real L = 8e-6;
  cfg.domain = Box3(IntVect3(0, 0, 0), IntVect3(nx - 1, 3, 3));
  cfg.prob_lo = RealVect3(0, 0, 0);
  cfg.prob_hi = RealVect3(L, L / nx * 4, L / nx * 4);
  cfg.periodic = {true, true, true};
  cfg.max_grid_size = IntVect3(16);
  cfg.shape_order = 2;
  Simulation<3> sim(cfg);
  plasma::InjectorConfig<3> inj;
  inj.density = plasma::uniform<3>(n0);
  inj.ppc = IntVect3(2, 2, 2);
  const int s = sim.add_species(particles::Species::electron(), inj);
  sim.init();

  auto& pc = sim.species_level0(s);
  for (int ti = 0; ti < pc.num_tiles(); ++ti) {
    auto& tile = pc.tile(ti);
    for (std::size_t p = 0; p < tile.size(); ++p) {
      tile.u[0][p] = 1e-3 * c * std::sin(2 * pi * tile.x[0][p] / L);
    }
  }
  std::vector<Real> amps, times;
  while (sim.time() < 2.2 * (2 * pi / omega_p)) {
    sim.step();
    Real a = 0;
    const auto e = sim.fields().E().const_array(0);
    for (int i = 0; i < nx; ++i) {
      const Real x = sim.geom().node_pos(i, 0) + 0.5 * sim.geom().cell_size(0);
      a += e(i, 1, 1, 0) * std::sin(2 * pi * x / L);
    }
    amps.push_back(a);
    times.push_back(sim.time());
  }
  std::vector<Real> crossings;
  for (std::size_t i = 1; i < amps.size(); ++i) {
    if ((amps[i - 1] < 0) != (amps[i] < 0)) {
      const Real f = amps[i - 1] / (amps[i - 1] - amps[i]);
      crossings.push_back(times[i - 1] + f * (times[i] - times[i - 1]));
    }
  }
  ASSERT_GE(crossings.size(), 3u);
  const Real half_period = (crossings.back() - crossings.front()) / (crossings.size() - 1);
  EXPECT_NEAR(pi / half_period / omega_p, 1.0, 0.08);
}

TEST(Simulation3D, MRPatchLifecycle) {
  SimulationConfig<3> cfg = periodic_config(16);
  cfg.max_grid_size = IntVect3(16);
  Simulation<3> sim(cfg);
  plasma::InjectorConfig<3> inj;
  inj.density = plasma::uniform<3>(1e24);
  inj.ppc = IntVect3(1, 1, 1);
  sim.add_species(particles::Species::electron(), inj);
  mr::MRPatch<3>::Config pcfg;
  pcfg.region = Box3(IntVect3(4, 4, 4), IntVect3(11, 11, 11));
  pcfg.transition_cells = 1;
  pcfg.pml.npml = 4;
  sim.enable_mr_patch(pcfg);
  sim.init();
  const auto n0 = sim.total_particles();
  EXPECT_GT(sim.species_patch(0).total_particles(), 0);
  sim.run(4);
  EXPECT_EQ(sim.total_particles(), n0);
  EXPECT_TRUE(std::isfinite(sim.patch()->fine().E().max_abs(2)));
  sim.patch()->remove();
  sim.run(2);
  EXPECT_EQ(sim.species_patch(0).total_particles(), 0);
  EXPECT_EQ(sim.total_particles(), n0);
}

TEST(Simulation3D, LaserInjectsEnergyThroughPml) {
  SimulationConfig<3> cfg;
  cfg.domain = Box3(IntVect3(0, 0, 0), IntVect3(31, 15, 15));
  cfg.prob_lo = RealVect3(0, 0, 0);
  cfg.prob_hi = RealVect3(8e-6, 4e-6, 4e-6);
  cfg.periodic = {false, false, false};
  cfg.use_pml = true;
  cfg.pml.npml = 6;
  cfg.max_grid_size = IntVect3(32, 16, 16);
  Simulation<3> sim(cfg);
  laser::LaserConfig lc;
  lc.a0 = 0.5;
  lc.waist = 1.2e-6;
  lc.duration = 4e-15;
  lc.t_peak = 8e-15;
  lc.x_antenna = 1e-6;
  lc.center = {2e-6, 2e-6};
  sim.add_laser(lc);
  sim.init();
  Real peak = 0;
  while (sim.time() < 16e-15) {
    sim.step();
    peak = std::max(peak, sim.fields().field_energy());
  }
  EXPECT_GT(peak, 0.0);
  while (sim.time() < 50e-15) { sim.step(); }
  EXPECT_LT(sim.fields().field_energy(), peak); // pulse left through the PML
}

// The 3D gather and Esirkepov paths under the particle stage's tile loop: a
// thermal plasma on 8 level-0 tiles plus an MR patch, stepped past the
// first sort (20 steps done), ends bit-identical at 1, 2 and 4 threads.
TEST(ThreadInvariance, Simulation3DWithPatchIsBitIdenticalAt1To4Threads) {
  std::vector<testing::StateArrays> states;
  for (const int threads : {1, 2, 4}) {
    testing::with_threads(threads, [&] {
      SimulationConfig<3> cfg = periodic_config(16);
      cfg.max_grid_size = IntVect3(8);
      Simulation<3> sim(cfg);
      plasma::InjectorConfig<3> inj;
      inj.density = plasma::uniform<3>(1e24);
      inj.ppc = IntVect3(1, 1, 1);
      inj.temperature_ev = 100.0;
      sim.add_species(particles::Species::electron(), inj);
      mr::MRPatch<3>::Config pcfg;
      pcfg.region = Box3(IntVect3(4, 4, 4), IntVect3(11, 11, 11));
      pcfg.transition_cells = 1;
      pcfg.pml.npml = 4;
      sim.enable_mr_patch(pcfg);
      sim.init();
      sim.run(22);
      ASSERT_TRUE(sim.patch()->active());
      EXPECT_GT(sim.species_patch(0).total_particles(), 0);
      states.push_back(testing::state_of(sim));
    });
  }
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(testing::first_difference(states[0], states[1]), "") << "1 vs 2 threads";
  EXPECT_EQ(testing::first_difference(states[0], states[2]), "") << "1 vs 4 threads";
}

} // namespace
} // namespace mrpic::core
