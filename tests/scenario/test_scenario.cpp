// Scenario subsystem tests: ModuleRange cadence arithmetic, the registry
// contract (>= 10 workloads, lookup, duplicate rejection), a stepping smoke
// of every registered scenario, and the ScenarioEquivalence bit-identity
// guarantee — a spec-built simulation must match the legacy hand-rolled
// example setup field-for-field and particle-for-particle.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/boost/lorentz.hpp"
#include "src/scenario/builder.hpp"
#include "src/scenario/library.hpp"
#include "src/scenario/registry.hpp"

namespace mrpic::scenario {
namespace {

using namespace mrpic::constants;

TEST(ModuleRange, DueHonorsStartEveryEnabled) {
  const ModuleRange r{true, 10, 5};
  EXPECT_FALSE(r.due(0));
  EXPECT_FALSE(r.due(9));
  EXPECT_TRUE(r.due(10));
  EXPECT_FALSE(r.due(12));
  EXPECT_TRUE(r.due(15));
  EXPECT_TRUE(r.due(100));

  const ModuleRange off{false, 0, 5};
  EXPECT_FALSE(off.due(0));
  EXPECT_FALSE(off.due(5));

  const ModuleRange never{true, 0, 0}; // every = 0 means "never"
  EXPECT_FALSE(never.due(0));
  EXPECT_FALSE(never.due(100));

  const ModuleRange each{true, 0, 1};
  EXPECT_TRUE(each.due(0));
  EXPECT_TRUE(each.due(1));
}

TEST(ScenarioRegistry, HoldsTheWorkloadCatalog) {
  auto& reg = ScenarioRegistry::instance();
  EXPECT_GE(reg.entries().size(), 10u);

  // The five legacy examples plus the tentpole growth scenarios.
  for (const char* name :
       {"quickstart", "uniform_psatd", "lwfa", "lwfa_mr", "lwfa_downramp",
        "lwfa_ionization", "lwfa_two_stage", "boosted_lwfa", "plasma_mirror",
        "hybrid_target_mr", "thin_foil_ion"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    const ScenarioSpec spec = reg.make(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.title.empty()) << name;
    EXPECT_FALSE(spec.output_prefix.empty()) << name;
    EXPECT_FALSE(spec.species.empty()) << name;
    EXPECT_GT(spec.t_end, 0) << name;
  }

  EXPECT_FALSE(reg.contains("not_a_scenario"));
  EXPECT_THROW(reg.make("not_a_scenario"), std::out_of_range);
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  ScenarioRegistry reg;
  EXPECT_TRUE(reg.add("a", "first", make_quickstart));
  EXPECT_FALSE(reg.add("a", "second", make_quickstart));
  EXPECT_EQ(reg.entries().size(), 1u);
  EXPECT_EQ(reg.find("a")->title, "first");
}

TEST(ScenarioBuilder, FoldsCadencesIntoSimConfig) {
  // The step-loop cadences are SimulationConfig fields: the built
  // simulation runs exactly the spec's ranges, start included.
  ScenarioSpec spec = make_lwfa();
  spec.sim.sort = {true, 3, 7};
  spec.sim.rebalance = {true, 5, 13};
  auto sim = build_simulation(spec, {.no_mr = false, .init = false});
  EXPECT_EQ(sim->config().sort.start, 3);
  EXPECT_EQ(sim->config().sort.every, 7);
  EXPECT_TRUE(sim->config().rebalance.enabled);
  EXPECT_EQ(sim->config().rebalance.start, 5);
  EXPECT_EQ(sim->config().rebalance.every, 13);

  spec.sim.sort.enabled = false;
  spec.sim.rebalance.enabled = false;
  sim = build_simulation(spec, {.no_mr = false, .init = false});
  EXPECT_FALSE(sim->config().sort.due(7));
  EXPECT_FALSE(sim->config().rebalance.due(13));
}

// A small periodic plasma with all particles in one corner over 4 ranks:
// every rebalance evaluation publishes the lb_cost_imbalance gauge.
ScenarioSpec imbalanced_spec(ModuleRange rebalance) {
  ScenarioSpec spec;
  spec.name = "imbalanced";
  spec.sim.domain = Box2(IntVect2(0, 0), IntVect2(31, 31));
  spec.sim.prob_hi = RealVect2(32e-7, 32e-7);
  spec.sim.periodic = {true, true};
  spec.sim.max_grid_size = IntVect2(8);
  spec.sim.shape_order = 2;
  spec.sim.nranks = 4;
  spec.sim.rebalance = rebalance;
  SpeciesSpec sp;
  sp.species = particles::Species::electron();
  sp.injector.density = plasma::slab<2>(1e24, 0.0, 0.8e-6);
  sp.injector.ppc = IntVect2(2, 2);
  spec.species.push_back(sp);
  return spec;
}

// Steps done when the load balancer first evaluated (-1 = never).
std::int64_t first_rebalance_step(const ScenarioSpec& spec, int steps) {
  auto sim = build_simulation(spec);
  for (int s = 0; s < steps; ++s) {
    sim->step();
    if (sim->metrics().history().back().gauges.count("lb_cost_imbalance") != 0) {
      return sim->step_count();
    }
  }
  return -1;
}

TEST(ScenarioBuilder, RebalanceRangeStartIsHonored) {
  EXPECT_EQ(first_rebalance_step(imbalanced_spec({true, 6, 4}), 12), 6);
}

TEST(ScenarioBuilder, RebalanceEveryZeroNeverFires) {
  EXPECT_EQ(first_rebalance_step(imbalanced_spec({true, 0, 0}), 20), -1);
}

// The digest identifies a workload across runs and campaigns; moving the
// sort/rebalance cadences onto SimulationConfig must not change it.
TEST(ScenarioRegistry, SpecDigestsAreStable) {
  const std::map<std::string, std::string> expected = {
      {"quickstart", "82ece7b409c271eb"},    {"uniform_psatd", "0ab190c372164708"},
      {"lwfa", "4a09d99584888b62"},          {"lwfa_mr", "1ba58aa8eb7fa46d"},
      {"lwfa_downramp", "e04e85124cd71a1e"}, {"lwfa_ionization", "c52e018a55330b35"},
      {"lwfa_two_stage", "294568b7cc8a1777"}, {"boosted_lwfa", "e89316aaa3dbe5d8"},
      {"boosted_lwfa_g4", "83398ec1ef7f322b"}, {"plasma_mirror", "3c41ee60f956610c"},
      {"hybrid_target_mr", "4a2d57d1d1cfec3f"}, {"thin_foil_ion", "28c2ba6dd511497b"},
  };
  auto& reg = ScenarioRegistry::instance();
  ASSERT_EQ(reg.entries().size(), expected.size());
  for (const auto& [name, digest] : expected) {
    EXPECT_EQ(spec_digest(reg.make(name)), digest) << name;
  }
}

// Every registered scenario must build and survive a few steps with finite
// fields — the guarantee behind `mrpic_run --scenario <anything>`.
TEST(ScenarioSmoke, EveryRegisteredScenarioSteps) {
  auto& reg = ScenarioRegistry::instance();
  for (const auto& entry : reg.entries()) {
    SCOPED_TRACE(entry.name);
    const ScenarioSpec spec = reg.make(entry.name);
    auto sim = build_simulation(spec);
    EXPECT_GT(sim->total_particles(), 0);
    for (int s = 0; s < 3; ++s) { sim->step(); }
    EXPECT_TRUE(std::isfinite(sim->fields().field_energy()));
    EXPECT_TRUE(std::isfinite(sim->total_energy()));
  }
}

// --- ScenarioEquivalence: spec-built == legacy hand-rolled, bitwise -------

bool fields_identical(const MultiFab<2>& a, const MultiFab<2>& b) {
  if (a.num_fabs() != b.num_fabs()) { return false; }
  for (int m = 0; m < a.num_fabs(); ++m) {
    if (a.fab(m).size() != b.fab(m).size()) { return false; }
    for (std::size_t i = 0; i < a.fab(m).size(); ++i) {
      if (a.fab(m).data()[i] != b.fab(m).data()[i]) { return false; }
    }
  }
  return true;
}

bool particles_identical(const particles::ParticleContainer<2>& a,
                         const particles::ParticleContainer<2>& b) {
  if (a.num_tiles() != b.num_tiles()) { return false; }
  for (int t = 0; t < a.num_tiles(); ++t) {
    const auto& ta = a.tile(t);
    const auto& tb = b.tile(t);
    if (ta.size() != tb.size()) { return false; }
    for (std::size_t p = 0; p < ta.size(); ++p) {
      for (int d = 0; d < 2; ++d) {
        if (ta.x[d][p] != tb.x[d][p]) { return false; }
      }
      for (int cc = 0; cc < 3; ++cc) {
        if (ta.u[cc][p] != tb.u[cc][p]) { return false; }
      }
      if (ta.w[p] != tb.w[p]) { return false; }
    }
  }
  return true;
}

void expect_equivalent(core::Simulation<2>& a, core::Simulation<2>& b,
                       std::size_t nspecies) {
  EXPECT_EQ(a.step_count(), b.step_count());
  EXPECT_EQ(a.total_particles(), b.total_particles());
  EXPECT_TRUE(fields_identical(a.fields().E(), b.fields().E()));
  EXPECT_TRUE(fields_identical(a.fields().B(), b.fields().B()));
  for (std::size_t s = 0; s < nspecies; ++s) {
    SCOPED_TRACE("species " + std::to_string(s));
    EXPECT_TRUE(particles_identical(a.species_level0(static_cast<int>(s)),
                                    b.species_level0(static_cast<int>(s))));
  }
}

// The legacy laser_wakefield.cpp setup, verbatim (pre-scenario shape).
std::unique_ptr<core::Simulation<2>> legacy_lwfa() {
  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(599, 49));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(30e-6, 10e-6);
  cfg.periodic = {false, false};
  cfg.use_pml = true;
  cfg.pml.npml = 10;
  cfg.max_grid_size = IntVect2(150, 50);
  cfg.shape_order = 3;
  cfg.nranks = 4;
  cfg.rebalance = {true, 0, 50};
  auto sim = std::make_unique<core::Simulation<2>>(cfg);

  plasma::InjectorConfig<2> inj;
  inj.density = plasma::gas_jet<2>(5e25, 8e-6, 500e-6, 4e-6);
  inj.ppc = IntVect2(1, 2);
  sim->add_species(particles::Species::electron(), inj);

  laser::LaserConfig lc;
  lc.a0 = 3.5;
  lc.wavelength = 0.8e-6;
  lc.waist = 3.5e-6;
  lc.duration = 9e-15;
  lc.t_peak = 20e-15;
  lc.x_antenna = 2e-6;
  lc.center = {5e-6, 0};
  lc.focal_distance = 10e-6;
  sim->add_laser(lc);
  sim->set_moving_window(0, c, 40e-15);
  sim->init();
  return sim;
}

TEST(ScenarioEquivalence, LwfaMatchesLegacySetup) {
  auto legacy = legacy_lwfa();
  auto built = build_simulation(make_lwfa());
  for (int s = 0; s < 25; ++s) {
    legacy->step();
    built->step();
  }
  expect_equivalent(*legacy, *built, 1);
}

// The legacy hybrid_target_mr.cpp setup, verbatim (with the MR patch).
std::unique_ptr<core::Simulation<2>> legacy_hybrid() {
  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(599, 49));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(30e-6, 10e-6);
  cfg.periodic = {false, false};
  cfg.use_pml = true;
  cfg.pml.npml = 10;
  cfg.max_grid_size = IntVect2(150, 50);
  cfg.shape_order = 3;
  cfg.mr_remove_when_lo_above = 4.6e-6;
  auto sim = std::make_unique<core::Simulation<2>>(cfg);

  const Real nc = plasma::critical_density(0.8e-6);
  plasma::InjectorConfig<2> gas_inj;
  gas_inj.density = plasma::gas_jet<2>(0.025 * nc, 5.5e-6, 800e-6, 2e-6);
  gas_inj.ppc = IntVect2(1, 2);
  sim->add_species(particles::Species::electron("gas_electrons"), gas_inj);

  plasma::InjectorConfig<2> solid_inj;
  solid_inj.density = plasma::slab<2>(15 * nc, 3e-6, 4.5e-6);
  solid_inj.ppc = IntVect2(3, 2);
  sim->add_species(particles::Species::electron("solid_electrons"), solid_inj);
  plasma::InjectorConfig<2> ion_inj = solid_inj;
  sim->add_species(particles::Species::proton("solid_ions"), ion_inj);

  laser::LaserConfig lc;
  lc.a0 = 6.0;
  lc.wavelength = 0.8e-6;
  lc.waist = 3e-6;
  lc.duration = 9e-15;
  lc.t_peak = 16e-15;
  lc.x_antenna = 20e-6;
  lc.center = {5e-6, 0};
  lc.polarization = 1;
  sim->add_laser(lc);

  mr::MRPatch<2>::Config pcfg;
  pcfg.region = Box2(IntVect2(40, 4), IntVect2(139, 45));
  pcfg.ratio = 2;
  pcfg.transition_cells = 2;
  pcfg.pml.npml = 8;
  sim->enable_mr_patch(pcfg);
  sim->set_moving_window(0, c, 75e-15);
  sim->init();
  return sim;
}

TEST(ScenarioEquivalence, HybridTargetMrMatchesLegacySetup) {
  auto legacy = legacy_hybrid();
  auto built = build_simulation(make_hybrid_target_mr());
  for (int s = 0; s < 15; ++s) {
    legacy->step();
    built->step();
  }
  expect_equivalent(*legacy, *built, 3);
  // The MR patch is live on both sides of the comparison.
  ASSERT_NE(legacy->patch(), nullptr);
  ASSERT_NE(built->patch(), nullptr);
  EXPECT_TRUE(legacy->patch()->active());
  EXPECT_TRUE(built->patch()->active());
  for (int s = 0; s < 3; ++s) {
    SCOPED_TRACE("patch species " + std::to_string(s));
    EXPECT_TRUE(particles_identical(legacy->species_patch(s), built->species_patch(s)));
  }
}

// The legacy boosted_frame.cpp setup, verbatim: counter-streaming plasma
// loaded post-init by looping tiles.
std::unique_ptr<core::Simulation<2>> legacy_boosted(Real gamma_b) {
  const mrpic::boost::BoostedFrame frame(gamma_b);
  const Real lam_boost = frame.copropagating_wavelength(0.8e-6);
  const Real n_boost = frame.plasma_density_boosted(1e25);
  const Real dx_boost = lam_boost / 16;

  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(319, 31));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(320 * dx_boost, 8e-6);
  cfg.periodic = {false, true};
  cfg.use_pml = true;
  cfg.pml.npml = 8;
  cfg.max_grid_size = IntVect2(320, 32);
  auto sim = std::make_unique<core::Simulation<2>>(cfg);

  plasma::InjectorConfig<2> inj;
  inj.density = plasma::gas_jet<2>(n_boost, 6 * dx_boost * 16, 1.0, 2e-6);
  inj.ppc = IntVect2(1, 2);
  const int s = sim->add_species(particles::Species::electron(), inj);

  laser::LaserConfig lc;
  lc.a0 = 2.0;
  lc.wavelength = lam_boost;
  lc.waist = 3e-6;
  lc.duration = frame.copropagating_duration(8e-15);
  lc.t_peak = 2.2 * lc.duration;
  lc.x_antenna = 2 * dx_boost * 16;
  lc.center = {4e-6, 0};
  sim->add_laser(lc);
  sim->init();

  auto& pc = sim->species_level0(s);
  for (int ti = 0; ti < pc.num_tiles(); ++ti) {
    auto& tile = pc.tile(ti);
    for (std::size_t p = 0; p < tile.size(); ++p) {
      tile.u[0][p] = frame.plasma_drift_ux();
    }
  }
  return sim;
}

TEST(ScenarioEquivalence, BoostedLwfaMatchesLegacySetup) {
  auto legacy = legacy_boosted(2.0);
  auto built = build_simulation(make_boosted_lwfa(2.0));
  // The spec carries the drift declaratively (SpeciesSpec::drift_ux); the
  // loaded plasma must stream identically to the legacy tile loop.
  for (int s = 0; s < 20; ++s) {
    legacy->step();
    built->step();
  }
  expect_equivalent(*legacy, *built, 1);
}

} // namespace
} // namespace mrpic::scenario
