#pragma once

// ScenarioSpec: one declarative description of a complete physics workload —
// grid and geometry, species with target density profiles, laser pulse(s),
// an optional Lorentz-boosted frame, an optional MR patch, the moving
// window, ModuleRange cadences for the housekeeping modules, and the
// health/insitu policy blocks the observability flags turn on. A spec is a
// plain value: factories in the ScenarioRegistry return one, the examples
// mutate one before building, and build_simulation() assembles the live
// core::Simulation<2> from it. This replaces the bespoke main()-per-workload
// setup the first five examples grew (the input-driven shape of the WarpX
// ecosystem and of Pigeon's pic_impl_*.hpp config headers).
//
// Scenarios are 2D: every reduced-scale workload in this repository runs the
// paper's science cases as laptop-size 2D reductions (Simulation<3> remains
// available to direct users; no registered scenario needs it).

#include <optional>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"
#include "src/health/monitor.hpp"
#include "src/insitu/registry.hpp"
#include "src/laser/laser_antenna.hpp"
#include "src/mr/mr_patch.hpp"
#include "src/plasma/plasma_injector.hpp"
#include "src/obs/module_range.hpp"

namespace mrpic::scenario {

// One macroparticle population: physical identity + loading recipe +
// optional initial longitudinal drift (proper velocity u_x, applied to the
// loaded particles after init — how a boosted-frame plasma streams).
struct SpeciesSpec {
  particles::Species species;
  plasma::InjectorConfig<2> injector;
  Real drift_ux = 0; // [m/s proper velocity]; 0 = at rest
};

// Moving window (fields::MovingWindow via Simulation::set_moving_window).
struct WindowSpec {
  bool enabled = false;
  int dir = 0;
  Real speed = mrpic::constants::c;
  Real start_time = 0; // [s]
};

// Lorentz-boosted frame bookkeeping (src/boost). When enabled, the spec's
// plasma/laser parameters are ALREADY the boosted-frame values (the factory
// transformed them with boost::BoostedFrame); gamma is carried so the driver
// can report the lab<->boost correspondence and the Vay-2007 speedup.
struct BoostSpec {
  bool enabled = false;
  Real gamma = 1.0;
};

// Driver-loop cadences (Pigeon's ModuleRange idiom), honored by the
// mrpic_run driver loop: periodic resil::CheckpointPolicy, progress +
// history rows. The step-loop cadences (sort, rebalance) live on
// SimulationConfig and are set through `sim` directly.
struct Cadences {
  ModuleRange checkpoint{false, 0, 0};
  ModuleRange diagnostics{true, 0, 100};
};

struct ScenarioSpec {
  // Identity (filled by the registry / factory).
  std::string name;          // registry key, e.g. "lwfa_mr"
  std::string title;         // one-line description for --list
  std::string output_prefix; // artifact basename, e.g. "lwfa" -> lwfa_history.csv

  // Physics.
  core::SimulationConfig<2> sim;        // grid/geometry/numerics/PML/ranks
  std::vector<SpeciesSpec> species;
  std::vector<laser::LaserConfig> lasers;
  std::optional<mr::MRPatch<2>::Config> mr_patch;
  WindowSpec window;
  BoostSpec boost;

  // Cadences + policy blocks. The insitu/health configs carry the
  // scenario-tuned windows (beam species, energy cuts, watchdog bounds);
  // the driver zeroes the insitu intervals unless --insitu is given and
  // fills in the output paths, so a spec stays path-free and reusable.
  Cadences cadences;
  insitu::InsituConfig insitu;
  health::MonitorConfig health;

  // Default run length [s] (the driver's positional t_end_fs / --steps
  // override it).
  Real t_end = 0;
};

} // namespace mrpic::scenario
