// The built-in scenario library. Every spec here is a laptop-scale 2D
// reduction of a real accelerator-design workload, tuned the same way the
// original bespoke examples were (the five examples are re-expressed as the
// quickstart / lwfa / lwfa_mr / plasma_mirror / hybrid_target_mr /
// boosted_lwfa entries; the remaining entries open new workloads: injection
// physics variants, a multi-stage chain, a thin-foil ion accelerator and a
// spectral-solver baseline).

#include "src/scenario/library.hpp"

#include "src/boost/lorentz.hpp"
#include "src/scenario/registry.hpp"

namespace mrpic::scenario {

using namespace mrpic::constants;

namespace {

const Real mev = 1e6 * q_e;

// The shared 30 x 10 um LWFA window: 0.05 um (lambda/16) longitudinal so
// the numerical group velocity stays close to c, 0.2 um transverse.
core::SimulationConfig<2> lwfa_grid() {
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
  return cfg;
}

// The lwfa family's 800 nm drive pulse.
laser::LaserConfig lwfa_laser(Real a0) {
  laser::LaserConfig lc;
  lc.a0 = a0;
  lc.wavelength = 0.8e-6;
  lc.waist = 3.5e-6;
  lc.duration = 9e-15;
  lc.t_peak = 20e-15;
  lc.x_antenna = 2e-6;
  lc.center = {5e-6, 0};
  lc.focal_distance = 10e-6;
  return lc;
}

// Accelerated-beam windows for the LWFA family diagnostics.
insitu::InsituConfig lwfa_insitu(int beam_species, Real e_min_mev, Real e_max_mev,
                                 int bins) {
  insitu::InsituConfig icfg;
  icfg.beam_species = beam_species;
  icfg.beam_e_min_J = e_min_mev * mev;
  icfg.spectrum_e_min_J = e_min_mev * mev;
  icfg.spectrum_e_max_J = e_max_mev * mev;
  icfg.spectrum_bins = bins;
  icfg.moments_interval = 10;
  icfg.spectrum_interval = 50;
  icfg.laser_interval = 10;
  icfg.wakefield_interval = 10;
  icfg.field_energy_interval = 10;
  icfg.stream_interval = 100;
  icfg.stream_downsample = 4;
  icfg.stream.max_file_bytes = 1u << 20;
  icfg.stream.max_files = 4;
  icfg.phase_space.ax = diag::Axis::Energy;
  icfg.phase_space.ay = diag::Axis::Ux;
  icfg.phase_space.a_min = 0;
  icfg.phase_space.a_max = e_max_mev * mev;
  icfg.phase_space.b_min = -2e9;
  icfg.phase_space.b_max = 4e10;
  return icfg;
}

// Ledger + NaN scan every step, the expensive charge-conservation residuals
// sparsely, and a relativistic-gamma sanity bound (laptop-scale wakes top
// out far below gamma ~ 1e4).
health::MonitorConfig default_health(int residual_interval = 20) {
  health::MonitorConfig hcfg;
  hcfg.ledger_interval = 1;
  hcfg.nan_interval = 1;
  hcfg.residual_interval = residual_interval;
  hcfg.watchdog.bounds.push_back({"max_gamma", 0.0, 1e4, health::Severity::Warn, {}});
  return hcfg;
}

// The wake region of the lwfa grid: highest resolution where the bunch
// forms (the physics-motivated MR placement from the --memory LWFA runs).
mr::MRPatch<2>::Config lwfa_wake_patch() {
  mr::MRPatch<2>::Config pcfg;
  pcfg.region = Box2(IntVect2(200, 10), IntVect2(399, 39));
  pcfg.ratio = 2;
  pcfg.transition_cells = 2;
  pcfg.pml.npml = 8;
  return pcfg;
}

ScenarioSpec uniform_box_base() {
  ScenarioSpec spec;
  spec.sim.domain = Box2(IntVect2(0, 0), IntVect2(63, 63));
  spec.sim.prob_lo = RealVect2(0, 0);
  spec.sim.prob_hi = RealVect2(6.4e-6, 6.4e-6);
  spec.sim.periodic = {true, true};
  spec.sim.max_grid_size = IntVect2(32);
  spec.sim.shape_order = 3;

  SpeciesSpec sp;
  sp.species = particles::Species::electron();
  sp.injector.density = plasma::uniform<2>(1e24);
  sp.injector.ppc = IntVect2(2, 2);
  sp.injector.temperature_ev = 100.0;
  spec.species.push_back(sp);

  // Thermal spectrum of the 100 eV bulk (0..1 keV window).
  spec.insitu.beam_species = 0;
  spec.insitu.beam_e_min_J = 0;
  spec.insitu.spectrum_e_min_J = 0;
  spec.insitu.spectrum_e_max_J = 1000.0 * q_e;
  spec.insitu.spectrum_bins = 64;
  spec.insitu.moments_interval = 10;
  spec.insitu.spectrum_interval = 25;
  spec.insitu.field_energy_interval = 10;
  spec.insitu.laser_interval = 0;
  spec.insitu.wakefield_interval = 0;

  spec.health = default_health(/*residual_interval=*/10);
  spec.cadences.diagnostics = {true, 0, 10};
  spec.t_end = 12e-15; // ~50 steps at the periodic-box CFL dt
  return spec;
}

} // namespace

ScenarioSpec make_quickstart() {
  ScenarioSpec spec = uniform_box_base();
  return spec;
}

ScenarioSpec make_uniform_psatd() {
  ScenarioSpec spec = uniform_box_base();
  // Spectral solve: fully periodic, one global box, no PML/MR.
  spec.sim.maxwell = core::MaxwellSolver::PSATD;
  spec.sim.max_grid_size = IntVect2(64);
  return spec;
}

ScenarioSpec make_lwfa() {
  ScenarioSpec spec;
  spec.sim = lwfa_grid();
  spec.sim.rebalance = {true, 0, 50};

  // Gas jet: n = 5e25 m^-3 ~ 0.029 n_c at 800 nm (plasma wavelength
  // ~4.7 um, resolved; short enough for self-injection within the run).
  SpeciesSpec sp;
  sp.species = particles::Species::electron();
  sp.injector.density = plasma::gas_jet<2>(5e25, 8e-6, 500e-6, 4e-6);
  sp.injector.ppc = IntVect2(1, 2);
  spec.species.push_back(sp);

  spec.lasers.push_back(lwfa_laser(3.5));
  spec.window = {true, 0, c, 40e-15}; // follow once the pulse is emitted
  spec.insitu = lwfa_insitu(0, 2.0, 60.0, 116);
  spec.health = default_health();
  {
    // Flag only pathological per-step slowdowns.
    health::DriftRule drift;
    drift.quantity = "step_wall_s";
    drift.z_threshold = 50.0;
    drift.warmup = 32;
    spec.health.watchdog.drifts.push_back(drift);
  }
  spec.t_end = 150e-15;
  spec.output_prefix = "lwfa";
  return spec;
}

ScenarioSpec make_lwfa_mr() {
  ScenarioSpec spec = make_lwfa();
  spec.mr_patch = lwfa_wake_patch();
  spec.output_prefix = "lwfa_mr";
  return spec;
}

ScenarioSpec make_lwfa_downramp() {
  ScenarioSpec spec = make_lwfa();
  spec.species.clear();
  // Dense injector plateau (8e25) dropping over 2 um onto the accelerator
  // plateau (4e25): the plasma wavelength stretches across the ramp, the
  // wake phase velocity drops and background electrons are trapped without
  // needing wave-breaking a0.
  SpeciesSpec sp;
  sp.species = particles::Species::electron();
  sp.injector.density =
      plasma::downramp<2>(8e25, 4e25, 8e-6, 3e-6, 14e-6, 2e-6, 500e-6);
  sp.injector.ppc = IntVect2(1, 2);
  spec.species.push_back(sp);
  spec.lasers.clear();
  spec.lasers.push_back(lwfa_laser(3.0)); // sub-wave-breaking drive
  spec.insitu = lwfa_insitu(0, 1.0, 60.0, 118);
  spec.output_prefix = "lwfa_downramp";
  return spec;
}

ScenarioSpec make_lwfa_ionization() {
  ScenarioSpec spec = make_lwfa();
  // Reduced ionization-injection model: the pre-ionized bulk drives the
  // wake; the dopant's inner-shell electrons — only released where the
  // laser intensity peaks — are represented by a narrow on-axis column of
  // cold electrons confined to the first jet section.
  SpeciesSpec dopant;
  dopant.species = particles::Species::electron("dopant_electrons");
  dopant.injector.density = plasma::gaussian_column<2>(1e25, 10e-6, 20e-6, 5e-6, 1e-6);
  dopant.injector.ppc = IntVect2(2, 2);
  spec.species.push_back(dopant);
  spec.lasers.clear();
  spec.lasers.push_back(lwfa_laser(4.0)); // ionization needs the higher peak
  spec.insitu = lwfa_insitu(/*dopant beam*/ 1, 1.0, 60.0, 118);
  spec.output_prefix = "lwfa_ionization";
  return spec;
}

ScenarioSpec make_lwfa_two_stage() {
  ScenarioSpec spec;
  spec.sim = lwfa_grid();
  // Twice the window: stage 1 (injector jet) and stage 2 (accelerator jet)
  // separated by a vacuum gap, the staging geometry of multi-stage LWFA
  // designs (and of the campaign-scan traffic the roadmap targets).
  spec.sim.domain = Box2(IntVect2(0, 0), IntVect2(1199, 49));
  spec.sim.prob_hi = RealVect2(60e-6, 10e-6);
  spec.sim.rebalance = {true, 0, 50};

  SpeciesSpec stage1;
  stage1.species = particles::Species::electron("stage1_electrons");
  stage1.injector.density = plasma::gas_jet<2>(8e25, 8e-6, 20e-6, 2e-6);
  stage1.injector.ppc = IntVect2(1, 2);
  spec.species.push_back(stage1);

  SpeciesSpec stage2;
  stage2.species = particles::Species::electron("stage2_electrons");
  stage2.injector.density = plasma::gas_jet<2>(4e25, 26e-6, 800e-6, 3e-6);
  stage2.injector.ppc = IntVect2(1, 2);
  spec.species.push_back(stage2);

  spec.lasers.push_back(lwfa_laser(3.5));
  spec.window = {true, 0, c, 40e-15};
  spec.insitu = lwfa_insitu(/*stage-1 beam*/ 0, 1.0, 80.0, 120);
  spec.health = default_health();
  spec.t_end = 220e-15; // the pulse crosses both jets
  spec.output_prefix = "lwfa_two_stage";
  return spec;
}

ScenarioSpec make_boosted_lwfa(Real gamma_boost) {
  ::mrpic::boost::BoostedFrame frame(gamma_boost);

  // Lab-frame stage: 200 um of 1e25 m^-3 gas driven by an 0.8 um pulse.
  // In the boosted frame the laser is redshifted/stretched (lambda' =
  // lambda gamma (1+beta), same for the duration; a0 invariant) and the
  // plasma is contracted and counter-streaming (n' = gamma n,
  // u'_x = -gamma beta c).
  const Real lam_boost = frame.copropagating_wavelength(0.8e-6);
  const Real n_boost = frame.plasma_density_boosted(1e25);
  const Real dx_boost = lam_boost / 16; // same cells-per-wavelength as the lab

  ScenarioSpec spec;
  spec.sim.domain = Box2(IntVect2(0, 0), IntVect2(319, 31));
  spec.sim.prob_lo = RealVect2(0, 0);
  spec.sim.prob_hi = RealVect2(320 * dx_boost, 8e-6);
  spec.sim.periodic = {false, true};
  spec.sim.use_pml = true;
  spec.sim.pml.npml = 8;
  spec.sim.max_grid_size = IntVect2(320, 32);
  spec.sim.nranks = 4;

  SpeciesSpec sp;
  sp.species = particles::Species::electron();
  sp.injector.density = plasma::gas_jet<2>(n_boost, 6 * dx_boost * 16, 1.0, 2e-6);
  sp.injector.ppc = IntVect2(1, 2);
  sp.drift_ux = frame.plasma_drift_ux();
  spec.species.push_back(sp);

  laser::LaserConfig lc;
  lc.a0 = 2.0; // Lorentz invariant for co-propagating boosts
  lc.wavelength = lam_boost;
  lc.waist = 3e-6;
  lc.duration = frame.copropagating_duration(8e-15);
  lc.t_peak = 2.2 * lc.duration;
  lc.x_antenna = 2 * dx_boost * 16;
  lc.center = {4e-6, 0};
  spec.lasers.push_back(lc);

  spec.boost = {true, gamma_boost};
  // The counter-streaming bulk carries (gamma-1) m c^2 per electron; the
  // beam cut sits above it so the spectrum shows accelerated particles.
  const Real bulk_mev = (gamma_boost - 1) * m_e * c * c / mev;
  spec.insitu = lwfa_insitu(0, bulk_mev + 1.0, bulk_mev + 30.0, 100);
  spec.insitu.stream_interval = 50;
  spec.health = default_health();
  spec.t_end = 120e-15; // boosted-frame fs
  spec.output_prefix = "boosted_lwfa";
  return spec;
}

ScenarioSpec make_plasma_mirror() {
  ScenarioSpec spec;
  // 10 x 10 um; 0.05 um (lambda/16) cells along x, 0.1 um along y (the
  // tilted wavefront needs transverse resolution too).
  spec.sim.domain = Box2(IntVect2(0, 0), IntVect2(199, 99));
  spec.sim.prob_lo = RealVect2(0, 0);
  spec.sim.prob_hi = RealVect2(10e-6, 10e-6);
  spec.sim.periodic = {false, false};
  spec.sim.use_pml = true;
  spec.sim.pml.npml = 10;
  spec.sim.max_grid_size = IntVect2(100, 100);
  spec.sim.shape_order = 3;
  spec.sim.nranks = 4;

  const Real nc = plasma::critical_density(0.8e-6);
  // Solid foil at x = 6..7.5 um, 20 n_c (mildly overdense to stay laptop-
  // scale; the paper's science case used 50-55 n_c). Mobile ions keep the
  // foil from exploding unphysically fast.
  SpeciesSpec electrons;
  electrons.species = particles::Species::electron();
  electrons.injector.density = plasma::slab<2>(20 * nc, 6e-6, 7.5e-6);
  electrons.injector.ppc = IntVect2(3, 2);
  spec.species.push_back(electrons);
  SpeciesSpec ions = electrons;
  ions.species = particles::Species::proton();
  spec.species.push_back(ions);

  laser::LaserConfig lc;
  lc.a0 = 8.0;
  lc.wavelength = 0.8e-6;
  lc.waist = 2.5e-6;
  lc.duration = 8e-15;
  lc.t_peak = 20e-15;
  lc.x_antenna = 1.0e-6;
  lc.center = {2.8e-6, 0};
  lc.tilt = 30.0 * pi / 180.0; // oblique incidence
  lc.focal_distance = 5e-6;
  lc.polarization = 1; // p-pol (in-plane) drives Brunel extraction
  spec.lasers.push_back(lc);

  // Hot-electron spectrum of the extracted bunches.
  spec.insitu.beam_species = 0;
  spec.insitu.beam_e_min_J = 0.2 * mev;
  spec.insitu.spectrum_e_min_J = 0.1 * mev;
  spec.insitu.spectrum_e_max_J = 10 * mev;
  spec.insitu.spectrum_bins = 50;
  spec.insitu.moments_interval = 10;
  spec.insitu.spectrum_interval = 25;
  spec.insitu.laser_interval = 10;
  spec.insitu.wakefield_interval = 0; // no wake behind a mirror
  spec.insitu.field_energy_interval = 10;
  spec.health = default_health(/*residual_interval=*/25);
  spec.cadences.diagnostics = {true, 0, 50};
  spec.t_end = 90e-15;
  spec.output_prefix = "mirror";
  return spec;
}

ScenarioSpec make_hybrid_target_mr() {
  ScenarioSpec spec;
  // 30 x 10 um window, same resolution as lwfa. The MR patch covers the
  // solid foil; once the moving window has advanced past it the patch is
  // removed (the paper's 1.5-4x time-to-solution mechanism, Fig. 6).
  spec.sim = lwfa_grid();
  spec.sim.nranks = 1; // the legacy example runs un-clustered
  spec.sim.mr_remove_when_lo_above = 4.6e-6;

  const Real nc = plasma::critical_density(0.8e-6);
  // Hybrid target: foil at 3..4.5 um (15 n_c; the fine patch resolves its
  // ~35 nm skin depth), gas from 5.5 um onward (0.01 n_c). Paper values:
  // solid 50-55 n_c, gas 2.34e18 cm^-3.
  SpeciesSpec gas;
  gas.species = particles::Species::electron("gas_electrons");
  gas.injector.density = plasma::gas_jet<2>(0.025 * nc, 5.5e-6, 800e-6, 2e-6);
  gas.injector.ppc = IntVect2(1, 2);
  spec.species.push_back(gas);

  SpeciesSpec solid;
  solid.species = particles::Species::electron("solid_electrons");
  solid.injector.density = plasma::slab<2>(15 * nc, 3e-6, 4.5e-6);
  solid.injector.ppc = IntVect2(3, 2); // paper: 3x2(x3) for solid electrons
  spec.species.push_back(solid);
  SpeciesSpec solid_ions = solid;
  solid_ions.species = particles::Species::proton("solid_ions");
  spec.species.push_back(solid_ions);

  // Laser emitted leftward from x = 20 um (the antenna radiates both ways;
  // the right-going half exits through the PML), focused on the foil.
  laser::LaserConfig lc;
  lc.a0 = 6.0;
  lc.wavelength = 0.8e-6;
  lc.waist = 3e-6;
  lc.duration = 9e-15;
  lc.t_peak = 16e-15;
  lc.x_antenna = 20e-6;
  lc.center = {5e-6, 0};
  lc.polarization = 1; // in-plane (p-like) polarization drives extraction
  spec.lasers.push_back(lc);

  // Patch over the foil and the vacuum gap in front of it.
  mr::MRPatch<2>::Config pcfg;
  pcfg.region = Box2(IntVect2(40, 4), IntVect2(139, 45)); // 2..7 um
  pcfg.ratio = 2;
  pcfg.transition_cells = 2;
  pcfg.pml.npml = 8;
  spec.mr_patch = pcfg;

  // The reflected pulse forms at ~70 fs; follow it from 75 fs on.
  spec.window = {true, 0, c, 75e-15};

  // Injected (solid-electron) beam diagnostics.
  spec.insitu.beam_species = 1;
  spec.insitu.beam_e_min_J = 0.5 * mev;
  spec.insitu.spectrum_e_min_J = 0.5 * mev;
  spec.insitu.spectrum_e_max_J = 40 * mev;
  spec.insitu.spectrum_bins = 80;
  spec.insitu.moments_interval = 10;
  spec.insitu.spectrum_interval = 50;
  spec.insitu.laser_interval = 10;
  spec.insitu.wakefield_interval = 10;
  spec.insitu.field_energy_interval = 10; // per-level: fine_* keys while MR on
  spec.insitu.stream_interval = 100;
  spec.insitu.stream_downsample = 4;
  spec.insitu.stream.max_file_bytes = 1u << 20;
  spec.insitu.stream.max_files = 4;
  spec.insitu.phase_space.ax = diag::Axis::Energy;
  spec.insitu.phase_space.ay = diag::Axis::Ux;
  spec.insitu.phase_space.a_max = 40 * mev;
  spec.insitu.phase_space.b_min = -5 * c;
  spec.insitu.phase_space.b_max = 40 * c;
  spec.insitu.phase_space.na = 160;
  spec.insitu.phase_space.nb = 90;
  spec.health = default_health(/*residual_interval=*/25);
  spec.cadences.checkpoint = {true, 200, 200}; // long-campaign restartability
  spec.t_end = 150e-15;
  spec.output_prefix = "hybrid";
  return spec;
}

ScenarioSpec make_thin_foil_ion() {
  ScenarioSpec spec = make_plasma_mirror();
  spec.species.clear();
  spec.lasers.clear();

  const Real nc = plasma::critical_density(0.8e-6);
  // Thin C6+ foil (0.5 um, 30 n_c electrons) with a hydrogen contaminant
  // layer on the rear surface: the laser heats foil electrons through the
  // target, the hot-electron sheath field on the rear side accelerates the
  // protons (TNSA, the ion-acceleration variant of the hybrid target).
  SpeciesSpec electrons;
  electrons.species = particles::Species::electron("foil_electrons");
  electrons.injector.density = plasma::slab<2>(30 * nc, 6e-6, 6.5e-6);
  electrons.injector.ppc = IntVect2(4, 2);
  spec.species.push_back(electrons);

  SpeciesSpec carbons;
  carbons.species = particles::Species::ion("foil_carbon", 6, 12.0);
  carbons.injector.density = plasma::slab<2>(5 * nc, 6e-6, 6.5e-6); // quasi-neutral
  carbons.injector.ppc = IntVect2(2, 2);
  spec.species.push_back(carbons);

  SpeciesSpec protons;
  protons.species = particles::Species::proton("contaminant_protons");
  protons.injector.density = plasma::slab<2>(2 * nc, 6.5e-6, 6.6e-6);
  protons.injector.ppc = IntVect2(4, 4);
  spec.species.push_back(protons);

  laser::LaserConfig lc;
  lc.a0 = 10.0;
  lc.wavelength = 0.8e-6;
  lc.waist = 2.5e-6;
  lc.duration = 8e-15;
  lc.t_peak = 20e-15;
  lc.x_antenna = 1.0e-6;
  lc.center = {5e-6, 0};
  lc.focal_distance = 5e-6;
  lc.polarization = 1; // in-plane: drives electrons through the foil
  spec.lasers.push_back(lc);

  // The deliverable is the proton spectrum off the rear surface.
  spec.insitu.beam_species = 2;
  spec.insitu.beam_e_min_J = 0.1 * mev;
  spec.insitu.spectrum_e_min_J = 0.1 * mev;
  spec.insitu.spectrum_e_max_J = 20 * mev;
  spec.insitu.spectrum_bins = 80;
  spec.t_end = 100e-15;
  spec.output_prefix = "foil_ion";
  return spec;
}

void register_builtin_scenarios(ScenarioRegistry& reg) {
  reg.add("quickstart", "uniform thermal plasma in a periodic box (PIC hello world)",
          make_quickstart);
  reg.add("uniform_psatd", "uniform thermal plasma on the spectral (PSATD) solver",
          make_uniform_psatd);
  reg.add("lwfa", "gas-jet laser-wakefield accelerator with moving window", make_lwfa);
  reg.add("lwfa_mr", "LWFA with a ratio-2 MR patch over the wake region", make_lwfa_mr);
  reg.add("lwfa_downramp", "LWFA with density-downramp injection", make_lwfa_downramp);
  reg.add("lwfa_ionization", "LWFA with dopant-column ionization injection",
          make_lwfa_ionization);
  reg.add("lwfa_two_stage", "two-stage LWFA chain: injector jet + accelerator jet",
          make_lwfa_two_stage);
  reg.add("boosted_lwfa", "LWFA stage in a gamma=2 Lorentz-boosted frame",
          [] { return make_boosted_lwfa(2.0); });
  reg.add("boosted_lwfa_g4", "LWFA stage in a gamma=4 Lorentz-boosted frame",
          [] { return make_boosted_lwfa(4.0); });
  reg.add("plasma_mirror", "oblique-incidence overdense plasma mirror (injection stage)",
          make_plasma_mirror);
  reg.add("hybrid_target_mr", "hybrid solid-gas target with MR patch (paper science case)",
          make_hybrid_target_mr);
  reg.add("thin_foil_ion", "thin-foil TNSA-like ion acceleration with contaminant layer",
          make_thin_foil_ion);
}

} // namespace mrpic::scenario
