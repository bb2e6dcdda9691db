// Fig. 6 reproduction — the paper's key mesh-refinement experiment.
//
// Three runs of the same physical scenario (a reduced 2D hybrid-target
// case: laser onto a solid foil with gas, high resolution needed only
// around the foil, for a limited time, moving window on):
//
//   a) "with MR":            coarse grid + 2x refinement patch over the
//                            target; the patch follows the moving window
//                            and is removed once the target leaves it;
//   b) "no MR, 2x res, ppc/4": the whole domain at twice the resolution,
//                            particles-per-cell divided by 4 so the total
//                            macroparticle count matches case (a);
//   c) "no MR, 2x res":      same, with the same ppc as (a) (4x particles).
//
// All three use the same (fine-CFL) time step. The harness records the
// cumulative wall-clock time against physical time — the paper's Fig. 6
// curves — marks the patch-removal point (the star) and the moving-window
// start (the dashed line), and reports the per-step cost ratios after
// removal, where the paper finds MR between 1.5x and 4x faster.
//
// Output (in --outdir, default out/): mr_savings_<case>.csv
// (t_fs, cumulative_s, step_ms, cells, parts)
//
// --json additionally writes BENCH_mr_savings.json: the *memory*-savings
// side of the same affordability argument, a deterministic sweep of the
// analytic model in obs::analytic_mr_savings over (dim, ratio,
// patch-fraction) — the uniform-fine-equivalent bytes over the MR-run bytes.
// This is pure arithmetic (no timing) and is baseline-gated by bench_smoke;
// --quick skips the wall-clock cases and emits only the JSON.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"
#include "src/diag/csv_writer.hpp"
#include "src/diag/output_dir.hpp"
#include "src/diag/stopwatch.hpp"
#include "src/obs/json.hpp"
#include "src/obs/memory.hpp"
#include "src/obs/module_range.hpp"

using namespace mrpic;
using namespace mrpic::constants;

namespace {

diag::OutputDir g_out; // set in main from --outdir

struct CaseResult {
  std::string name;
  double total_s = 0;
  double post_removal_step_ms = 0; // mean step cost after the removal time
  std::int64_t particles = 0;
  Real removal_time = 0;
};

constexpr Real t_end = 120e-15;
constexpr Real window_start = 55e-15;
// The window passes the foil (at 4 um) at window_start + 4um/c ~ 68 fs.
constexpr Real remove_x = 4.2e-6;

std::unique_ptr<core::Simulation<2>> make_sim(bool mr, int res_factor, int ppc_div) {
  core::SimulationConfig<2> cfg;
  const int nx = 200 * res_factor, ny = 20 * res_factor;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(nx - 1, ny - 1));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(20e-6, 8e-6);
  cfg.periodic = {false, false};
  cfg.use_pml = true;
  cfg.pml.npml = 8;
  cfg.max_grid_size = IntVect2(nx / 2, ny);
  cfg.shape_order = 3;
  cfg.mr_remove_when_lo_above = remove_x;
  // Same dt in all cases: the fine-grid CFL of the 2x-resolved mesh.
  const Geometry<2> fine_geom(Box2(IntVect2(0, 0), IntVect2(399, 39)), cfg.prob_lo,
                              cfg.prob_hi, cfg.periodic);
  cfg.forced_dt = fields::cfl_dt(fine_geom, cfg.cfl);

  auto sim = std::make_unique<core::Simulation<2>>(cfg);
  const Real nc = plasma::critical_density(0.8e-6);

  plasma::InjectorConfig<2> gas;
  gas.density = plasma::gas_jet<2>(0.02 * nc, 5e-6, 600e-6, 2e-6);
  gas.ppc = ppc_div == 4 ? IntVect2(1, 1) : IntVect2(2, 2);
  sim->add_species(particles::Species::electron("gas_e"), gas);

  plasma::InjectorConfig<2> solid;
  solid.density = plasma::slab<2>(12 * nc, 2.5e-6, 4e-6);
  solid.ppc = ppc_div == 4 ? IntVect2(2, 1) : IntVect2(4, 2);
  sim->add_species(particles::Species::electron("solid_e"), solid);
  sim->add_species(particles::Species::proton("solid_i"), solid);

  laser::LaserConfig lc;
  lc.a0 = 5.0;
  lc.wavelength = 0.8e-6;
  lc.waist = 2.5e-6;
  lc.duration = 8e-15;
  lc.t_peak = 14e-15;
  lc.x_antenna = 14e-6; // emits toward the foil; reflected pulse goes +x
  lc.center = {4e-6, 0};
  lc.polarization = 1;
  sim->add_laser(lc);

  if (mr) {
    mr::MRPatch<2>::Config pcfg;
    pcfg.region = Box2(IntVect2(15, 2), IntVect2(64, 17)); // 1.5..6.5 um
    pcfg.ratio = 2;
    pcfg.transition_cells = 2;
    pcfg.pml.npml = 8;
    sim->enable_mr_patch(pcfg);
  }
  sim->set_moving_window(0, c, window_start);
  sim->init();
  return sim;
}

CaseResult run_case(const std::string& name, const std::string& label, bool mr,
                    int res_factor, int ppc_div) {
  auto sim = make_sim(mr, res_factor, ppc_div);
  CaseResult res;
  res.name = label;
  res.particles = sim->total_particles();
  std::printf("%-22s: %6lld particles, %6lld cells, dt = %.2e s\n", label.c_str(),
              static_cast<long long>(res.particles),
              static_cast<long long>(sim->active_cells()), sim->dt());

  diag::CsvSeries series({"t_fs", "cumulative_s", "step_ms", "cells", "particles"});
  diag::Stopwatch total;
  diag::Stopwatch lap;
  double post_removal_s = 0;
  int post_removal_steps = 0;
  bool removed = false;
  int lap_steps = 0;
  while (sim->time() < t_end) {
    lap.restart();
    sim->step();
    const double step_s = lap.seconds();
    ++lap_steps;
    const bool patch_active = sim->patch() != nullptr && sim->patch()->active();
    if (mr && !patch_active && !removed) {
      removed = true;
      res.removal_time = sim->time();
    }
    // "After removal" window (same physical interval for every case).
    if (sim->time() > 75e-15) {
      post_removal_s += step_s;
      ++post_removal_steps;
    }
    if (ModuleRange::every_n(25).due(sim->step_count())) {
      series.add_row({sim->time() * 1e15, total.seconds(), step_s * 1e3,
                      static_cast<Real>(sim->active_cells()),
                      static_cast<Real>(sim->total_particles())});
    }
  }
  res.total_s = total.seconds();
  res.post_removal_step_ms = post_removal_s / post_removal_steps * 1e3;
  series.write(g_out.path("mr_savings_" + name + ".csv"));
  std::printf("%-22s: total %.2f s; step after t=75fs: %.2f ms%s\n\n", label.c_str(),
              res.total_s, res.post_removal_step_ms,
              mr ? (removed ? " (patch removed)" : " (patch NOT removed!)") : "");
  return res;
}

// Analytic memory-savings sweep for --json: a cube of side `n` (2D: n^2)
// with a patch covering `fraction` of the cells at `ratio` refinement, 4
// particles per level-0 cell (and per fine patch cell). Ghost/PML cells are
// left out of the model points: the structural cross-check against the
// *measured* ledger (which includes them) lives in the test suite; here the
// sweep isolates the ratio^dim field/particle scaling the paper's
// affordability argument rests on.
obs::MrSavings model_point(int dim, int ratio, double fraction, std::int64_t* actual_n) {
  const std::int64_t n = dim == 2 ? 512 : 64;
  std::int64_t cells = 1;
  for (int d = 0; d < dim; ++d) { cells *= n; }
  const auto patch_cells = static_cast<std::int64_t>(fraction * double(cells));
  std::int64_t fine_cells = patch_cells;
  for (int d = 0; d < dim; ++d) { fine_cells *= ratio; }

  obs::MrSavingsInputs in;
  in.dim = dim;
  in.ratio = ratio;
  in.level0_grown_cells = cells;
  in.fine_grown_cells = fine_cells;
  in.coarse_grown_cells = patch_cells;
  in.num_particles = 4 * (cells + fine_cells);
  if (actual_n != nullptr) { *actual_n = cells; }
  return obs::analytic_mr_savings(in);
}

void write_savings_json(const std::string& path) {
  struct Pt {
    int dim, ratio;
    double fraction;
  };
  const std::vector<Pt> sweep = {{2, 2, 0.05}, {2, 2, 0.20}, {2, 4, 0.05},
                                 {3, 2, 0.05}, {3, 2, 0.20}, {3, 4, 0.05}};
  std::ofstream os(path);
  obs::json::Writer w(os);
  w.begin_object();
  w.field("bench", "mr_savings");
  w.begin_array("points");
  std::printf("analytic MR memory savings (uniform-fine bytes / MR bytes):\n");
  for (const auto& p : sweep) {
    std::int64_t cells = 0;
    const auto s = model_point(p.dim, p.ratio, p.fraction, &cells);
    std::printf("  %dD ratio %d patch %4.0f%%: %6.2fx\n", p.dim, p.ratio,
                100 * p.fraction, s.factor);
    w.begin_object()
        .field("dim", std::int64_t(p.dim))
        .field("ratio", std::int64_t(p.ratio))
        .field("patch_fraction", p.fraction)
        .field("actual_bytes", s.actual_bytes)
        .field("uniform_fine_bytes", s.uniform_fine_bytes)
        .field("savings", s.factor)
        .end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  std::printf("wrote %s\n\n", path.c_str());
}

} // namespace

int main(int argc, char** argv) {
  g_out = diag::OutputDir::from_args(argc, argv);
  bool json_out = false, quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) { json_out = true; }
    if (std::strcmp(argv[i], "--quick") == 0) { quick = true; }
  }
  if (json_out) { write_savings_json(g_out.path("BENCH_mr_savings.json")); }
  if (quick) { return 0; }

  std::printf("Fig. 6: time-to-solution with and without mesh refinement\n");
  std::printf("(moving window starts at %.0f fs — the dashed line; the MR patch is\n",
              window_start * 1e15);
  std::printf("removed when the foil leaves the window — the star)\n\n");

  const auto a = run_case("with_mr", "a) with MR", true, 1, 1);
  const auto b = run_case("2x_ppc4", "b) no MR, 2x res, ppc/4", false, 2, 4);
  const auto c = run_case("2x_full", "c) no MR, 2x res", false, 2, 1);

  std::printf("summary (paper: MR 1.5x-4x faster after patch removal):\n");
  std::printf("  time-to-solution:        b/a = %.2fx   c/a = %.2fx\n",
              b.total_s / a.total_s, c.total_s / a.total_s);
  std::printf("  step cost after removal: b/a = %.2fx   c/a = %.2fx\n",
              b.post_removal_step_ms / a.post_removal_step_ms,
              c.post_removal_step_ms / a.post_removal_step_ms);
  std::printf("  patch removed at t = %.1f fs\n", a.removal_time * 1e15);
  std::printf("  series written to %s/mr_savings_{with_mr,2x_ppc4,2x_full}.csv\n",
              g_out.dir().c_str());
  return 0;
}
