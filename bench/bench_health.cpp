// Cost of the in-situ self-diagnostics (paper Sec. V: the production runs
// carry "light self-diagnostics" whose overhead must stay negligible): run
// the same uniform thermal plasma under a sweep of ledger cadences — from
// every-step probing with residuals down to sparse sampling — and report
// the probe seconds against the step seconds, plus the invariant verdicts
// (energy drift bounded, Esirkepov continuity at round-off) so the gate
// notices if cheaper probing ever stops seeing the physics.
//
// The probe/step second columns are host timing (noise) and are --ignore'd
// by the bench_smoke comparison; probe counts, alert counts and the ok
// verdicts are deterministic and gated against BENCH_health.json.
//
// Run: ./bench_health [--json] [--steps N] [--outdir DIR]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"
#include "src/diag/output_dir.hpp"
#include "src/health/monitor.hpp"
#include "src/obs/json.hpp"

using namespace mrpic;

namespace {

struct CadenceRecord {
  int ledger_interval;
  int residual_interval;
  std::int64_t steps;
  std::int64_t probes;
  std::int64_t alerts;
  std::int64_t nan_cells;
  double probe_s;
  double step_s;
  double overhead_frac;
  double energy_drift; // |E_end - E_0| / E_0 over the sampled window
  bool energy_drift_ok;
  bool continuity_ok;
};

core::SimulationConfig<2> plasma_config(int n) {
  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(n - 1, n - 1));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = IntVect2(n / 2);
  cfg.shape_order = 2;
  return cfg;
}

CadenceRecord run_cadence(int ledger_interval, int residual_interval, int steps) {
  core::Simulation<2> sim(plasma_config(32));
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);

  health::MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  hcfg.ledger_interval = ledger_interval;
  hcfg.nan_interval = ledger_interval;
  hcfg.residual_interval = residual_interval;
  sim.enable_health(hcfg);
  sim.init();
  sim.run(steps);

  CadenceRecord r{};
  r.ledger_interval = ledger_interval;
  r.residual_interval = residual_interval;
  r.steps = steps;
  const auto& mon = *sim.health();
  r.probes = mon.num_samples();
  r.alerts = mon.num_alerts();

  double e0 = NAN, e1 = NAN;
  double worst_continuity = 0;
  bool any_residual = false;
  for (const auto& s : mon.history()) {
    const double e = s.total_energy_J();
    if (std::isnan(e0)) { e0 = e; }
    e1 = e;
    if (s.nan_cells > r.nan_cells) { r.nan_cells = s.nan_cells; }
    if (!std::isnan(s.continuity_residual)) {
      any_residual = true;
      if (s.continuity_residual > worst_continuity) {
        worst_continuity = s.continuity_residual;
      }
    }
  }
  r.energy_drift = std::abs(e1 - e0) / std::max(e0, 1e-300);
  r.energy_drift_ok = r.energy_drift < 0.10;
  // Cadences that skip residuals vacuously pass (nothing probed, nothing
  // wrong); probed cadences must hold the round-off gate.
  r.continuity_ok = !any_residual || worst_continuity <= 1e-12;

  const auto step = sim.profiler().breakdown("step");
  r.probe_s = step.seconds("health");
  r.step_s = step.total.inclusive_s;
  r.overhead_frac = step.share("health");
  return r;
}

} // namespace

int main(int argc, char** argv) {
  const auto out = diag::OutputDir::from_args(argc, argv);
  bool json_out = false;
  int steps = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) { json_out = true; }
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[i + 1]);
    }
  }

  // The sweep: every-step ledger + residuals (worst case), every-step ledger
  // without the deposition-heavy residual probe, then sparser sampling.
  struct Point {
    int ledger, residual;
  };
  const std::vector<Point> sweep = {{1, 1}, {1, 10}, {1, 0}, {5, 0}, {20, 0}};

  std::printf("health-probe overhead vs cadence (%d steps, 32^2 thermal plasma)\n\n",
              steps);
  std::printf("  %-22s %7s %7s %9s %9s %9s %6s %6s\n", "cadence", "probes", "alerts",
              "probe_s", "step_s", "overhead", "drift", "cont");
  std::vector<CadenceRecord> records;
  for (const auto& p : sweep) {
    auto r = run_cadence(p.ledger, p.residual, steps);
    char label[64];
    std::snprintf(label, sizeof(label), "ledger=%d residual=%d", p.ledger, p.residual);
    std::printf("  %-22s %7lld %7lld %9.4f %9.4f %8.2f%% %6s %6s\n", label,
                static_cast<long long>(r.probes), static_cast<long long>(r.alerts),
                r.probe_s, r.step_s, 100 * r.overhead_frac,
                r.energy_drift_ok ? "ok" : "FAIL", r.continuity_ok ? "ok" : "FAIL");
    records.push_back(r);
  }

  if (json_out) {
    const std::string json_path = out.path("BENCH_health.json");
    std::ofstream os(json_path);
    obs::json::Writer w(os);
    w.begin_object();
    w.field("bench", "health");
    w.begin_array("cadence");
    for (const auto& r : records) {
      w.begin_object()
          .field("ledger_interval", std::int64_t(r.ledger_interval))
          .field("residual_interval", std::int64_t(r.residual_interval))
          .field("steps", r.steps)
          .field("probes", r.probes)
          .field("alerts", r.alerts)
          .field("nan_cells", r.nan_cells)
          .field("probe_s", r.probe_s)
          .field("step_s", r.step_s)
          .field("overhead_frac", r.overhead_frac)
          .field("energy_drift_ok", std::int64_t(r.energy_drift_ok ? 1 : 0))
          .field("continuity_ok", std::int64_t(r.continuity_ok ? 1 : 0))
          .end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
