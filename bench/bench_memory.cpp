// Memory-footprint accounting (paper Sec. V.B / Fig. 6 affordability): run
// the same thermal plasma under a sweep of grid sizes, species counts and
// MR on/off, with the obs::MemoryLedger published at a sweep of cadences,
// and report the deterministic byte columns (total, high water, fields,
// particles, MR surcharge) plus the conservation verdict
// (total_charged - total_released == total_current, exact) and the probe's
// own cost against the step cost at the default every-step cadence.
//
// The byte columns are deterministic (capacity-exact fab vectors, size-based
// particle accounts) and gated against BENCH_memory.json; the probe/step
// second columns are host timing and are --ignore'd by bench_smoke. The
// overhead_ok verdict (probe <= 1% of step time at interval 1) is gated:
// the probe is a handful of relaxed atomics plus gauge stores, so 1% holds
// with wide margin.
//
// Run: ./bench_memory [--json] [--steps N] [--outdir DIR]

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"
#include "src/diag/output_dir.hpp"
#include "src/obs/json.hpp"
#include "src/obs/memory.hpp"

using namespace mrpic;

namespace {

struct CaseRecord {
  std::string name;
  std::int64_t cells = 0;
  int species = 0;
  int mr = 0;
  int interval = 1;
  std::int64_t steps = 0;
  std::int64_t total_bytes = 0;
  std::int64_t high_water_bytes = 0;
  std::int64_t fields_bytes = 0;
  std::int64_t particles_bytes = 0;
  std::int64_t mr_bytes = 0;
  bool conservation_ok = false;
  double probe_s = 0;
  double step_s = 0;
  double overhead_frac = 0;
  bool overhead_ok = false;
};

std::unique_ptr<core::Simulation<2>> make_sim(int n, int nspecies, bool mr) {
  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(n - 1, n - 1));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(n * 1e-7, n * 1e-7);
  cfg.periodic = {true, true};
  cfg.max_grid_size = IntVect2(n / 2);
  cfg.shape_order = 2;
  auto sim = std::make_unique<core::Simulation<2>>(cfg);

  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim->add_species(particles::Species::electron(), inj);
  if (nspecies > 1) { sim->add_species(particles::Species::proton("ions"), inj); }

  if (mr) {
    mr::MRPatch<2>::Config pcfg;
    pcfg.region = Box2(IntVect2(n / 4, n / 4), IntVect2(n / 2 - 1, n / 2 - 1));
    pcfg.ratio = 2;
    pcfg.transition_cells = 2;
    pcfg.pml.npml = 4;
    sim->enable_mr_patch(pcfg);
  }
  return sim;
}

CaseRecord run_case(const std::string& name, int n, int nspecies, bool mr,
                    int interval, int steps) {
  // Per-case high-water marks: the ledger is process-global, so restart the
  // peak tracking from the (empty) pre-case occupancy.
  obs::memory_ledger().reset_high_water();

  auto sim = make_sim(n, nspecies, mr);
  core::MemoryObsConfig mcfg;
  mcfg.interval = interval;
  sim->enable_memory_obs(mcfg);
  sim->init();
  sim->run(steps);

  CaseRecord r;
  r.name = name;
  r.cells = sim->active_cells();
  r.species = nspecies;
  r.mr = mr ? 1 : 0;
  r.interval = interval;
  r.steps = steps;

  const auto& ledger = obs::memory_ledger();
  r.total_bytes = ledger.total_current();
  r.high_water_bytes = ledger.total_high_water();
  r.fields_bytes = ledger.current_prefix("fields");
  r.particles_bytes = ledger.current_prefix("particles");
  r.mr_bytes = ledger.current_prefix("mr");
  r.conservation_ok =
      ledger.total_charged() - ledger.total_released() == ledger.total_current();

  const auto step = sim->profiler().breakdown("step");
  r.probe_s = step.seconds("memory");
  r.step_s = step.total.inclusive_s;
  r.overhead_frac = step.share("memory");
  r.overhead_ok = r.overhead_frac <= 0.01;
  return r;
}

} // namespace

int main(int argc, char** argv) {
  const auto out = diag::OutputDir::from_args(argc, argv);
  bool json_out = false;
  int steps = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) { json_out = true; }
    if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
      steps = std::atoi(argv[i + 1]);
    }
  }

  // The sweep: footprint vs grid size, species count and MR on/off (all at
  // the default every-step cadence, where the overhead gate applies), plus
  // one sparse-cadence point to show the accounts stay fresh at interval 5.
  struct Point {
    const char* name;
    int n, species, interval;
    bool mr;
  };
  const std::vector<Point> sweep = {
      {"16_1sp", 16, 1, 1, false},      {"32_1sp", 32, 1, 1, false},
      {"32_2sp", 32, 2, 1, false},      {"32_1sp_mr", 32, 1, 1, true},
      {"32_2sp_mr", 32, 2, 1, true},    {"32_2sp_mr_i5", 32, 2, 5, true},
  };

  std::printf("memory footprint vs grid/species/MR (%d steps, thermal plasma)\n\n",
              steps);
  std::printf("  %-14s %7s %3s %3s %12s %12s %12s %5s %9s %5s\n", "case", "cells",
              "sp", "mr", "total", "fields", "particles", "cons", "overhead", "ok");
  std::vector<CaseRecord> records;
  for (const auto& p : sweep) {
    auto r = run_case(p.name, p.n, p.species, p.mr, p.interval, steps);
    std::printf("  %-14s %7lld %3d %3d %12lld %12lld %12lld %5s %8.3f%% %5s\n",
                r.name.c_str(), static_cast<long long>(r.cells), r.species, r.mr,
                static_cast<long long>(r.total_bytes),
                static_cast<long long>(r.fields_bytes),
                static_cast<long long>(r.particles_bytes),
                r.conservation_ok ? "ok" : "FAIL", 100 * r.overhead_frac,
                r.overhead_ok ? "ok" : "FAIL");
    records.push_back(r);
  }

  if (json_out) {
    const std::string json_path = out.path("BENCH_memory.json");
    std::ofstream os(json_path);
    obs::json::Writer w(os);
    w.begin_object();
    w.field("bench", "memory");
    w.begin_array("cases");
    for (const auto& r : records) {
      w.begin_object()
          .field("case", r.name)
          .field("cells", r.cells)
          .field("species", std::int64_t(r.species))
          .field("mr", std::int64_t(r.mr))
          .field("interval", std::int64_t(r.interval))
          .field("steps", r.steps)
          .field("total_bytes", r.total_bytes)
          .field("high_water_bytes", r.high_water_bytes)
          .field("fields_bytes", r.fields_bytes)
          .field("particles_bytes", r.particles_bytes)
          .field("mr_bytes", r.mr_bytes)
          .field("conservation_ok", std::int64_t(r.conservation_ok ? 1 : 0))
          .field("probe_s", r.probe_s)
          .field("step_s", r.step_s)
          .field("overhead_frac", r.overhead_frac)
          .field("overhead_ok", std::int64_t(r.overhead_ok ? 1 : 0))
          .end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
