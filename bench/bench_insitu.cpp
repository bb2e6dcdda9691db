// Cost of the in-situ physics diagnostics (paper Figs. 6/7 are built from
// exactly these reduced quantities, computed in situ because the full
// particle/field dumps would dwarf the simulation itself): run a uniform
// thermal plasma under a sweep of reduced-diagnostic cadences — every-step
// probing, the default cadences, defaults plus the streaming exporter,
// sparse sampling, and fully off — and report the insitu seconds against
// the step seconds, plus the record/frame/byte counts so the gate notices
// if a cadence ever stops producing its telemetry.
//
// The insitu/step second columns are host timing (noise) and are --ignore'd
// by the bench_smoke comparison; record counts, stream frame/byte counts
// and the series/emittance verdicts are deterministic and gated against
// BENCH_insitu.json.
//
// Run: ./bench_insitu [--json] [--steps N] [--outdir DIR]

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/simulation.hpp"
#include "src/diag/output_dir.hpp"
#include "src/insitu/registry.hpp"
#include "src/obs/json.hpp"

using namespace mrpic;

namespace {

struct CadenceRecord {
  int reduced_interval;   // moments / laser / wakefield / field-energy cadence
  int spectrum_interval;
  int stream_interval;    // 0 = exporter off
  std::int64_t steps;
  std::int64_t records;
  std::int64_t stream_frames;
  std::int64_t stream_bytes;
  double insitu_s;
  double step_s;
  double overhead_frac;
  bool series_ok;   // JSONL series round-trips through validate_series
  bool beam_ok;     // latest beam record has finite emittance + full count
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

CadenceRecord run_cadence(int reduced, int spectrum, int stream, int steps,
                          const diag::OutputDir& out) {
  core::Simulation<2> sim(plasma_config(32));
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);

  insitu::InsituConfig icfg;
  icfg.moments_interval = reduced;
  icfg.laser_interval = reduced;
  icfg.wakefield_interval = reduced;
  icfg.field_energy_interval = reduced;
  icfg.spectrum_interval = spectrum;
  icfg.beam_species = 0;
  icfg.beam_e_min_J = 0;                 // the thermal bulk IS the "beam" here
  icfg.spectrum_e_min_J = 0;
  icfg.spectrum_e_max_J = 1.602e-16;     // 0..1 keV covers a 50 eV plasma
  icfg.spectrum_bins = 64;
  icfg.laser_wavelength = 0.8e-6;        // no antenna; probes field noise
  // Not BENCH_-prefixed: the smoke gate globs BENCH_*.json for its schema
  // pass and these per-cadence artifacts are not bench outputs.
  char label[64];
  std::snprintf(label, sizeof(label), "insitu_run_%d_%d_%d", reduced, spectrum, stream);
  icfg.series_path = out.path(std::string(label) + ".jsonl");
  icfg.stream_interval = stream;
  icfg.stream_downsample = 4;
  icfg.stream_components = {0, 1};
  icfg.phase_space.ax = diag::Axis::Energy;
  icfg.phase_space.ay = diag::Axis::Ux;
  icfg.phase_space.a_min = 0;
  icfg.phase_space.a_max = 1.602e-16;
  icfg.phase_space.b_min = -1e7;
  icfg.phase_space.b_max = 1e7;
  icfg.phase_space.na = 32;
  icfg.phase_space.nb = 32;
  icfg.stream.basename = out.path(label);
  sim.enable_insitu(icfg);
  sim.init();
  sim.run(steps);

  CadenceRecord r{};
  r.reduced_interval = reduced;
  r.spectrum_interval = spectrum;
  r.stream_interval = stream;
  r.steps = steps;
  r.records = sim.insitu()->num_records();
  if (const auto* sw = sim.insitu_stream()) {
    r.stream_frames = static_cast<std::int64_t>(sw->frames_written());
    r.stream_bytes = static_cast<std::int64_t>(sw->bytes_written());
  }
  r.series_ok = insitu::Registry::validate_series(icfg.series_path).empty();
  // Every reduced cadence that ran must see the whole plasma with a finite
  // normalized emittance; cadence 0 vacuously passes (nothing probed).
  const auto* beam = sim.insitu()->last("beam");
  r.beam_ok = beam == nullptr ||
              (beam->value("count") > 0 && std::isfinite(beam->value("emit_ny_m_rad")));

  const auto step = sim.profiler().breakdown("step");
  r.insitu_s = step.seconds("insitu");
  r.step_s = step.total.inclusive_s;
  r.overhead_frac = step.share("insitu");
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

  // The sweep: every-step reductions (worst case), the default cadences,
  // defaults plus the streaming exporter, sparse sampling, then off.
  struct Point {
    int reduced, spectrum, stream;
  };
  const std::vector<Point> sweep = {
      {1, 1, 0}, {10, 50, 0}, {10, 50, 20}, {50, 0, 0}, {0, 0, 0}};

  std::printf("insitu-diagnostics overhead vs cadence (%d steps, 32^2 thermal plasma)\n\n",
              steps);
  std::printf("  %-26s %7s %7s %10s %9s %9s %9s %6s %6s\n", "cadence", "records",
              "frames", "bytes", "insitu_s", "step_s", "overhead", "series", "beam");
  std::vector<CadenceRecord> records;
  for (const auto& p : sweep) {
    auto r = run_cadence(p.reduced, p.spectrum, p.stream, steps, out);
    char label[64];
    std::snprintf(label, sizeof(label), "red=%d spec=%d stream=%d", p.reduced,
                  p.spectrum, p.stream);
    std::printf("  %-26s %7lld %7lld %10lld %9.4f %9.4f %8.2f%% %6s %6s\n", label,
                static_cast<long long>(r.records),
                static_cast<long long>(r.stream_frames),
                static_cast<long long>(r.stream_bytes), r.insitu_s, r.step_s,
                100 * r.overhead_frac, r.series_ok ? "ok" : "FAIL",
                r.beam_ok ? "ok" : "FAIL");
    records.push_back(r);
  }

  if (json_out) {
    const std::string json_path = out.path("BENCH_insitu.json");
    std::ofstream os(json_path);
    obs::json::Writer w(os);
    w.begin_object();
    w.field("bench", "insitu");
    w.begin_array("cadence");
    for (const auto& r : records) {
      w.begin_object()
          .field("reduced_interval", std::int64_t(r.reduced_interval))
          .field("spectrum_interval", std::int64_t(r.spectrum_interval))
          .field("stream_interval", std::int64_t(r.stream_interval))
          .field("steps", r.steps)
          .field("records", r.records)
          .field("stream_frames", r.stream_frames)
          .field("stream_bytes", r.stream_bytes)
          .field("insitu_s", r.insitu_s)
          .field("step_s", r.step_s)
          .field("overhead_frac", r.overhead_frac)
          .field("series_ok", std::int64_t(r.series_ok ? 1 : 0))
          .field("beam_ok", std::int64_t(r.beam_ok ? 1 : 0))
          .end_object();
    }
    w.end_array();
    w.end_object();
    os << '\n';
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
