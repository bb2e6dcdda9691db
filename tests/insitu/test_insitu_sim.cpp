// Acceptance gate for the in-situ observability pipeline end to end: a
// Simulation with enable_insitu must collect reduced diagnostics inside the
// "insitu" profiler region, publish insitu_* gauges, keep the JSONL series
// schema-valid and the streaming manifest consistent with the frame files,
// and a replayed (appending) incarnation must leave a canonicalizable
// series — the crash -> rollback -> replay contract of resilient_lwfa.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "src/core/simulation.hpp"
#include "src/insitu/registry.hpp"
#include "src/obs/json.hpp"
#include "src/obs/perf_report.hpp"

using namespace mrpic;

namespace {

// The aggregate insitu_smoke ctest and the gtest-discovered InsituSmoke.*
// tests run this same code concurrently in one working directory; a per-pid
// tag keeps their artifact files from clobbering each other.
std::string unique_tag(const std::string& base) {
  return base + "_" + std::to_string(static_cast<long>(::getpid()));
}

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

insitu::InsituConfig smoke_config(const std::string& tag) {
  insitu::InsituConfig icfg;
  icfg.moments_interval = 2;
  icfg.spectrum_interval = 4;
  icfg.laser_interval = 2;
  icfg.wakefield_interval = 2;
  icfg.field_energy_interval = 2;
  icfg.beam_species = 0;
  icfg.spectrum_e_min_J = 0;
  icfg.spectrum_e_max_J = 1.602e-16; // 1 keV, covers the 50 eV plasma
  icfg.spectrum_bins = 32;
  icfg.laser_wavelength = 0.8e-6;
  icfg.series_path = tag + "_series.jsonl";
  icfg.stream_interval = 5;
  icfg.stream_downsample = 2;
  icfg.stream_components = {0, 1};
  icfg.phase_space.ax = diag::Axis::Energy;
  icfg.phase_space.ay = diag::Axis::Ux;
  icfg.phase_space.a_max = 1.602e-16;
  icfg.phase_space.b_min = -1e7;
  icfg.phase_space.b_max = 1e7;
  icfg.phase_space.na = 16;
  icfg.phase_space.nb = 16;
  icfg.stream.basename = tag + "_stream";
  return icfg;
}

void run_plasma(core::Simulation<2>& sim, int steps) {
  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e23);
  inj.ppc = IntVect2(2, 2);
  inj.temperature_ev = 50.0;
  sim.add_species(particles::Species::electron(), inj);
  sim.init();
  sim.run(steps);
}

void cleanup(const std::string& tag) {
  std::remove((tag + "_series.jsonl").c_str());
  for (int i = 0; i < 8; ++i) {
    char path[256];
    std::snprintf(path, sizeof(path), "%s_stream.%03d.bin", tag.c_str(), i);
    std::remove(path);
  }
  std::remove((tag + "_stream.manifest.json").c_str());
}

} // namespace

TEST(InsituSmoke, PipelineEndToEnd) {
  const std::string tag = unique_tag("insitu_sim_smoke");
  cleanup(tag);
  core::Simulation<2> sim(plasma_config(16));
  sim.enable_insitu(smoke_config(tag));
  ASSERT_TRUE(sim.insitu_enabled());
  run_plasma(sim, 20);

  // Reduced diagnostics ran inside their own profiler region.
  const auto& reg = *sim.insitu();
  EXPECT_GT(reg.num_records(), 0);
  const auto totals = sim.profiler().flat_totals();
  ASSERT_TRUE(totals.count("insitu"));
  ASSERT_TRUE(totals.count("step"));
  EXPECT_GT(totals.at("insitu").count, 0);
  EXPECT_LT(totals.at("insitu").inclusive_s, totals.at("step").inclusive_s);

  // Gauges carry the latest record (the whole plasma is the "beam" here).
  const auto* beam = reg.last("beam");
  ASSERT_NE(beam, nullptr);
  EXPECT_GT(beam->value("count"), 0);
  EXPECT_TRUE(std::isfinite(beam->value("emit_ny_m_rad")));
  EXPECT_DOUBLE_EQ(sim.metrics().gauge_value("insitu_beam_count"),
                   beam->value("count"));
  EXPECT_GT(sim.metrics().gauge_value("insitu_field_energy_level0_total_J"), 0.0);

  // Durable series: schema-valid JSONL with one object per record.
  EXPECT_TRUE(insitu::Registry::validate_series(reg.series_path()).empty());
  EXPECT_EQ(static_cast<std::int64_t>(
                insitu::Registry::read_series_jsonl(reg.series_path()).size()),
            reg.num_records());

  // Streaming exporter: manifest schema-valid and consistent with the
  // complete frames actually on disk.
  const auto* sw = sim.insitu_stream();
  ASSERT_NE(sw, nullptr);
  EXPECT_GT(sw->frames_written(), 0);
  EXPECT_EQ(sw->frames_written() % 3, 0); // Ex + Ey + phase space per trigger
  std::vector<std::string> errors;
  const auto man = insitu::read_manifest(sw->manifest_path(), &errors);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_EQ(man.total_frames, sw->frames_written());
  std::int64_t on_disk = 0;
  for (const auto& mf : man.files) {
    bool truncated = true;
    on_disk += static_cast<std::int64_t>(insitu::read_frames(mf.file, &truncated).size());
    EXPECT_FALSE(truncated) << mf.file;
  }
  EXPECT_EQ(on_disk, man.total_frames);

  // Final force-collect (end-of-run records regardless of cadence) feeds
  // the example's printed beam summary.
  const auto before = reg.num_records();
  sim.insitu()->collect(sim.step_count(), sim.time(), /*force=*/true);
  EXPECT_EQ(reg.num_records(), before + reg.size());
  ASSERT_NE(sim.last_spectrum(), nullptr);
  ASSERT_NE(sim.last_beam_moments(), nullptr);
  EXPECT_GT(sim.last_beam_moments()->count, 0);

  // The perf-report section summarizes the same registry + stream counters;
  // the diagnostics' cost is the "insitu" row of the measured step anatomy.
  obs::PerfReport report;
  report.title = "insitu smoke";
  report.sections.push_back(obs::beam_section(reg, sw));
  report.sections.push_back(obs::step_anatomy_section(sim.profiler()));
  std::ostringstream md, js;
  obs::write_markdown(report, md);
  EXPECT_NE(md.str().find("## Beam physics"), std::string::npos);
  obs::write_json(report, js);
  const auto doc = obs::json::parse(js.str());
  const auto& section = doc["beam_physics"];
  ASSERT_TRUE(section.is_object());
  EXPECT_EQ(section["records"].as_int(), reg.num_records());
  EXPECT_TRUE(section["emit_ny"].is_number());  // a non-finite value would be null
  EXPECT_EQ(section["stream_frames"].as_int(), sw->frames_written());
  double insitu_s = 0;
  for (const auto& row : doc["anatomy"]["regions"].as_array()) {
    if (row["region"].as_string() == "insitu") { insitu_s = row["total_s"].as_number(); }
  }
  EXPECT_GT(insitu_s, 0.0);
  cleanup(tag);
}

TEST(InsituSmoke, EmptyBeamRendersNotAvailable) {
  // A 50 eV plasma has no particle above 0.6 MeV: the beam and its
  // spectrum are empty, so emittance, <gamma> and the spectral peak do not
  // exist and the charge is zero.
  auto icfg = smoke_config(unique_tag("insitu_empty_beam"));
  icfg.series_path.clear();
  icfg.stream_interval = 0;
  icfg.beam_e_min_J = icfg.spectrum_e_min_J = 1e-13;
  icfg.spectrum_e_max_J = 1e-12;
  core::Simulation<2> sim(plasma_config(16));
  sim.enable_insitu(icfg);
  run_plasma(sim, 4);
  sim.insitu()->collect(sim.step_count(), sim.time(), /*force=*/true);
  ASSERT_NE(sim.insitu()->last("beam"), nullptr);
  ASSERT_NE(sim.insitu()->last("spectrum"), nullptr);

  obs::PerfReport report;
  report.title = "empty beam";
  report.sections.push_back(obs::beam_section(*sim.insitu(), nullptr));
  std::ostringstream md, js;
  obs::write_markdown(report, md);
  const std::string beam_md = md.str().substr(md.str().find("## Beam physics"));
  EXPECT_EQ(beam_md.find("nan"), std::string::npos) << beam_md;
  EXPECT_EQ(beam_md.find("| -0"), std::string::npos) << beam_md;
  EXPECT_NE(beam_md.find("| spectral peak energy | n/a |"), std::string::npos) << beam_md;
  EXPECT_NE(beam_md.find("| normalized emittance (y) | n/a |"), std::string::npos);
  EXPECT_NE(beam_md.find("| beam charge | 0 C |"), std::string::npos) << beam_md;

  obs::write_json(report, js);
  const auto doc = obs::json::parse(js.str());
  const auto& beam = doc["beam_physics"];
  EXPECT_TRUE(beam["peak_energy_J"].is_null());
  EXPECT_TRUE(beam["energy_spread"].is_null());
  EXPECT_TRUE(beam["emit_ny"].is_null());
  ASSERT_TRUE(beam["beam_charge_C"].is_number());
  EXPECT_FALSE(std::signbit(beam["beam_charge_C"].as_number()));
}

TEST(InsituSmoke, ReplayAppendKeepsSeriesCanonicalizable) {
  const std::string tag = unique_tag("insitu_sim_replay");
  cleanup(tag);
  auto icfg = smoke_config(tag);
  icfg.stream_interval = 0; // series continuity is the subject here

  std::int64_t first_records = 0;
  {
    core::Simulation<2> sim(plasma_config(16));
    sim.enable_insitu(icfg);
    run_plasma(sim, 12);
    first_records = sim.insitu()->num_records();
  }
  {
    // A replay incarnation (resil rebuilds the Simulation from a rollback):
    // same series, append mode, steps re-run from the beginning.
    icfg.series_append = true;
    core::Simulation<2> sim(plasma_config(16));
    sim.enable_insitu(icfg);
    run_plasma(sim, 8);
  }

  const std::string path = tag + "_series.jsonl";
  EXPECT_TRUE(insitu::Registry::validate_series(path).empty());
  const auto raw = insitu::Registry::read_series_jsonl(path);
  EXPECT_GT(static_cast<std::int64_t>(raw.size()), first_records);
  const auto canon = insitu::Registry::canonicalize(raw);
  EXPECT_LT(canon.size(), raw.size()); // the replayed overlap collapsed
  std::int64_t last_step = -1;
  for (const auto& r : canon) {
    if (r.diag != "beam") { continue; }
    EXPECT_GT(r.step, last_step);
    last_step = r.step;
  }
  EXPECT_GE(last_step, 0);
  cleanup(tag);
}
