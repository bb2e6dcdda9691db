// Laser Wakefield Accelerator (LWFA): a femtosecond laser pulse drives a
// plasma wake in an underdense gas jet and the moving window follows the
// pulse — the acceleration stage of the paper's hybrid scheme (Fig. 1a),
// scaled down to laptop size.
//
// The physics setup lives in the scenario library ("lwfa", plus "lwfa_mr"
// for the --memory mode's MR patch) and is assembled by
// scenario::build_simulation; this driver keeps the example's rich final
// reporting (critical path, roofline, straggler naming) on top of it.
//
// Run: ./laser_wakefield [--outdir DIR] [--health] [--insitu] [--memory]
//                        [--node-budget-gb G] [t_end_fs]
// With --health, the in-situ invariant ledger + NaN/stability watchdog run
// alongside (src/health): lwfa_health.jsonl carries the per-step ledger,
// lwfa_alerts.jsonl any alerts, and the perf report gains a "Simulation
// health" section; the probe's cost is the `health` row of its step anatomy.
// With --insitu, the in-situ physics registry (src/insitu) tracks beam
// moments/emittance, spectrum peak/FWHM, laser a0/centroid, wakefield
// amplitude and field energy at their cadences (lwfa_insitu.jsonl), streams
// downsampled Ex/Ey slices + a beam phase-space histogram as binary frames
// (lwfa_stream.*.bin + lwfa_stream.manifest.json), and the perf report
// gains a "Beam physics" section.
// With --memory, the byte ledger (src/obs/memory) publishes per-step mem_*
// gauges into lwfa_metrics.jsonl, the per-rank resident model fills
// memory_heatmap.csv, and the perf report gains a "## Memory" section with
// the measured-vs-analytic MR memory-savings factor — the run uses the
// "lwfa_mr" spec (ratio-2 MR patch over the wake region) so the savings
// accounting has a patch to account. --node-budget-gb G (implies --memory)
// adds the OOM headroom gauge and first-rank-to-OOM prediction against a
// G-GiB budget.
// Output (in --outdir, default out/): lwfa_history.csv (time series),
//         lwfa_field.csv, lwfa_trace.json (Chrome/Perfetto trace with one
//         lane per profiled thread plus one lane per simulated rank, halo
//         messages drawn as flow arrows between rank lanes),
//         lwfa_metrics.jsonl (per-step counters/gauges + per-rank sections),
//         rank_heatmap.csv (step x rank compute/comm/imbalance matrix),
//         lwfa_ranks.json (the full recorder dump, re-loadable by the
//         perf_report CLI), lwfa_perf_report.{md,json} (measured step
//         anatomy + critical-path / loss-attribution report over the run,
//         assembled by scenario::assemble_perf_report like mrpic_run's)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "src/core/simulation.hpp"
#include "src/diag/csv_writer.hpp"
#include "src/diag/output_dir.hpp"
#include "src/diag/spectrum.hpp"
#include "src/obs/rank_recorder_io.hpp"
#include "src/obs/trace.hpp"
#include "src/scenario/builder.hpp"
#include "src/scenario/driver.hpp"
#include "src/scenario/library.hpp"

#include "example_args.hpp"

using namespace mrpic;
using namespace mrpic::constants;

int main(int argc, char** argv) {
  const auto out = diag::OutputDir::from_args(argc, argv);
  const auto args = examples::parse_example_args(argc, argv, /*default fs*/ 150.0);
  const bool with_health = args.health;
  const bool with_insitu = args.insitu;
  const Real t_end = args.t_end;

  // The declarative setup: grid, jet, pulse, window, cadences and the
  // health/insitu policy blocks all come from the registered spec. The
  // --memory mode runs the MR variant so the savings accounting has a
  // patch to measure (physics-motivated placement: highest resolution
  // where the bunch forms).
  scenario::ScenarioSpec spec =
      args.memory ? scenario::make_lwfa_mr() : scenario::make_lwfa();
  scenario::BuildOptions bopt;
  bopt.init = false; // observability first, then init
  auto sim_ptr = scenario::build_simulation(spec, bopt);
  core::Simulation<2>& sim = *sim_ptr;
  const int electrons = 0; // the spec's single species

  // Observe the run as if it were domain-decomposed over 4 ranks (the
  // spec's nranks): per-rank compute/comm split, message-level halo log
  // (rank lanes in lwfa_trace.json) and load-balancer snapshots (the laser
  // sweeping the jet drives real imbalance).
  sim.enable_cluster_obs();
  if (args.memory) { sim.enable_memory_obs(args.memory_cfg()); }
  sim.profiler().set_tracing(true); // collect Chrome trace events per region

  if (with_health) {
    health::MonitorConfig hcfg = spec.health;
    hcfg.alerts_path = out.path("lwfa_alerts.jsonl");
    hcfg.ledger_path = out.path("lwfa_health.jsonl");
    sim.enable_health(hcfg);
  }

  // The in-situ physics registry computes the run's beam deliverables; the
  // final spectrum/beam-quality print below always goes through it (one
  // code path), --insitu additionally turns on the cadence series and the
  // streaming exporter.
  const Real mev = 1e6 * q_e;
  insitu::InsituConfig icfg = spec.insitu;
  if (with_insitu) {
    icfg.series_path = out.path("lwfa_insitu.jsonl");
    icfg.stream.basename = out.path("lwfa_stream");
  } else {
    icfg.moments_interval = icfg.spectrum_interval = icfg.laser_interval =
        icfg.wakefield_interval = icfg.field_energy_interval = 0;
    icfg.stream_interval = 0;
  }
  sim.enable_insitu(icfg);

  sim.init();
  if (with_health) {
    // On a watchdog abort these run before the AbortError propagates, so
    // the dying run's telemetry is already on disk.
    sim.health()->add_flush_sink(
        [&] { sim.metrics().write_jsonl(out.path("lwfa_metrics.jsonl")); });
    sim.health()->add_flush_sink([&] {
      obs::write_chrome_trace(sim.profiler(), sim.rank_recorder(),
                              out.path("lwfa_trace.json"), "laser_wakefield");
    });
  }

  const Real n_gas = 5e25; // the spec's jet plateau density
  std::printf("LWFA: n_gas/n_c = %.4f, a0 = %.1f, %lld particles, dt = %.2e s\n",
              n_gas / plasma::critical_density(spec.lasers[0].wavelength),
              spec.lasers[0].a0, static_cast<long long>(sim.total_particles()),
              sim.dt());

  diag::CsvSeries history({"t_fs", "window_x_um", "field_energy_J", "charge_above_1MeV_pC",
                           "max_Ex_GV_per_m"});
  while (sim.time() < t_end) {
    sim.step();
    if (spec.cadences.diagnostics.due(sim.step_count())) {
      const Real q_pc = diag::charge_above<2>(sim.species_level0(electrons), 1 * mev) * 1e12;
      history.add_row({sim.time() * 1e15, sim.geom().prob_lo()[0] * 1e6,
                       sim.fields().field_energy(), q_pc,
                       sim.fields().E().max_abs(fields::X) / 1e9});
      std::printf(
          "t = %6.1f fs  window at %5.1f um  wake E_x = %6.1f GV/m  charge>1MeV = %9.1f pC/m\n",
          sim.time() * 1e15, sim.geom().prob_lo()[0] * 1e6,
          sim.fields().E().max_abs(fields::X) / 1e9, q_pc);
    }
  }

  // Final reduced diagnostics of the accelerated electrons (spectrum above
  // the wave-breaking thermal bulk) — forced through the insitu registry so
  // this print, the insitu_* gauges and the JSONL series are one code path.
  sim.insitu()->collect(sim.step_count(), sim.time(), /*force=*/true);
  const auto& beam = sim.last_spectrum()->beam;
  std::printf("\nspectral peak: %s MeV, relative spread %s, charge %s nC/m\n",
              obs::fmt_value(beam.peak_energy / mev, "%.2f").c_str(),
              obs::fmt_value(100 * beam.energy_spread, "%.1f%%").c_str(),
              obs::fmt_value(beam.charge * 1e9, "%.3f").c_str());
  const auto& mom = *sim.last_beam_moments();
  std::printf("beam (>2 MeV): %s pC/m, norm. emittance %s mm mrad, <gamma> %s\n",
              obs::fmt_value(std::abs(mom.charge_C) * 1e12, "%.3f").c_str(),
              obs::fmt_value(mom.emit_ny * 1e6, "%.3f").c_str(),
              obs::fmt_value(mom.mean_gamma, "%.1f").c_str());

  history.write(out.path("lwfa_history.csv"));
  diag::write_field_2d(out.path("lwfa_field.csv"), sim.fields().E(), fields::X);
  obs::write_chrome_trace(sim.profiler(), sim.rank_recorder(),
                          out.path("lwfa_trace.json"), "laser_wakefield");
  sim.metrics().write_jsonl(out.path("lwfa_metrics.jsonl"));
  sim.rank_recorder().write_rank_heatmap_csv(out.path("rank_heatmap.csv"));
  obs::write_recorder_json(sim.rank_recorder(), out.path("lwfa_ranks.json"));

  // The same report assembly as mrpic_run: attribution core, one section
  // per observability flag, the measured step anatomy and the roofline.
  scenario::RunOptions ropt;
  ropt.health = with_health;
  ropt.insitu = with_insitu;
  ropt.memory = args.memory;
  ropt.node_budget_gb = args.node_budget_gb;
  const auto report =
      scenario::assemble_perf_report(sim, ropt, "LWFA attribution (4 simulated ranks)");
  if (args.memory) {
    sim.rank_recorder().write_memory_heatmap_csv(out.path("memory_heatmap.csv"));
  }
  obs::write_markdown(report, out.path("lwfa_perf_report.md"));
  obs::write_json(report, out.path("lwfa_perf_report.json"));

  // Stdout summaries, read from the report (its step anatomy carries the
  // probes' share of the step).
  if (const auto* h = report.section("health")) {
    std::printf("\nhealth: %.0f ledger samples, %.0f alerts (energy drift %s, worst "
                "continuity residual %s)\n",
                h->number("samples"), h->number("alerts"),
                obs::fmt_value(h->number("energy_drift"), "%.2e").c_str(),
                obs::fmt_value(h->number("max_continuity_residual"), "%.2e").c_str());
  }
  if (const auto* m = report.section("memory")) {
    std::printf("\nmemory: %s live (high water %s), MR savings measured %.2fx / "
                "analytic %.2fx\n",
                obs::format_bytes(m->number("total_bytes")).c_str(),
                obs::format_bytes(m->number("high_water_bytes")).c_str(),
                m->number("mr_savings_measured"), m->number("mr_savings_analytic"));
    if (!std::isnan(m->number("rank_peak_bytes")) && args.node_budget_gb > 0) {
      std::printf("memory: per-rank peak %s vs %.0f GiB budget -> %s\n",
                  obs::format_bytes(m->number("rank_peak_bytes")).c_str(),
                  args.node_budget_gb,
                  m->number("oom_predicted") > 0 ? "predicted OOM" : "fits");
    }
  }

  // Name the run's dominant critical path: which rank chain gated the worst
  // step and what it was made of.
  if (!report.paths.empty()) {
    const auto& worst = report.paths[std::size_t(report.worst_steps().front())];
    std::printf("\ncritical path (worst step %lld, %.3f ms makespan): ranks",
                static_cast<long long>(worst.step), worst.makespan_s * 1e3);
    const std::size_t shown = worst.rank_chain.size() < 8 ? worst.rank_chain.size() : 8;
    for (std::size_t i = 0; i < shown; ++i) {
      std::printf(" %d%s", worst.rank_chain[i], i + 1 < shown ? " ->" : "");
    }
    if (shown < worst.rank_chain.size()) {
      std::printf(" ... (%zu hops)", worst.rank_chain.size());
    }
    std::printf("\n  composition: compute %.1f%%  halo transfer %.1f%%  latency %.1f%%"
                "  resil %.1f%%\n",
                100 * worst.compute_s / worst.makespan_s,
                100 * worst.transfer_s / worst.makespan_s,
                100 * worst.latency_s / worst.makespan_s,
                100 * worst.retry_s / worst.makespan_s);
    const auto stragglers = report.summary.stragglers();
    if (!stragglers.empty()) {
      std::printf("  straggler rank %d: %.3f ms on the critical path over %d steps\n",
                  stragglers.front(),
                  report.summary.critical_s_per_rank[std::size_t(stragglers.front())] * 1e3,
                  report.summary.steps);
    }
  }

  std::printf("wrote lwfa_{history,field}.csv, lwfa_trace.json, lwfa_metrics.jsonl, "
              "rank_heatmap.csv, lwfa_ranks.json, lwfa_perf_report.{md,json} in %s/\n",
              out.dir().c_str());
  sim.profiler().report(std::cout);
  const auto& rep = sim.last_step_report();
  std::printf("last step %lld: %.3f ms wall, %lld particles, %lld cells\n",
              static_cast<long long>(rep.step), rep.wall_s * 1e3,
              static_cast<long long>(rep.particles_pushed),
              static_cast<long long>(rep.cells_advanced));
  return 0;
}
