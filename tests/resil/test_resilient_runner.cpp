// The tentpole acceptance test (registered as the `resil_smoke` ctest): a
// seeded rank crash mid-run on a laser-wakefield configuration recovers via
// checkpoint rollback + elastic box re-mapping and finishes BIT-IDENTICALLY
// to an uninterrupted run, with the fault/recovery events visible in the
// rank recorder, the Chrome trace and the metrics.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <set>
#include <sstream>

#include "src/obs/trace.hpp"
#include "src/resil/resilient_runner.hpp"

namespace mrpic::resil {
namespace {

using namespace mrpic::constants;

constexpr int kTotalSteps = 30;
constexpr int kCrashStep = 17;
constexpr int kCrashRank = 2;
constexpr int kCkptInterval = 10;

// A small laser-wakefield run on a 4-rank simulated cluster: laser + plasma
// + PML + moving window (no MR patch: a rollback must not cross a patch
// lifecycle boundary, see ResilientRunner's header).
std::unique_ptr<core::Simulation<2>> build_lwfa() {
  core::SimulationConfig<2> cfg;
  cfg.domain = Box2(IntVect2(0, 0), IntVect2(95, 31));
  cfg.prob_lo = RealVect2(0, 0);
  cfg.prob_hi = RealVect2(9.6e-6, 3.2e-6);
  cfg.periodic = {false, true};
  cfg.use_pml = true;
  cfg.pml.npml = 6;
  cfg.max_grid_size = IntVect2(24, 16); // 8 boxes over 4 ranks
  cfg.shape_order = 2;
  cfg.nranks = 4;
  auto sim = std::make_unique<core::Simulation<2>>(cfg);

  plasma::InjectorConfig<2> inj;
  inj.density = plasma::uniform<2>(5e24);
  inj.ppc = IntVect2(2, 1);
  inj.temperature_ev = 20.0;
  sim->add_species(particles::Species::electron(), inj);

  laser::LaserConfig lc;
  lc.a0 = 1.5;
  lc.waist = 1.2e-6;
  lc.duration = 5e-15;
  lc.t_peak = 8e-15;
  lc.x_antenna = 1.0e-6;
  lc.center = {1.6e-6, 0};
  sim->add_laser(lc);

  sim->set_moving_window(0, c, /*start_time=*/10e-15);
  sim->enable_cluster_obs();
  sim->init();
  return sim;
}

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

typename ResilientRunner<2>::Config crash_config(const std::string& path) {
  typename ResilientRunner<2>::Config cfg;
  cfg.total_steps = kTotalSteps;
  cfg.checkpoint_path = path;
  cfg.policy.mode = CheckpointMode::Periodic;
  cfg.policy.interval_steps = kCkptInterval;
  cfg.plan.crashes.push_back({.rank = kCrashRank, .step = kCrashStep});
  return cfg;
}

// The aggregate resil_smoke ctest and the discovered ResilSmoke.* tests run
// this code concurrently in one working directory: checkpoints are per pid.
std::string per_process(const std::string& base) {
  return base + "_" + std::to_string(static_cast<long>(::getpid())) + ".bin";
}

TEST(ResilSmoke, CrashRecoversBitIdenticallyToUninterruptedRun) {
  const std::string path = per_process("resil_smoke_ckpt");

  // Uninterrupted reference.
  auto ref = build_lwfa();
  ref->run(kTotalSteps);

  // Crashed-and-recovered run.
  ResilientRunner<2> runner(build_lwfa, crash_config(path));
  const auto rep = runner.run();

  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.crashes, 1);
  EXPECT_EQ(rep.recoveries, 1);
  EXPECT_EQ(rep.final_nranks, 3); // elastic shrink: 4 -> 3
  // Crash at step 17 rolls back to the periodic checkpoint at step 10.
  EXPECT_EQ(rep.replayed_steps, kCrashStep + 1 - kCkptInterval);
  EXPECT_EQ(rep.steps_run, kTotalSteps + rep.replayed_steps);
  EXPECT_GT(rep.detection_s, 0);
  EXPECT_GE(rep.checkpoints_written, 3); // step 0 + periodic fires

  auto& sim = runner.sim();
  EXPECT_EQ(sim.step_count(), kTotalSteps);
  EXPECT_EQ(sim.config().nranks, 3);
  EXPECT_EQ(sim.dist_map().nranks(), 3);

  // The physics must not know the cluster crashed.
  EXPECT_DOUBLE_EQ(sim.time(), ref->time());
  EXPECT_TRUE(fields_identical(sim.fields().E(), ref->fields().E()));
  EXPECT_TRUE(fields_identical(sim.fields().B(), ref->fields().B()));
  EXPECT_TRUE(fields_identical(sim.fields().J(), ref->fields().J()));
  EXPECT_TRUE(fields_identical(sim.domain_pml()->split_fab(),
                               ref->domain_pml()->split_fab()));
  EXPECT_TRUE(particles_identical(sim.species_level0(0), ref->species_level0(0)));
  EXPECT_DOUBLE_EQ(sim.geom().prob_lo()[0], ref->geom().prob_lo()[0]);
  std::remove(path.c_str());
}

TEST(ResilSmoke, RecoveryEventsVisibleInRecorderTraceAndMetrics) {
  const std::string path = per_process("resil_smoke_obs");
  ResilientRunner<2> runner(build_lwfa, crash_config(path));
  const auto rep = runner.run();
  ASSERT_TRUE(rep.completed);
  auto& sim = runner.sim();

  // Rank recorder: the whole protocol is on the timeline.
  std::set<std::string> kinds;
  for (const auto& ev : sim.rank_recorder().fault_events()) { kinds.insert(ev.kind); }
  for (const char* k : {"crash", "detect", "rollback", "remap", "replay", "checkpoint"}) {
    EXPECT_TRUE(kinds.count(k)) << "missing fault event kind: " << k;
  }
  for (const auto& ev : sim.rank_recorder().fault_events()) {
    if (ev.kind == "crash") {
      EXPECT_EQ(ev.step, kCrashStep);
      EXPECT_EQ(ev.rank, kCrashRank);
    }
    if (ev.kind == "rollback") { EXPECT_EQ(ev.step, kCkptInterval); }
  }

  // Chrome trace: fault instant events rendered on the rank lanes.
  std::ostringstream trace;
  obs::write_chrome_trace(sim.profiler().trace_events(), sim.rank_recorder(), trace);
  const std::string json = trace.str();
  for (const char* needle :
       {"\"name\":\"crash\"", "\"name\":\"rollback\"", "\"name\":\"remap\"",
        "\"cat\":\"fault\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  // Metrics: counters for the crash, the recovery and the replayed steps.
  std::ostringstream jsonl;
  sim.metrics().write_jsonl(jsonl);
  const std::string metrics = jsonl.str();
  for (const char* needle : {"resil_crashes", "resil_recoveries", "resil_replayed_steps",
                             "checkpoints", "cluster_failed_rank"}) {
    EXPECT_NE(metrics.find(needle), std::string::npos) << needle;
  }
  // Recovery happens between step brackets, so the *_total gauges (not the
  // per-step counter deltas) carry the actual values in the records.
  for (const char* needle :
       {"\"resil_crashes_total\":1", "\"resil_recoveries_total\":1",
        "\"resil_replayed_steps_total\":8"}) {
    EXPECT_NE(metrics.find(needle), std::string::npos) << needle;
  }
  std::remove(path.c_str());
}

TEST(ResilSmoke, NoFaultPlanRunsStraightThrough) {
  const std::string path = per_process("resil_smoke_clean");
  typename ResilientRunner<2>::Config cfg = crash_config(path);
  cfg.plan.crashes.clear();
  cfg.total_steps = 12;

  ResilientRunner<2> runner(build_lwfa, cfg);
  const auto rep = runner.run();
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.crashes, 0);
  EXPECT_EQ(rep.steps_run, 12);
  EXPECT_EQ(rep.replayed_steps, 0);
  EXPECT_EQ(rep.final_nranks, 4);
  EXPECT_EQ(rep.checkpoints_written, 2); // step 0 + the periodic fire at 10
  std::remove(path.c_str());
}

} // namespace
} // namespace mrpic::resil
