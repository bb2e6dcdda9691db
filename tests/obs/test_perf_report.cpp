#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/health/monitor.hpp"
#include "src/obs/bench_diff.hpp"
#include "src/obs/json.hpp"
#include "src/obs/perf_report.hpp"
#include "src/obs/profiler.hpp"
#include "src/obs/rank_recorder_io.hpp"
#include "src/scenario/builder.hpp"
#include "src/scenario/driver.hpp"
#include "src/scenario/registry.hpp"

namespace mrpic::obs {
namespace {

// Two ranks, two steps, one inter-rank message per step, plus a rebalance
// and a fault event so every array of the document is exercised.
RankRecorder make_recorder() {
  RankRecorder rec(2);
  for (std::int64_t s = 0; s < 2; ++s) {
    RankStepBreakdown bd;
    bd.step = s;
    bd.ranks.resize(2);
    for (int r = 0; r < 2; ++r) {
      bd.ranks[r].rank = r;
      bd.ranks[r].compute_s = r == 0 ? 3e-3 : 1e-3;
      bd.ranks[r].comm_s = 0.5e-3;
      bd.ranks[r].bytes_sent = r == 0 ? 1024 : 0;
      bd.ranks[r].bytes_recv = r == 0 ? 0 : 1024;
      bd.ranks[r].messages = 1;
      bd.ranks[r].boxes = 2;
    }
    // Retry time is part of comm_s by construction (SimCluster charges the
    // protocol overhead into the rank's halo time), so rank 1 is the
    // comm-critical rank and the resil term is attributed to it.
    bd.ranks[1].retry_s = 1e-5;
    bd.ranks[1].comm_s += 1e-5;
    bd.ranks[1].retries = 1;
    HaloMessage msg;
    msg.src_rank = 0;
    msg.dst_rank = 1;
    msg.src_box = 0;
    msg.dst_box = 2;
    msg.bytes = 1024;
    msg.latency_s = 2e-6;
    msg.transfer_s = 1e-7;
    msg.attempts = 2;
    msg.retry_s = 1e-5;
    rec.set_step(s);
    rec.add_step(bd, {msg});
  }
  RebalanceRecord rb;
  rb.step = 1;
  rb.rank_cost_before = {4.0, 1.0};
  rb.rank_cost_after = {2.5, 2.5};
  rb.imbalance_before = 1.6;
  rb.imbalance_after = 1.0;
  rec.add_rebalance(rb);
  FaultEvent ev;
  ev.step = 1;
  ev.kind = "slowdown";
  ev.rank = 1;
  ev.time_s = 1e-4;
  ev.detail = "rank 1 of 2";
  rec.add_fault_event(ev);
  return rec;
}

TEST(RankRecorderIo, RoundTripIsLossless) {
  const auto rec = make_recorder();
  std::ostringstream os;
  write_recorder_json(rec, os);
  const auto back = read_recorder_json(os.str());

  EXPECT_EQ(back.nranks(), rec.nranks());
  ASSERT_EQ(back.steps().size(), rec.steps().size());
  for (std::size_t s = 0; s < rec.steps().size(); ++s) {
    const auto& a = rec.steps()[s];
    const auto& b = back.steps()[s];
    EXPECT_EQ(a.step, b.step);
    ASSERT_EQ(a.ranks.size(), b.ranks.size());
    for (std::size_t r = 0; r < a.ranks.size(); ++r) {
      EXPECT_EQ(a.ranks[r].rank, b.ranks[r].rank);
      EXPECT_DOUBLE_EQ(a.ranks[r].compute_s, b.ranks[r].compute_s);
      EXPECT_DOUBLE_EQ(a.ranks[r].comm_s, b.ranks[r].comm_s);
      EXPECT_DOUBLE_EQ(a.ranks[r].retry_s, b.ranks[r].retry_s);
      EXPECT_EQ(a.ranks[r].bytes_sent, b.ranks[r].bytes_sent);
      EXPECT_EQ(a.ranks[r].bytes_recv, b.ranks[r].bytes_recv);
      EXPECT_EQ(a.ranks[r].messages, b.ranks[r].messages);
      EXPECT_EQ(a.ranks[r].retries, b.ranks[r].retries);
      EXPECT_EQ(a.ranks[r].boxes, b.ranks[r].boxes);
    }
  }
  ASSERT_EQ(back.messages().size(), rec.messages().size());
  for (std::size_t i = 0; i < rec.messages().size(); ++i) {
    const auto& a = rec.messages()[i];
    const auto& b = back.messages()[i];
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.src_rank, b.src_rank);
    EXPECT_EQ(a.dst_rank, b.dst_rank);
    EXPECT_EQ(a.src_box, b.src_box);
    EXPECT_EQ(a.dst_box, b.dst_box);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_DOUBLE_EQ(a.latency_s, b.latency_s);
    EXPECT_DOUBLE_EQ(a.transfer_s, b.transfer_s);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_DOUBLE_EQ(a.retry_s, b.retry_s);
  }
  ASSERT_EQ(back.rebalances().size(), 1u);
  EXPECT_EQ(back.rebalances()[0].step, 1);
  EXPECT_DOUBLE_EQ(back.rebalances()[0].imbalance_before, 1.6);
  ASSERT_EQ(back.rebalances()[0].rank_cost_before.size(), 2u);
  ASSERT_EQ(back.fault_events().size(), 1u);
  EXPECT_EQ(back.fault_events()[0].kind, "slowdown");
  EXPECT_EQ(back.fault_events()[0].detail, "rank 1 of 2");
}

TEST(RankRecorderIo, RejectsForeignDocuments) {
  EXPECT_THROW(read_recorder_json(std::string("{\"bench\":\"kernels\"}")),
               std::runtime_error);
  EXPECT_THROW(read_recorder_json(
                   std::string("{\"format\":\"mrpic-ranks\",\"version\":99}")),
               std::runtime_error);
  EXPECT_THROW(read_recorder_json(std::string("not json")), std::runtime_error);
}

TEST(PerfReport, BuildExtractsPathsAndOverheads) {
  PerfReportOptions opt;
  opt.title = "unit";
  opt.latency_s = 2e-6;
  const auto report = build_perf_report(make_recorder(), opt);
  EXPECT_EQ(report.nranks, 2);
  ASSERT_EQ(report.paths.size(), 2u);
  ASSERT_EQ(report.step_overhead.size(), 2u);
  EXPECT_EQ(report.summary.steps, 2);
  for (const auto& t : report.step_overhead) {
    EXPECT_NEAR(t.invariant_gap(), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(t.residual, 0.0);
    EXPECT_GT(t.resil, 0.0); // the injected retry shows up
  }
  // Worst-step order is by descending makespan.
  const auto order = report.worst_steps();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_GE(report.paths[std::size_t(order[0])].makespan_s,
            report.paths[std::size_t(order[1])].makespan_s);
}

TEST(PerfReport, JsonValidatesAgainstAttributionSchema) {
  const auto report = build_perf_report(make_recorder());
  std::ostringstream os;
  write_json(report, os);
  const auto doc = json::parse(os.str());
  EXPECT_EQ(doc["bench"].as_string(), "attribution");
  const auto errors = benchdiff::validate_schema(doc);
  for (const auto& e : errors) { ADD_FAILURE() << e; }
  // Loss records carry the invariant gap for the regression gate.
  ASSERT_TRUE(doc["loss"].is_array());
  for (const auto& rec : doc["loss"].as_array()) {
    EXPECT_LT(std::abs(rec["invariant_gap"].as_number()), 1e-9);
  }
  ASSERT_TRUE(doc["critical_path"].is_array());
  EXPECT_TRUE(doc["critical_path"].as_array()[0]["rank_chain"].is_array());
  EXPECT_TRUE(doc["stragglers"].is_array());
}

TEST(PerfReport, MarkdownNamesChainAndComposition) {
  PerfReportOptions opt;
  opt.title = "md unit";
  const auto report = build_perf_report(make_recorder(), opt);
  std::ostringstream os;
  write_markdown(report, os);
  const std::string md = os.str();
  EXPECT_NE(md.find("# md unit"), std::string::npos);
  EXPECT_NE(md.find("Critical-path composition"), std::string::npos);
  EXPECT_NE(md.find("Straggler ranks"), std::string::npos);
  EXPECT_NE(md.find("0 -> 1"), std::string::npos); // the rank chain
  EXPECT_NE(md.find("Per-step parallel overhead"), std::string::npos);
}

// The Markdown text between `heading` and the next "## " heading.
std::string md_section(const std::string& md, const std::string& heading) {
  const auto at = md.find(heading);
  if (at == std::string::npos) { return ""; }
  const auto end = md.find("\n## ", at + 1);
  return md.substr(at, end == std::string::npos ? std::string::npos : end - at);
}

TEST(PerfReport, IdenticalStepsCollapseIntoOneRangeRow) {
  RankRecorder rec(2);
  for (std::int64_t s = 0; s < 10; ++s) {
    RankStepBreakdown bd;
    bd.step = s;
    bd.ranks.resize(2);
    for (int r = 0; r < 2; ++r) {
      bd.ranks[r].rank = r;
      bd.ranks[r].compute_s = r == 0 ? 3e-3 : 1e-3;
      bd.ranks[r].comm_s = 0.5e-3;
    }
    rec.set_step(s);
    rec.add_step(bd, {});
  }
  const auto report = build_perf_report(rec);
  std::ostringstream md, js;
  write_markdown(report, md);
  const auto table = md_section(md.str(), "## Per-step parallel overhead");
  ASSERT_FALSE(table.empty()) << md.str();
  EXPECT_NE(table.find("modeled cluster clock"), std::string::npos);
  int data_rows = 0;
  std::istringstream lines(table);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("| ", 0) == 0 && line.rfind("| step", 0) != 0) { ++data_rows; }
  }
  EXPECT_EQ(data_rows, 1) << table;
  EXPECT_NE(table.find("| 0–9 |"), std::string::npos) << table;
  // The JSON keeps one loss record per step.
  write_json(report, js);
  EXPECT_EQ(json::parse(js.str())["loss"].as_array().size(), 10u);
}

TEST(PerfReport, StepAnatomyLeadsAndItsRowsSumToTheStep) {
  Profiler prof;
  const auto spin = [] {
    volatile double x = 0;
    for (int i = 0; i < 20000; ++i) { x = x + 1e-3 * i; }
  };
  for (int step = 0; step < 3; ++step) {
    auto t = prof.scope("step");
    spin();
    { auto p = prof.scope("particles"); spin(); }
    { auto h = prof.scope("health"); spin(); }
    { auto p = prof.scope("particles"); spin(); }
  }
  auto report = build_perf_report(make_recorder());
  report.sections.push_back(step_anatomy_section(prof));
  std::ostringstream md, js;
  write_markdown(report, md);
  const auto first_heading = md.str().find("\n## ");
  ASSERT_NE(first_heading, std::string::npos);
  EXPECT_EQ(md.str().compare(first_heading + 1, 16, "## Step anatomy\n"), 0) << md.str();

  write_json(report, js);
  const auto doc = json::parse(js.str());
  EXPECT_TRUE(benchdiff::validate_schema(doc).empty());
  const auto& a = doc["anatomy"];
  EXPECT_EQ(a["steps"].as_int(), 3);
  const double step_s = a["step_s"].as_number();
  ASSERT_GT(step_s, 0.0);
  double sum = 0, share = 0;
  std::vector<std::string> regions;
  for (const auto& row : a["regions"].as_array()) {
    regions.push_back(row["region"].as_string());
    sum += row["total_s"].as_number();
    share += row["share"].as_number();
    EXPECT_NEAR(row["ms_per_step"].as_number(), 1e3 * row["total_s"].as_number() / 3, 1e-9);
  }
  EXPECT_EQ(regions, (std::vector<std::string>{"particles", "health", "other"}));
  EXPECT_NEAR(sum, step_s, 1e-12 * step_s);
  EXPECT_NEAR(share, 1.0, 1e-12);
  // The one region-share query the benches use agrees with the rows.
  const auto b = prof.breakdown("step");
  EXPECT_NEAR(b.share("health") * step_s, a["regions"].as_array()[1]["total_s"].as_number(),
              1e-15);
  EXPECT_EQ(b.share("kernel_obs"), 0.0);
}

TEST(PerfReport, ScalingLossesReplaceStepOverheadInJson) {
  auto report = build_perf_report(make_recorder());
  analysis::LossTerms t;
  t.nodes = 64;
  t.total_s = 2.0;
  t.ideal_s = 1.0;
  t.efficiency = 0.5;
  t.loss = 0.5;
  t.imbalance = 0.5;
  report.scaling_losses.push_back(t);
  std::ostringstream os;
  write_json(report, os);
  const auto doc = json::parse(os.str());
  ASSERT_EQ(doc["loss"].as_array().size(), 1u);
  EXPECT_DOUBLE_EQ(doc["loss"].as_array()[0]["nodes"].as_number(), 64.0);
  EXPECT_TRUE(benchdiff::validate_schema(doc).empty());
}

// Energy drift of a laser-driven run: only samples taken once every antenna
// is off count, since before that the antenna is still adding energy.
TEST(PerfReport, HealthDriftStartsWhenTheLaserAntennaIsOff) {
  health::MonitorConfig cfg;
  cfg.log_to_stderr = false;
  health::HealthMonitor mon(cfg);
  const auto sample = [&](std::int64_t step, double t, double energy) {
    health::LedgerSample s;
    s.step = step;
    s.time = t;
    s.field_energy_J = energy;
    mon.record(s);
  };
  sample(0, 1.0, 1e-3);  // pulse still entering the box
  sample(1, 2.0, 10.0);  // first sample at the cutoff
  sample(2, 3.0, 10.5);

  // No laser: drift over the whole ledger, as before.
  const Section plain = health_section(mon);
  EXPECT_NEAR(plain.number("energy_drift"), (10.5 - 1e-3) / 1e-3, 1e-6);
  EXPECT_TRUE(std::isnan(plain.number("energy_drift_from_s")));

  const Section driven = health_section(mon, 2.0);
  EXPECT_DOUBLE_EQ(driven.number("energy_drift"), 0.05);
  EXPECT_DOUBLE_EQ(driven.number("energy_drift_from_s"), 2.0);
  for (const auto& f : driven.fields) { EXPECT_NE(f.key, "energy_drift_note"); }

  // Every sample precedes the cutoff: n/a, and the section says why.
  const Section early = health_section(mon, 5.0);
  EXPECT_TRUE(std::isnan(early.number("energy_drift")));
  bool noted = false;
  for (const auto& f : early.fields) {
    if (f.key == "energy_drift_note") {
      noted = std::get<std::string>(f.value) == "laser antenna still emitting";
    }
  }
  EXPECT_TRUE(noted);
}

// A 12-step lwfa_mr run ends before its antenna stops, so the report gives
// no drift instead of one dominated by the injected pulse.
TEST(PerfReport, ShortLwfaMrRunReportsNoEnergyDrift) {
  auto sim = scenario::build_simulation(scenario::ScenarioRegistry::instance().make("lwfa_mr"));
  health::MonitorConfig hcfg;
  hcfg.log_to_stderr = false;
  sim->enable_health(hcfg);
  sim->run(12);
  scenario::RunOptions opt;
  opt.health = true;
  const auto report = scenario::assemble_perf_report(*sim, opt, "lwfa_mr");
  const Section* h = report.section("health");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->number("samples"), 12);
  EXPECT_TRUE(std::isnan(h->number("energy_drift")));
  EXPECT_GT(h->number("energy_drift_from_s"), sim->time());
  std::ostringstream md;
  write_markdown(report, md);
  EXPECT_NE(md.str().find("laser antenna still emitting"), std::string::npos);
}

} // namespace
} // namespace mrpic::obs
