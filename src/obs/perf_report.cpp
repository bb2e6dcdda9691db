#include "src/obs/perf_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <numeric>
#include <ostream>
#include <type_traits>

#include "src/health/monitor.hpp"
#include "src/insitu/registry.hpp"
#include "src/obs/durable_file.hpp"
#include "src/obs/json.hpp"
#include "src/obs/profiler.hpp"

namespace mrpic::obs {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::string fmt_us(double seconds) { return fmt_value(seconds * 1e6, "%.3f") + " us"; }
std::string fmt_pct(double fraction) { return fmt_value(fraction * 100.0, "%.2f") + "%"; }

// Long rank chains (dense halo graphs route the path through many ranks)
// show head ... tail plus the hop count; the JSON keeps the full chain.
std::string chain_string(const std::vector<std::int64_t>& ranks) {
  constexpr std::size_t kHead = 6, kTail = 3;
  std::string s;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (ranks.size() > kHead + kTail + 1 && i == kHead) {
      s += " -> ...";
      i = ranks.size() - kTail;
    }
    s += (s.empty() ? "" : " -> ") + std::to_string(ranks[i]);
  }
  if (ranks.size() > kHead + kTail + 1) { s += " (" + std::to_string(ranks.size()) + " hops)"; }
  return s.empty() ? "-" : s;
}

// --- the one section model's two walks ------------------------------------

std::string cell(const Field& f) {
  if (const auto* s = std::get_if<std::string>(&f.value)) { return s->empty() ? "-" : *s; }
  if (const auto* b = std::get_if<bool>(&f.value)) { return *b ? "yes" : "no"; }
  if (const auto* l = std::get_if<std::vector<std::int64_t>>(&f.value)) { return chain_string(*l); }
  const double v = f.number();
  if (!std::isfinite(v)) { return "n/a"; }
  if (f.unit == "B") { return format_bytes(v); }
  if (f.unit == "%") { return fmt_pct(v); }
  if (f.unit == "us") { return fmt_us(v); }
  const std::string unit = f.unit.empty() ? "" : " " + f.unit;
  if (const auto* i = std::get_if<std::int64_t>(&f.value)) { return std::to_string(*i) + unit; }
  return fmt_value(v) + unit;
}

// Consecutive integer labels (steps) whose other cells match share one
// "a–b" row: 200 identical steps print one row, not 200.
void write_table(std::ostream& os, const Table& t) {
  std::string head = "|", rule = "|";
  std::vector<std::pair<const Field*, std::string>> rows;  // label field, other cells
  for (const auto& row : t.rows) {
    rows.emplace_back(nullptr, "");
    for (const auto& f : row) {
      if (f.label.empty()) { continue; }
      if (rows.size() == 1) {
        head.append(" ").append(f.label).append(" |");
        rule += rule.size() == 1 ? "---|" : "---:|";
      }
      if (rows.back().first == nullptr) {
        rows.back().first = &f;
      } else {
        rows.back().second.append(" ").append(cell(f)).append(" |");
      }
    }
  }
  if (rows.empty() || rows.front().first == nullptr) { return; }
  const auto next_step = [](const Field* a, const Field* b) {
    const auto* x = std::get_if<std::int64_t>(&a->value);
    const auto* y = std::get_if<std::int64_t>(&b->value);
    return x != nullptr && y != nullptr && *y == *x + 1;
  };
  os << head << "\n" << rule << "\n";
  for (std::size_t i = 0, j = 0; i < rows.size(); i = j) {
    for (j = i + 1; j < rows.size() && rows[j].second == rows[i].second &&
                    next_step(rows[j - 1].first, rows[j].first);
         ++j) {}
    os << "| " << cell(*rows[i].first) << (j - i > 1 ? "–" + cell(*rows[j - 1].first) : "")
       << " |" << rows[i].second << "\n";
  }
  os << "\n";
}

void write_section(std::ostream& os, const Section& s, int depth) {
  os << std::string(std::size_t(depth), '#') << ' ' << s.heading << "\n\n";
  if (!s.note.empty()) { os << s.note << "\n\n"; }
  Table fields{"", {}};
  for (const auto& f : s.fields) {
    if (f.label.empty()) { continue; }
    fields.rows.push_back({{"", "field", f.label}, {"", "value", cell(f)}});
  }
  write_table(os, fields);
  for (const auto& t : s.tables) { write_table(os, t); }
  for (const auto& sub : s.subsections) { write_section(os, sub, depth + 1); }
}

void write_field(json::Writer& w, const Field& f) {
  if (f.key.empty()) { return; }
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, double>) {
          w.field(f.key, v == 0 ? 0.0 : v);  // no -0 in the document
        } else if constexpr (std::is_same_v<T, std::vector<std::int64_t>>) {
          w.begin_array(f.key);
          for (auto x : v) { w.value(x); }
          w.end_array();
        } else {
          w.field(f.key, v);
        }
      },
      f.value);
}

void write_table(json::Writer& w, const Table& t) {
  w.begin_array(t.key);
  for (const auto& row : t.rows) {
    w.begin_object();
    for (const auto& f : row) { write_field(w, f); }
    w.end_object();
  }
  w.end_array();
}

void write_section(json::Writer& w, const Section& s) {
  if (!s.key.empty()) { w.begin_object(s.key); }
  for (const auto& f : s.fields) { write_field(w, f); }
  for (const auto& t : s.tables) { write_table(w, t); }
  for (const auto& sub : s.subsections) { write_section(w, sub); }
  if (!s.key.empty()) { w.end_object(); }
}

// --- the attribution core as tables -----------------------------------------

Table critical_path_table(const PerfReport& r, const std::vector<int>& steps) {
  Table t{"critical_path", {}};
  for (int i : steps) {
    const auto& p = r.paths[std::size_t(i)];
    const std::vector<std::int64_t> chain(p.rank_chain.begin(), p.rank_chain.end());
    t.rows.push_back({{"step", "step", p.step},
                      {"makespan_s", "makespan", p.makespan_s},
                      {"modeled_total_s", "", p.modeled_total_s},
                      {"compute_s", "compute", p.compute_s},
                      {"transfer_s", "transfer", p.transfer_s},
                      {"latency_s", "latency", p.latency_s}, {"retry_s", "resil", p.retry_s},
                      {"critical_rank", "", std::int64_t(chain.empty() ? -1 : chain.back())},
                      {"rank_chain", "rank chain", chain}});
  }
  return t;
}

Table loss_table(const PerfReport& r) {
  const bool sweep = !r.scaling_losses.empty();
  const auto& losses = sweep ? r.scaling_losses : r.step_overhead;
  Table t{"loss", {}};
  for (std::size_t i = 0; i < losses.size(); ++i) {
    const auto& l = losses[i];
    const auto step = i < r.paths.size() ? r.paths[i].step : std::int64_t(i);
    t.rows.push_back({{"", sweep ? "nodes" : "step", sweep ? std::int64_t(l.nodes) : step},
                      {"nodes", "", l.nodes}, {"total_s", "", l.total_s},
                      {"ideal_s", "", l.ideal_s}, {"efficiency", "efficiency", l.efficiency, "%"},
                      {"loss", "loss", l.loss, "%"}, {"imbalance", "imbalance", l.imbalance, "%"},
                      {"comm", "comm", l.comm, "%"}, {"latency", "latency", l.latency, "%"},
                      {"resil", "resil", l.resil, "%"}, {"residual", "residual", l.residual, "%"},
                      {"lambda", "", l.lambda}, {"invariant_gap", "gap", l.invariant_gap()},
                      {"compute_critical_rank", "", std::int64_t(l.compute_critical_rank)},
                      {"comm_critical_rank", "", std::int64_t(l.comm_critical_rank)}});
  }
  return t;
}

} // namespace

std::string fmt_value(double v, const char* printf_fmt) {
  if (!std::isfinite(v)) { return "n/a"; }
  char buf[64];
  std::snprintf(buf, sizeof(buf), printf_fmt, v == 0 ? 0.0 : v);
  // A tiny negative value can still round to "-0", "-0.00", ...
  if (buf[0] == '-' && std::strspn(buf + 1, "0.") == std::strlen(buf + 1)) { return buf + 1; }
  return buf;
}

double Field::number() const {
  if (const auto* d = std::get_if<double>(&value)) { return *d; }
  if (const auto* i = std::get_if<std::int64_t>(&value)) { return double(*i); }
  if (const auto* b = std::get_if<bool>(&value)) { return *b ? 1.0 : 0.0; }
  return kNaN;
}

Section& Section::add(std::string key, std::string label, Field::Value v, std::string unit) {
  fields.push_back({std::move(key), std::move(label), std::move(v), std::move(unit)});
  return *this;
}

double Section::number(std::string_view key) const {
  for (const auto& f : fields) {
    if (f.key == key) { return f.number(); }
  }
  return kNaN;
}

std::vector<int> PerfReport::worst_steps() const {
  std::vector<int> order(paths.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return paths[std::size_t(a)].makespan_s > paths[std::size_t(b)].makespan_s;
  });
  return order;
}

const Section* PerfReport::section(std::string_view key) const {
  for (const auto& s : sections) {
    if (s.key == key) { return &s; }
  }
  return nullptr;
}

// --- section builders -------------------------------------------------------

Section step_anatomy_section(const Profiler& prof) {
  const auto step = prof.breakdown("step");
  const double total = step.total.inclusive_s;
  const auto steps = step.total.count;
  const auto per_step_ms = [steps](double s) { return steps > 0 ? 1e3 * s / double(steps) : kNaN; };
  Section a{"anatomy", "step anatomy", "Step anatomy"};
  a.first = true;
  a.note = "Measured wall time of the profiler's `step` region, split into its direct "
           "sub-regions (stages and probes alike); `other` is the step's own time outside "
           "them, so the rows sum to the step total.";
  a.add("step_s", "step total", total, "s")
      .add("steps", "steps", steps)
      .add("ms_per_step", "mean step", per_step_ms(total), "ms");
  Table t{"regions", {}};
  const auto row = [&](const std::string& region, double s) {
    t.rows.push_back({{"region", "region", region},
                      {"total_s", "total", s, "s"},
                      {"ms_per_step", "per step", per_step_ms(s), "ms"},
                      {"share", "share", total > 0 ? s / total : 0.0, "%"}});
  };
  for (const auto& [region, s] : step.parts) { row(region, s.inclusive_s); }
  row("other", step.total.exclusive_s);
  a.tables.push_back(std::move(t));
  return a;
}

Section health_section(const health::HealthMonitor& mon,
                       std::optional<double> sources_off_s) {
  const auto history = mon.snapshot_history();
  const auto alerts = mon.snapshot_alerts();
  const auto critical = std::count_if(alerts.begin(), alerts.end(), [](const auto& a) {
    return a.severity == health::Severity::Critical;
  });
  double drift = kNaN, gauss = kNaN, continuity = kNaN;
  std::int64_t nan_cells = 0;
  // Samples are in time order: the drift window starts at the first one
  // taken once every source is off.
  const auto window = sources_off_s
                          ? std::find_if(history.begin(), history.end(),
                                         [&](const auto& s) { return s.time >= *sources_off_s; })
                          : history.begin();
  if (history.end() - window >= 2) {
    const double e0 = window->total_energy_J();
    drift = (history.back().total_energy_J() - e0) / std::max(std::abs(e0), 1e-300);
  }
  const auto acc_max = [](double& dst, double v) {
    if (std::isfinite(v) && (!std::isfinite(dst) || v > dst)) { dst = v; }
  };
  for (const auto& s : history) {
    acc_max(gauss, s.gauss_residual);
    acc_max(gauss, s.gauss_residual_fine);
    acc_max(continuity, s.continuity_residual);
    acc_max(continuity, s.continuity_residual_fine);
    nan_cells = std::max(nan_cells, std::int64_t(s.nan_cells));
  }
  Section h{"health", "health", "Simulation health"};
  h.add("samples", "ledger samples", std::int64_t(history.size()))
      .add("alerts", "alerts", std::int64_t(alerts.size()))
      .add("critical_alerts", "critical alerts", std::int64_t(critical))
      .add("energy_drift", "relative energy drift", drift);
  if (sources_off_s) {
    h.add("energy_drift_from_s", "energy drift from (laser antenna off)", *sources_off_s, "s");
    if (window == history.end()) {
      h.add("energy_drift_note", "energy drift", std::string("laser antenna still emitting"));
    }
  }
  h.add("max_gauss_residual", "max Gauss residual", gauss)
      .add("max_continuity_residual", "max continuity residual (normalized)", continuity)
      .add("nan_cells", "worst NaN scan (cells)", nan_cells)
      .add("last_alert", "last alert", alerts.empty() ? std::string() : alerts.back().message);
  return h;
}

Section beam_section(const insitu::Registry& reg, const insitu::StreamWriter* stream) {
  const auto latest = [&reg](const char* diag, const char* key) {
    const auto* r = reg.last(diag);
    return r != nullptr ? r->value(key) : kNaN;
  };
  Section b{"beam_physics", "beam physics", "Beam physics"};
  b.add("records", "in-situ records", reg.num_records())
      .add("emit_ny", "normalized emittance (y)", latest("beam", "emit_ny_m_rad"), "m rad")
      .add("beam_charge_C", "beam charge", latest("beam", "charge_C"), "C")
      .add("mean_gamma", "mean gamma", latest("beam", "mean_gamma"))
      .add("peak_energy_J", "spectral peak energy", latest("spectrum", "peak_energy_J"), "J")
      .add("energy_spread", "relative FWHM spread", latest("spectrum", "energy_spread"))
      .add("laser_a0", "laser a0", latest("laser", "a0"))
      .add("wakefield_V_m", "wakefield amplitude", latest("wakefield", "max_Ex_V_m"), "V/m")
      .add("field_energy_J", "level-0 field energy", latest("field_energy", "level0_total_J"),
           "J")
      .add("stream_frames", "streamed frames",
           stream != nullptr ? stream->frames_written() : std::int64_t(0))
      .add("stream_bytes", "streamed bytes",
           stream != nullptr ? stream->bytes_written() : std::int64_t(0), "B");
  return b;
}

Section memory_section(const MemoryLedger& ledger, const MrSavings* measured,
                       const MrSavings* analytic, const RankRecorder* rec,
                       double budget_bytes) {
  Section m{"memory", "memory", "Memory"};
  m.add("total_bytes", "live footprint", ledger.total_current(), "B")
      .add("high_water_bytes", "high water", ledger.total_high_water(), "B")
      .add("fields_bytes", "level-0 fields", ledger.current_prefix("fields"), "B")
      .add("particles_bytes", "particles", ledger.current_prefix("particles"), "B")
      .add("mr_bytes", "MR patch surcharge", ledger.current_prefix("mr"), "B")
      .add("pml_bytes", "level-0 PML", ledger.current_prefix("pml"), "B")
      .add("checkpoint_hw_bytes", "checkpoint staging (high water)",
           ledger.high_water("checkpoint"), "B")
      .add("insitu_stream_bytes", "in-situ stream buffers", ledger.current("insitu.stream"),
           "B")
      .add("alloc_count", "allocations", ledger.total_alloc_count());
  if (measured != nullptr && analytic != nullptr) {
    m.add("mr_savings_measured", "MR savings vs uniform fine grid, measured",
          measured->factor, "x")
        .add("mr_savings_analytic", "MR savings, analytic model", analytic->factor, "x")
        .add("mr_savings_disagreement", "measured vs analytic disagreement",
             analytic->factor > 0
                 ? std::abs(measured->factor - analytic->factor) / analytic->factor
                 : kNaN,
             "%")
        .add("mr_actual_bytes", "MR run footprint", measured->actual_bytes, "B")
        .add("mr_uniform_fine_bytes", "uniform fine-grid footprint",
             measured->uniform_fine_bytes, "B");
  }
  if (rec != nullptr) {
    const auto oom = predict_first_oom(*rec, budget_bytes);
    const bool budget = budget_bytes > 0;  // without one, the OOM fields are JSON only
    if (oom.peak_bytes > 0) {
      m.add("rank_peak_bytes", "per-rank resident peak", oom.peak_bytes, "B")
          .add("rank_peak_rank", "peak rank", std::int64_t(oom.peak_rank))
          .add("rank_peak_step", "peak step", oom.peak_step)
          .add("budget_bytes", budget ? "per-rank budget" : "", std::max(budget_bytes, 0.0), "B")
          .add("oom_predicted", budget ? "OOM predicted" : "", oom.predicted)
          .add("oom_headroom", budget ? "budget / peak" : "", oom.headroom, "x");
      if (oom.predicted) {
        m.add("oom_rank", "first OOM rank", std::int64_t(oom.rank))
            .add("oom_step", "first OOM step", oom.step);
      }
    }
  }
  return m;
}

Section kernel_section(const KernelProbe& probe, const RankRecorder* rec) {
  const std::string& machine = probe.machine().name;
  Section k{"kernel_headroom", "kernel headroom", "Kernel headroom (" + machine + ")"};

  // Per-kind aggregate placed on the machine roofline (zero-invocation
  // kinds are skipped).
  Table kernels{"kernels", {}};
  std::int64_t sampled = 0;
  const auto aggs = probe.aggregates();
  for (int i = 0; i < kNumKernelKinds; ++i) {
    const auto& agg = aggs[std::size_t(i)];
    sampled += agg.invocations;
    if (agg.invocations == 0) { continue; }
    const auto rp = analysis::roofline_point(kernel_kind_name(static_cast<KernelKind>(i)),
                                             agg.flops, agg.bytes, probe.machine(), agg.time_s);
    kernels.rows.push_back(
        {{"kernel", "kernel", rp.kernel}, {"invocations", "invocations", agg.invocations},
         {"particles", "particles", agg.particles}, {"time_s", "time", agg.time_s, "us"},
         {"flops", "", agg.flops}, {"bytes", "", agg.bytes}, {"gbyte_s", "GB/s", agg.gbyte_s()},
         {"intensity", "intensity", rp.intensity}, {"roof_tflops", "roof TFlop/s", rp.roof_tflops},
         {"attained_tflops", "", rp.attained_tflops},
         {"memory_bound", "memory bound", rp.memory_bound},
         {"attainment", "attainment", rp.attainment, "%"}});
  }
  k.add("machine", "roofline machine", machine)
      .add("sampled_invocations", "sampled kernel invocations", sampled)
      .add("dropped_invocations", "dropped at capacity", probe.dropped_invocations())
      .add("probe_self_s", "probe self time (inside particles)", probe.self_time_s(), "s");
  k.tables.push_back(std::move(kernels));

  const auto& l = probe.locality();
  Section loc{"locality", "", "Particle access locality"};
  loc.add("tiles", "tile samples", probe.locality_tiles())
      .add("particles", "particles", l.particles)
      .add("pairs", "", l.pairs)
      .add("inversion_fraction", "inversion fraction", l.inversion_fraction)
      .add("mean_stride_cells", "mean gather stride", l.mean_stride_cells, "cells")
      .add("p99_stride_cells", "p99 gather stride", l.p99_stride_cells, "cells")
      .add("line_reuse", "cache-line reuse", l.line_reuse, "%")
      .add("sorted_line_reuse", "cache-line reuse if cell-sorted", l.sorted_line_reuse, "%")
      .add("predicted_sort_speedup", "predicted sort speedup", l.predicted_sort_speedup,
           "x");
  k.subsections.push_back(std::move(loc));

  // Mean per-step phase split of the step-critical rank over the recorder
  // steps that carry phase data.
  double post = 0, wait = 0, interior = 0, headroom = 0;
  std::int64_t steps = 0;
  if (rec != nullptr) {
    for (const auto& step : rec->steps()) {
      if (step.ranks.empty()) { continue; }
      const auto critical = std::max_element(
          step.ranks.begin(), step.ranks.end(),
          [](const auto& a, const auto& b) { return a.total_s() < b.total_s(); });
      if (critical->post_s + critical->wait_s <= 0) { continue; }
      post += critical->post_s;
      wait += critical->wait_s;
      interior += critical->interior_compute_s;
      headroom += critical->overlap_headroom_s;
      ++steps;
    }
  }
  const double n = steps > 0 ? double(steps) : 1.0;
  Section ov{"overlap", "", "Halo overlap headroom (critical rank, modeled cluster clock)"};
  ov.note = "Mean per step; the headroom is recoverable by overlapping interior work "
            "with halo waits.";
  ov.add("steps", "steps with phase data", steps)
      .add("mean_post_s", "post", post / n, "us")
      .add("mean_wait_s", "wait", wait / n, "us")
      .add("mean_interior_compute_s", "interior compute", interior / n, "us")
      .add("mean_overlap_headroom_s", "overlap headroom", headroom / n, "us");
  k.subsections.push_back(std::move(ov));
  return k;
}

Section roofline_section(const std::string& machine,
                         const std::vector<analysis::KernelRoofline>& kernels) {
  Section r{"", "roofline", "Roofline attribution (" + machine + ")"};
  r.add("machine", "", machine);
  Table t{"roofline", {}};
  for (const auto& k : kernels) {
    t.rows.push_back(
        {{"kernel", "kernel", k.kernel}, {"flops", "flops", k.flops}, {"bytes", "bytes", k.bytes},
         {"intensity", "intensity", k.intensity}, {"peak_tflops", "", k.peak_tflops},
         {"peak_tbyte_s", "", k.peak_tbyte_s}, {"roof_tflops", "roof TFlop/s", k.roof_tflops},
         {"memory_bound", "memory bound", k.memory_bound}, {"time_s", "", k.time_s},
         {"attained_tflops", "", k.attained_tflops}, {"attainment", "", k.attainment}});
  }
  r.tables.push_back(std::move(t));
  return r;
}

// --- the attribution core -----------------------------------------------------

PerfReport build_perf_report(const RankRecorder& rec, const PerfReportOptions& opt) {
  PerfReport report;
  report.title = opt.title;
  report.nranks = rec.nranks();
  report.latency_s = opt.latency_s;
  report.top_steps = opt.top_steps;
  report.paths = analysis::critical_paths(rec);
  report.summary = analysis::summarize(report.paths, rec.nranks());
  report.step_overhead.reserve(rec.steps().size());
  for (const auto& step : rec.steps()) {
    report.step_overhead.push_back(analysis::decompose_step_overhead(step, opt.latency_s));
  }
  return report;
}

void write_markdown(const PerfReport& report, std::ostream& os) {
  os << "# " << report.title << "\n\n";
  for (const auto& sec : report.sections) {
    if (sec.first) { write_section(os, sec, 2); }
  }
  os << "Attribution over " << report.nranks << " ranks, " << report.summary.steps
     << " recorded steps on the modeled cluster clock, wire latency "
     << fmt_us(report.latency_s) << ".\n\n";

  const auto& s = report.summary;
  os << "## Critical-path composition (all steps, modeled cluster clock)\n\n";
  Table composition{"", {}};
  for (const auto& [part, sec] :
       {std::pair{"compute", s.compute_s}, {"halo transfer", s.transfer_s},
        {"message latency", s.latency_s}, {"resil (retries)", s.retry_s},
        {"total makespan", s.makespan_s}}) {
    composition.rows.push_back({{"", "component", std::string(part)},
                                {"", "seconds", sec},
                                {"", "share", sec / s.makespan_s, "%"}});
  }
  if (s.steps == 0 || s.makespan_s <= 0) {
    os << "No recorded steps.\n\n";
  } else {
    write_table(os, composition);
  }

  os << "## Straggler ranks (modeled cluster clock)\n\n";
  Table stragglers{"", {}};
  for (int r : s.stragglers()) {
    if (stragglers.rows.size() == 8) { break; }
    const auto ri = std::size_t(r);
    stragglers.rows.push_back({{"", "rank", std::int64_t(r)},
                               {"", "critical seconds", s.critical_s_per_rank[ri]},
                               {"", "path finishes here", std::int64_t(s.finishes_per_rank[ri])}});
  }
  if (stragglers.rows.empty()) { os << "No per-rank critical-path evidence.\n\n"; }
  write_table(os, stragglers);

  auto worst = report.worst_steps();
  worst.resize(std::min<std::size_t>(std::size_t(std::max(report.top_steps, 0)), worst.size()));
  if (!worst.empty()) {
    os << "## Top " << worst.size()
       << " steps by critical-path makespan (modeled cluster clock)\n\n";
    write_table(os, critical_path_table(report, worst));
  }

  const auto loss = loss_table(report);
  if (!loss.rows.empty()) {
    os << (report.scaling_losses.empty() ? "## Per-step parallel overhead"
                                         : "## Scaling-loss decomposition")
       << " (modeled cluster clock)\n\nEach row splits 1 - efficiency into terms that sum "
          "to the loss exactly (invariant gap shown).\n\n";
    write_table(os, loss);
  }

  for (const auto& sec : report.sections) {
    if (!sec.first) { write_section(os, sec, 2); }
  }
}

bool write_markdown(const PerfReport& report, const std::string& path) {
  std::ofstream os(path);
  if (!os) { return false; }
  write_markdown(report, os);
  return static_cast<bool>(os);
}

void write_json(const PerfReport& report, std::ostream& os) {
  json::Writer w(os);
  w.begin_object();
  w.field("bench", "attribution");
  w.field("title", report.title);
  w.field("nranks", report.nranks);
  w.field("latency_s", report.latency_s);
  const auto& s = report.summary;
  w.begin_object("summary")
      .field("steps", s.steps)
      .field("makespan_s", s.makespan_s)
      .field("compute_s", s.compute_s)
      .field("transfer_s", s.transfer_s)
      .field("latency_s", s.latency_s)
      .field("retry_s", s.retry_s)
      .end_object();
  std::vector<int> steps(report.paths.size());
  std::iota(steps.begin(), steps.end(), 0);
  write_table(w, critical_path_table(report, steps));
  write_table(w, loss_table(report));
  w.begin_array("stragglers");
  for (int r : s.stragglers()) { w.value(std::int64_t(r)); }
  w.end_array();
  for (const auto& sec : report.sections) { write_section(w, sec); }
  w.end_object();
  os << '\n';
}

bool write_json(const PerfReport& report, const std::string& path) {
  return rewrite_json_atomic(path, [&](std::ostream& os) { write_json(report, os); });
}

} // namespace mrpic::obs
