#include "src/obs/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include "src/insitu/registry.hpp"
#include "src/obs/durable_file.hpp"
#include "src/obs/metrics.hpp"

namespace mrpic::obs {
namespace {

constexpr double kQe = 1.602176634e-19;  // [C]; MeV rendering only
constexpr std::size_t kTriageLimit = 8;  // critical events kept per run

// Locate an artifact by logical name; fall back to a filename suffix match
// so manifests written by older producers still join.
std::string artifact_path(const RunSummary& rs, const std::string& name,
                          const std::string& suffix) {
  for (const auto& a : rs.manifest.artifacts) {
    if (a.name == name) { return rs.dir + "/" + a.path; }
  }
  for (const auto& a : rs.manifest.artifacts) {
    if (a.path.size() >= suffix.size() &&
        a.path.compare(a.path.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return rs.dir + "/" + a.path;
    }
  }
  return "";
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return !path.empty() && std::filesystem::exists(path, ec);
}

void join_metrics(RunSummary& rs) {
  const std::string path = artifact_path(rs, "metrics", "_metrics.jsonl");
  if (!file_exists(path)) { return; }
  std::size_t malformed = 0;
  std::vector<StepRecord> records;
  try {
    records = MetricsRegistry::read_jsonl(path, &malformed);
  } catch (const std::exception& e) {
    rs.errors.push_back(std::string("metrics: ") + e.what());
    return;
  }
  rs.metrics_records = static_cast<std::int64_t>(records.size());
  for (const auto& rec : records) {
    const auto it = rec.gauges.find("step_wall_s");
    if (it != rec.gauges.end() && std::isfinite(it->second) && it->second > 0) {
      rs.step_wall_samples.push_back(it->second);
    }
  }
  rs.step_p50_s = percentile(rs.step_wall_samples, 50);
  rs.step_p99_s = percentile(rs.step_wall_samples, 99);
  // Last-seen values win: walk backwards for the final health/memory gauges.
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const auto g = it->gauges.find("health_energy_drift_rate");
    if (g != it->gauges.end() && std::isfinite(g->second)) {
      rs.energy_drift_rate = g->second;
      break;
    }
  }
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    const auto g = it->gauges.find("mem_total_high_water_bytes");
    if (g != it->gauges.end() && std::isfinite(g->second)) {
      rs.mem_high_water_bytes = g->second;
      break;
    }
  }
}

void join_insitu(RunSummary& rs) {
  const std::string path = artifact_path(rs, "insitu", "_insitu.jsonl");
  if (!file_exists(path)) { return; }
  std::vector<insitu::Record> records;
  try {
    records = insitu::Registry::canonicalize(insitu::Registry::read_series_jsonl(path));
  } catch (const std::exception& e) {
    rs.errors.push_back(std::string("insitu: ") + e.what());
    return;
  }
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->diag == "beam" && std::isnan(rs.emit_ny_m_rad)) {
      rs.emit_ny_m_rad = it->value("emit_ny_m_rad");
    } else if (it->diag == "spectrum" && std::isnan(rs.peak_energy_J)) {
      rs.peak_energy_J = it->value("peak_energy_J");
    }
    if (!std::isnan(rs.emit_ny_m_rad) && !std::isnan(rs.peak_energy_J)) { break; }
  }
}

void join_events(RunSummary& rs) {
  const std::string path = artifact_path(rs, "events", "_events.jsonl");
  if (!file_exists(path)) { return; }
  std::size_t skipped = 0;
  std::vector<Event> events;
  try {
    events = EventLog::read_events_jsonl(path, &skipped);
  } catch (const std::exception& e) {
    rs.errors.push_back(std::string("events: ") + e.what());
    return;
  }
  rs.num_events = static_cast<std::int64_t>(events.size());
  std::int64_t prev_seq = -1;
  double prev_wall = -1;
  for (const auto& ev : events) {
    if (ev.seq <= prev_seq || ev.wall_s < prev_wall) { rs.events_monotone = false; }
    prev_seq = ev.seq;
    prev_wall = std::max(prev_wall, ev.wall_s);
    if (ev.severity == EventSeverity::Critical) {
      ++rs.num_critical;
      rs.triage.push_back(ev);
      if (rs.triage.size() > kTriageLimit) { rs.triage.erase(rs.triage.begin()); }
    }
  }
}

std::string fmt(double v, const char* spec = "%.3g") {
  if (std::isnan(v)) { return "-"; }
  char buf[48];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

} // namespace

int CampaignReport::runs_valid() const {
  int n = 0;
  for (const auto& r : runs) { n += r.manifest_ok ? 1 : 0; }
  return n;
}

int CampaignReport::runs_with_status(const char* status) const {
  int n = 0;
  for (const auto& r : runs) { n += r.manifest.status == status ? 1 : 0; }
  return n;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) { return std::numeric_limits<double>::quiet_NaN(); }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size());
  auto idx = static_cast<std::size_t>(std::ceil(rank));
  idx = std::min(std::max<std::size_t>(idx, 1), samples.size());
  return samples[idx - 1];
}

RunSummary summarize_run_dir(const std::string& dir) {
  RunSummary rs;
  rs.dir = dir;
  const std::string manifest_path = dir + "/run.json";
  if (!file_exists(manifest_path)) {
    rs.errors.push_back("no run.json");
    return rs;
  }
  rs.manifest_found = true;
  json::Value doc;
  try {
    doc = load_json(manifest_path);
  } catch (const std::exception& e) {
    rs.errors.push_back(std::string("run.json: ") + e.what());
    return rs;
  }
  auto problems = validate_manifest(doc);
  rs.errors.insert(rs.errors.end(), problems.begin(), problems.end());
  if (!problems.empty()) { return rs; }
  rs.manifest = parse_manifest(doc);
  rs.manifest_ok = true;

  join_metrics(rs);
  join_insitu(rs);
  join_events(rs);
  return rs;
}

CampaignReport scan_campaign(const std::string& campaign_dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(campaign_dir, ec)) {
    throw std::runtime_error("campaign directory not readable: " + campaign_dir);
  }
  CampaignReport rep;
  rep.dir = campaign_dir;

  std::vector<std::string> run_dirs;
  if (std::filesystem::exists(campaign_dir + "/run.json", ec)) {
    run_dirs.push_back(campaign_dir);  // a bare single-run directory
  }
  for (const auto& entry : std::filesystem::directory_iterator(campaign_dir, ec)) {
    if (entry.is_directory() &&
        std::filesystem::exists(entry.path() / "run.json", ec)) {
      run_dirs.push_back(entry.path().string());
    }
  }
  std::sort(run_dirs.begin(), run_dirs.end());
  for (const auto& d : run_dirs) { rep.runs.push_back(summarize_run_dir(d)); }

  // Per-scenario pooled aggregates.
  std::map<std::string, ScenarioStats> by_scenario;
  std::map<std::string, std::vector<double>> pooled;
  for (const auto& r : rep.runs) {
    if (!r.manifest_ok) { continue; }
    auto& st = by_scenario[r.manifest.scenario];
    st.scenario = r.manifest.scenario;
    ++st.runs;
    if (r.manifest.status == kRunStatusCompleted) { ++st.completed; }
    if (r.manifest.status == kRunStatusAborted) { ++st.aborted; }
    if (r.manifest.status == kRunStatusFailed) { ++st.failed; }
    auto& pool = pooled[r.manifest.scenario];
    pool.insert(pool.end(), r.step_wall_samples.begin(), r.step_wall_samples.end());
    const auto fold_min = [](double& acc, double v) {
      if (!std::isnan(v)) { acc = std::isnan(acc) ? v : std::min(acc, v); }
    };
    const auto fold_max = [](double& acc, double v) {
      if (!std::isnan(v)) { acc = std::isnan(acc) ? v : std::max(acc, v); }
    };
    fold_max(st.max_abs_energy_drift, std::abs(r.energy_drift_rate));
    fold_min(st.emit_ny_min, r.emit_ny_m_rad);
    fold_max(st.emit_ny_max, r.emit_ny_m_rad);
    fold_min(st.peak_energy_min_J, r.peak_energy_J);
    fold_max(st.peak_energy_max_J, r.peak_energy_J);
    fold_max(st.mem_high_water_max_bytes, r.mem_high_water_bytes);
  }
  for (auto& [name, st] : by_scenario) {
    auto& pool = pooled[name];
    st.step_samples = static_cast<std::int64_t>(pool.size());
    st.step_p50_s = percentile(pool, 50);
    st.step_p99_s = percentile(std::move(pool), 99);
    rep.scenarios.push_back(std::move(st));
  }
  return rep;
}

void write_campaign_markdown(const CampaignReport& rep, std::ostream& os) {
  os << "# Campaign report — " << rep.dir << "\n\n";
  os << "## Campaign\n\n";
  os << "- runs: " << rep.runs_total() << " (completed "
     << rep.runs_with_status(kRunStatusCompleted) << ", aborted "
     << rep.runs_with_status(kRunStatusAborted) << ", failed "
     << rep.runs_with_status(kRunStatusFailed) << ", still running "
     << rep.runs_with_status(kRunStatusRunning) << ")\n";
  os << "- manifests valid: " << rep.runs_valid() << "/" << rep.runs_total() << "\n";
  std::int64_t events = 0;
  bool monotone = true;
  for (const auto& r : rep.runs) {
    events += r.num_events;
    monotone = monotone && r.events_monotone;
  }
  os << "- event-timeline entries: " << events
     << " (ordering: " << (monotone ? "monotone" : "VIOLATED") << ")\n\n";

  os << "| scenario | runs | ok | p50 step [ms] | p99 step [ms] | max |dE|/E/s | "
        "emit_ny [mm mrad] | peak E [MeV] | mem HW [MiB] |\n";
  os << "|---|---:|---:|---:|---:|---:|---:|---:|---:|\n";
  for (const auto& st : rep.scenarios) {
    const auto span = [](double lo, double hi, double scale) {
      if (std::isnan(lo)) { return std::string("-"); }
      if (lo == hi) { return fmt(lo * scale); }
      return fmt(lo * scale) + "–" + fmt(hi * scale);
    };
    os << "| " << st.scenario << " | " << st.runs << " | " << st.completed << " | "
       << fmt(st.step_p50_s * 1e3) << " | " << fmt(st.step_p99_s * 1e3) << " | "
       << fmt(st.max_abs_energy_drift) << " | "
       << span(st.emit_ny_min, st.emit_ny_max, 1e6) << " | "
       << span(st.peak_energy_min_J, st.peak_energy_max_J, 1.0 / (1e6 * kQe)) << " | "
       << fmt(st.mem_high_water_max_bytes / (1024.0 * 1024.0)) << " |\n";
  }

  os << "\n## Runs\n\n";
  os << "| run id | scenario | status | steps | sim t [fs] | wall [s] | events | "
        "alerts | manifest |\n";
  os << "|---|---|---|---:|---:|---:|---:|---:|---|\n";
  for (const auto& r : rep.runs) {
    const auto& m = r.manifest;
    os << "| " << (m.run_id.empty() ? "?" : m.run_id) << " | "
       << (m.scenario.empty() ? "?" : m.scenario) << " | "
       << (m.status.empty() ? "?" : m.status) << " | " << m.steps_done << " | "
       << fmt(m.sim_time_s * 1e15) << " | " << fmt(m.wall_s) << " | " << r.num_events
       << " | " << m.num_alerts << " | " << (r.manifest_ok ? "ok" : "INVALID")
       << " |\n";
  }

  os << "\n## Failed-run triage\n\n";
  bool any = false;
  for (const auto& r : rep.runs) {
    const bool bad = !r.manifest_ok || r.manifest.status == kRunStatusAborted ||
                     r.manifest.status == kRunStatusFailed;
    if (!bad) { continue; }
    any = true;
    os << "- `" << (r.manifest.run_id.empty() ? r.dir : r.manifest.run_id) << "` ("
       << (r.manifest.scenario.empty() ? "unknown scenario" : r.manifest.scenario)
       << "): status " << (r.manifest.status.empty() ? "unknown" : r.manifest.status)
       << ", exit " << r.manifest.exit_code;
    if (!r.manifest.reason.empty()) { os << " — " << r.manifest.reason; }
    os << "\n";
    for (const auto& e : r.errors) { os << "  - manifest: " << e << "\n"; }
    if (!r.triage.empty()) {
      const auto& ev = r.triage.back();
      os << "  - last critical event: [" << ev.category << "/" << ev.kind << "] step "
         << ev.step << (ev.detail.empty() ? "" : " — " + ev.detail) << "\n";
    }
  }
  if (!any) { os << "none — every run completed with a valid manifest.\n"; }
}

bool write_campaign_markdown(const CampaignReport& rep, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) { return false; }
  write_campaign_markdown(rep, os);
  return static_cast<bool>(os);
}

void write_campaign_json(const CampaignReport& rep, std::ostream& os) {
  json::Writer w(os);
  w.begin_object().field("schema", kCampaignSchema).field("dir", rep.dir);
  w.field("runs_total", std::int64_t(rep.runs_total()))
      .field("runs_valid", std::int64_t(rep.runs_valid()))
      .field("completed", std::int64_t(rep.runs_with_status(kRunStatusCompleted)))
      .field("aborted", std::int64_t(rep.runs_with_status(kRunStatusAborted)))
      .field("failed", std::int64_t(rep.runs_with_status(kRunStatusFailed)));
  w.begin_array("scenarios");
  for (const auto& st : rep.scenarios) {
    w.begin_object()
        .field("scenario", st.scenario)
        .field("runs", std::int64_t(st.runs))
        .field("completed", std::int64_t(st.completed))
        .field("aborted", std::int64_t(st.aborted))
        .field("failed", std::int64_t(st.failed))
        .field("step_samples", st.step_samples)
        .field("step_p50_s", st.step_p50_s)
        .field("step_p99_s", st.step_p99_s)
        .field("max_abs_energy_drift", st.max_abs_energy_drift)
        .field("emit_ny_min_m_rad", st.emit_ny_min)
        .field("emit_ny_max_m_rad", st.emit_ny_max)
        .field("peak_energy_min_J", st.peak_energy_min_J)
        .field("peak_energy_max_J", st.peak_energy_max_J)
        .field("mem_high_water_max_bytes", st.mem_high_water_max_bytes)
        .end_object();
  }
  w.end_array();
  w.begin_array("runs");
  for (const auto& r : rep.runs) {
    w.begin_object()
        .field("dir", r.dir)
        .field("run_id", r.manifest.run_id)
        .field("scenario", r.manifest.scenario)
        .field("status", r.manifest.status)
        .field("exit_code", std::int64_t(r.manifest.exit_code))
        .field("manifest_ok", r.manifest_ok)
        .field("steps_done", r.manifest.steps_done)
        .field("sim_time_s", r.manifest.sim_time_s)
        .field("wall_s", r.manifest.wall_s)
        .field("step_p50_s", r.step_p50_s)
        .field("step_p99_s", r.step_p99_s)
        .field("energy_drift_rate", r.energy_drift_rate)
        .field("emit_ny_m_rad", r.emit_ny_m_rad)
        .field("peak_energy_J", r.peak_energy_J)
        .field("mem_high_water_bytes", r.mem_high_water_bytes)
        .field("num_events", r.num_events)
        .field("num_critical", r.num_critical)
        .field("events_monotone", r.events_monotone);
    w.begin_array("errors");
    for (const auto& e : r.errors) { w.value(e); }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool write_campaign_json(const CampaignReport& rep, const std::string& path) {
  return rewrite_json_atomic(path, [&](std::ostream& os) { write_campaign_json(rep, os); });
}

} // namespace mrpic::obs
