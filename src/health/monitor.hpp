#pragma once

// health::HealthMonitor — the runtime seam between the invariant ledger and
// the rest of the observability/resilience machinery. core::Simulation owns
// one (enable_health), assembles a LedgerSample at the configured cadence
// and hands it to record(), which
//
//  - appends the sample to the (bounded) ledger history,
//  - publishes every ledger quantity as a health_* gauge so the series
//    lands in the obs::MetricsRegistry JSONL alongside the perf metrics,
//  - (when ledger_path is set) appends the sample to the ledger JSONL file
//    and flushes it, so every sample of a long or crashed run is on disk,
//  - runs the Watchdog and logs each alert — to stderr, to the alert
//    callback, and (when alerts_path is set) appended + flushed to an
//    alerts JSONL file immediately, so the terminal alert of a dying run is
//    already on disk before any abort unwinds,
//  - latches the requested actions: checkpoint_requested() is consumed by
//    the Simulation to arm resil::CheckpointPolicy::request_now();
//    abort_requested() makes the Simulation flush() every registered
//    telemetry sink and throw health::AbortError.
//
// record() and the snapshot accessors are mutex-guarded so probes can be
// hammered from concurrent drivers (the TSan suite does); the by-reference
// accessors are for single-threaded post-run inspection.

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/health/watchdog.hpp"
#include "src/obs/durable_file.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/module_range.hpp"

namespace mrpic::obs {
class EventLog;
}

namespace mrpic::health {

struct MonitorConfig {
  // Ledger sampling cadence in steps (ModuleRange::every_n).
  int ledger_interval = 1;
  // NaN/Inf field-scan cadence (0 = never). Scans also record a sample.
  int nan_interval = 1;
  // Gauss/continuity residual cadence (0 = never): the expensive probe —
  // it deposits charge on every level and copies the currents.
  int residual_interval = 0;
  // Ledger rows kept in memory (0 = unbounded).
  std::size_t history_limit = 4096;
  // When set, every alert is appended to this JSONL file and flushed as it
  // is raised (durable across aborts/crashes).
  std::string alerts_path;
  // When set, every ledger sample is appended to this JSONL file and
  // flushed as it is recorded (not capped by history_limit).
  std::string ledger_path;
  // The monitor opens both files on construction, truncating them unless
  // `append` (replay incarnations of a resilient run continue them).
  bool append = false;
  // Echo alerts to stderr (on by default: a dying run should say why).
  bool log_to_stderr = true;
  WatchdogConfig watchdog;
};

// Thrown by Simulation::step() when an alert with the abort action fired;
// telemetry has been flushed by then.
class AbortError : public std::runtime_error {
public:
  explicit AbortError(Alert alert);
  const Alert& alert() const { return m_alert; }

private:
  Alert m_alert;
};

class HealthMonitor {
public:
  explicit HealthMonitor(MonitorConfig cfg = {});

  const MonitorConfig& config() const { return m_cfg; }

  // --- cadence ------------------------------------------------------------
  bool ledger_due(std::int64_t step) const {
    return ModuleRange::every_n(m_cfg.ledger_interval).due(step);
  }
  bool nan_due(std::int64_t step) const {
    return ModuleRange::every_n(m_cfg.nan_interval).due(step);
  }
  bool residual_due(std::int64_t step) const {
    return ModuleRange::every_n(m_cfg.residual_interval).due(step);
  }
  bool sample_due(std::int64_t step) const {
    return ledger_due(step) || nan_due(step) || residual_due(step);
  }

  // --- recording ----------------------------------------------------------
  // Ingest one sample: fills s.energy_drift_rate from the previous sample,
  // publishes gauges/counters, evaluates the watchdog, logs alerts, latches
  // actions. Returns the alerts raised by this sample.
  std::vector<Alert> record(LedgerSample s);

  // Metrics sink for the health_* gauges and counters (nullptr = none).
  void set_metrics(obs::MetricsRegistry* m);
  // Invoked for every alert, after it is logged.
  void set_alert_callback(std::function<void(const Alert&)> cb);
  // Unified event timeline: every alert also publishes a "health" event
  // with the matching severity (non-owning; nullptr = off).
  void set_event_log(obs::EventLog* log);

  // --- actions ------------------------------------------------------------
  // True once any recorded alert requested a checkpoint; reading consumes
  // the latch (the caller arms the checkpoint policy exactly once).
  bool consume_checkpoint_request();
  bool abort_requested() const;
  // The alert that requested the abort (meaningful when abort_requested()).
  Alert abort_alert() const;

  // --- flush-on-abort -----------------------------------------------------
  // Sinks run (registration order) by flush(): e.g. metrics JSONL + Chrome
  // trace writers. Simulation::step() calls flush() before throwing
  // AbortError, so the telemetry of the dying step is on disk.
  void add_flush_sink(std::function<void()> sink);
  void flush();

  // --- inspection ---------------------------------------------------------
  // Single-threaded accessors (post-run).
  const std::deque<LedgerSample>& history() const { return m_history; }
  const std::vector<Alert>& alerts() const { return m_alerts; }
  // Thread-safe copies (concurrent drivers / TSan suite).
  std::deque<LedgerSample> snapshot_history() const;
  std::vector<Alert> snapshot_alerts() const;
  // Total samples ever recorded (not capped by history_limit).
  std::int64_t num_samples() const;
  std::int64_t num_alerts() const;
  std::int64_t num_alerts(Severity s) const;

private:
  void publish(const LedgerSample& s);
  void log_alert(const Alert& a);

  MonitorConfig m_cfg;
  Watchdog m_watchdog;
  obs::MetricsRegistry* m_metrics = nullptr;
  obs::EventLog* m_event_log = nullptr;
  std::function<void(const Alert&)> m_alert_cb;
  std::vector<std::function<void()>> m_flush_sinks;

  mutable std::mutex m_mu;
  std::deque<LedgerSample> m_history;
  std::int64_t m_total_samples = 0;
  std::vector<Alert> m_alerts;
  bool m_checkpoint_latch = false;
  bool m_abort = false;
  Alert m_abort_alert;
  obs::JsonlAppender m_alerts_file;  // closed when alerts_path is empty
  obs::JsonlAppender m_ledger_file;  // closed when ledger_path is empty
};

} // namespace mrpic::health
